import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fginfer import (
    CycleDetected,
    FactorGraph,
    FactorTable,
    OutOfDomain,
    ParametricFactorSet,
    SUM_PRODUCT,
    ScopeMismatch,
    UncoveredVariable,
    UnknownVariable,
    VariableDecl,
    WeightedGraph,
    assignment_from_index,
    assignment_index,
    derive_log2_companions,
    make_schedule,
    posterior_entropy,
    run,
    validate,
)

from conftest import (
    adjacency,
    bits,
    per_factor,
    random_forest,
    random_tree,
    reference_check,
)


def binary_vars(*names):
    return [VariableDecl(n, 2) for n in names]


def ones_factor(fid, scope, cards=None):
    size = int(np.prod(cards or [2] * len(scope)))
    return FactorTable(fid, tuple(scope), np.ones(size))


def star_tree_graph():
    """Five binary variables; factors A(x1), B(x2), C(x1,x2,x3), D(x1,x4),
    E(x2,x5). A 10-node tree with 9 edges."""
    return FactorGraph(
        binary_vars("x1", "x2", "x3", "x4", "x5"),
        [
            ones_factor("A", ["x1"]),
            ones_factor("B", ["x2"]),
            ones_factor("C", ["x1", "x2", "x3"]),
            ones_factor("D", ["x1", "x4"]),
            ones_factor("E", ["x2", "x5"]),
        ],
    )


class TestValidate:
    def test_star_tree_is_valid(self):
        g = validate(star_tree_graph())
        assert len(g.variables) == 5
        assert len(g.factors) == 5
        assert g.n_edges == 9

    def test_smallest_tree(self):
        g = validate(FactorGraph(binary_vars("x"), [ones_factor("f", ["x"])]))
        assert g.n_edges == 1

    def test_parallel_factors_cycle(self):
        g = FactorGraph(
            binary_vars("x1", "x2"),
            [ones_factor("f", ["x1", "x2"]), ones_factor("h", ["x1", "x2"])],
        )
        with pytest.raises(CycleDetected):
            validate(g)

    def test_triangle_cycle(self):
        g = FactorGraph(
            binary_vars("a", "b", "c"),
            [
                ones_factor("fab", ["a", "b"]),
                ones_factor("fbc", ["b", "c"]),
                ones_factor("fca", ["c", "a"]),
            ],
        )
        with pytest.raises(CycleDetected):
            validate(g)

    def test_unknown_scope_variable(self):
        g = FactorGraph(binary_vars("x"), [ones_factor("f", ["x", "ghost"])])
        with pytest.raises(UnknownVariable):
            validate(g)

    def test_uncovered_variable(self):
        g = FactorGraph(binary_vars("x", "lonely"), [ones_factor("f", ["x"])])
        with pytest.raises(UncoveredVariable):
            validate(g)

    def test_table_length_mismatch(self):
        g = FactorGraph(
            binary_vars("x"), [FactorTable("f", ("x",), np.ones(3))]
        )
        with pytest.raises(ScopeMismatch):
            validate(g)

    def test_repeated_scope_variable_rejected_at_construction(self):
        with pytest.raises(ScopeMismatch):
            FactorTable("f", ("x", "x"), np.ones(4))

    def test_forest_accepted(self):
        g = FactorGraph(
            binary_vars("a", "b"),
            [ones_factor("fa", ["a"]), ones_factor("fb", ["b"])],
        )
        assert validate(g).n_edges == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            FactorGraph(binary_vars("x", "x"), [ones_factor("f", ["x"])])
        with pytest.raises(ValueError):
            FactorGraph(
                binary_vars("x"), [ones_factor("f", ["x"]), ones_factor("f", ["x"])]
            )

    def test_cardinality_must_be_positive(self):
        with pytest.raises(ValueError):
            VariableDecl("x", 0)

    def test_edge_count_is_nodes_minus_components(self):
        # tree/forest criterion on a batch of random instances
        rng = np.random.default_rng(29)
        for _ in range(25):
            g, _ = random_tree(rng, max_vars=8)
            validate(g)
            # count components by union of scopes
            comp = {v.id: v.id for v in g.variables}

            def find(x):
                while comp[x] != x:
                    comp[x] = comp[comp[x]]
                    x = comp[x]
                return x

            for f in g.factors:
                anchor = find(f.scope[0])
                for vid in f.scope[1:]:
                    comp[find(vid)] = anchor
            # every factor has a nonempty scope, so variable components
            # under scope-sharing are exactly the bipartite components
            n_components = len({find(v.id) for v in g.variables})
            n_nodes = len(g.variables) + len(g.factors)
            assert g.n_edges == n_nodes - n_components


def outcome(check, g):
    """(error kind, text) of what check(g) raises, or None."""
    try:
        check(g)
    except (CycleDetected, ScopeMismatch, UncoveredVariable, UnknownVariable) as e:
        return type(e).__name__, str(e)
    return None


def random_structure(rng):
    """A random graph, often cyclic, sometimes naming an undeclared
    variable, leaving one uncovered or holding a table of the wrong
    length."""
    n_var = int(rng.integers(1, 9))
    cards = rng.integers(1, 4, n_var).tolist()
    names = [f"x{i}" for i in range(n_var)]
    ghosts = ["g0", "g1"] if rng.random() < 0.3 else []
    factors = []
    for k in range(int(rng.integers(1, 9))):
        pool = names + ghosts
        scope = [pool[i] for i in rng.permutation(len(pool))[:int(rng.integers(1, 4))]]
        size = math.prod(cards[names.index(n)] if n in names else 1 for n in scope)
        if rng.random() < 0.05:
            size += 1
        factors.append(FactorTable(f"f{k}", tuple(scope), rng.uniform(0.5, 2.0, size)))
    return FactorGraph([VariableDecl(n, c) for n, c in zip(names, cards)], factors)


def shuffled_chain(rng, n):
    """A chain x0 - f0 - x1 - ... - x(n-1), variables and factors
    declared in shuffled order."""
    variables = [VariableDecl(f"x{i}", 2) for i in rng.permutation(n).tolist()]
    factors = [FactorTable(f"f{i}", (f"x{i}", f"x{i + 1}"), np.ones(4))
               for i in rng.permutation(n - 1).tolist()]
    return variables, factors


class TestValidateMatchesReference:
    """validate's array checks against a per-edge union-find."""

    def test_random_graphs(self):
        rng = np.random.default_rng(47)
        kinds = {}
        for _ in range(1500):
            g = random_structure(rng)
            want = outcome(reference_check, g)
            assert outcome(validate, g) == want
            kinds[want and want[0]] = kinds.get(want and want[0], 0) + 1
        # every outcome is well represented
        assert min(kinds.values()) >= 30 and len(kinds) == 5, kinds

    def test_table_size_does_not_wrap(self):
        # 2^64 is 0 in int64
        names = [f"x{i}" for i in range(64)]
        g = FactorGraph(binary_vars(*names), [FactorTable("f", tuple(names), [1.0])])
        with pytest.raises(ScopeMismatch, match="factor 'f': value table length 1, but its"
                                                f" scope needs {2 ** 64}$"):
            validate(g)

    def test_long_shuffled_chain(self):
        rng = np.random.default_rng(53)
        n = 20000
        variables, factors = shuffled_chain(rng, n)
        g = validate(FactorGraph(variables, factors))
        assert g.n_edges == n + (n - 1) - 1
        # one more factor closes a cycle
        closing = FactorTable("close", ("x5", "x17000"), np.ones(4))
        want = outcome(reference_check, FactorGraph(variables, factors + [closing]))
        assert want == ("CycleDetected", "factor 'close': edge to 'x17000' closes a cycle")
        assert outcome(validate, FactorGraph(variables, factors + [closing])) == want

    def test_non_finite_entries_are_out_of_domain(self):
        for x in (math.nan, math.inf, -math.inf):
            g = FactorGraph(binary_vars("a"), [FactorTable("fa", ("a",), [1.0, x])])
            text = f"factor 'fa': table entry 1 is {x}, not a finite number"
            for use in (validate, lambda g: run(g, SUM_PRODUCT), derive_log2_companions,
                        lambda g: posterior_entropy(WeightedGraph(g, [None]))):
                with pytest.raises(OutOfDomain, match=f"^{text}$"):
                    use(g)

    def test_declared_tables_are_left_as_they_were(self):
        table = FactorTable("fa", ("a",), [1.0, 2.0])
        values = table.values
        g = validate(FactorGraph(binary_vars("a"), [table]))
        assert table.values is values
        values[0] = 5.0
        assert g.values.tolist() == [1.0, 2.0]
        view, = g.factors
        assert view is not table and view.values.base is g.values
        assert g.factors[0] is view


class TestLayout:
    """A validated graph keeps every table side by side as one array."""

    def test_factors_are_views_of_the_values(self, rng):
        for trial in range(20):
            g, _ = random_forest(rng)
            validate(g)
            if trial % 2:
                # a parametric set's graph_with lays its tables out the same way
                pf = ParametricFactorSet(g.variables, [f.scope for f in g.factors], 1,
                                         factor_ids=[f.id for f in g.factors])
                tables = rng.uniform(0.1, 2.0, g.values.size)
                g = pf.graph_with(tables)
                assert g.values is tables
            assert g.offsets.tolist() == np.cumsum(
                [0] + [f.values.size for f in g.factors]).tolist()
            for fi, f in enumerate(g.factors):
                assert bits(g.values[g.offsets[fi]:g.offsets[fi + 1]]) == bits(f.values)
                assert f.values.base is g.values
                assert g.factor_at(g.offsets[fi]) is f
                assert g.factor_at(g.offsets[fi + 1] - 1) is f

    def test_lay_out(self, rng):
        g = validate(FactorGraph(binary_vars("x", "y"), [
            ones_factor("fx", ["x"]), ones_factor("fxy", ["x", "y"])]))
        flat = rng.uniform(size=6)
        assert g.lay_out(flat) is flat
        assert bits(g.lay_out(per_factor(g, flat))) == bits(flat)
        assert g.lay_out([None, np.ones((2, 2))]).tolist() == [0.0, 0.0] + [1.0] * 4
        wide = rng.uniform(size=(3, 6))
        assert g.lay_out(wide, rows=3) is wide
        assert bits(g.lay_out(per_factor(g, wide), rows=3)) == bits(wide)
        with pytest.raises(ScopeMismatch, match="1 u tables for 2 factors: factor 'fxy'"):
            g.lay_out([flat[:2]], "u")
        with pytest.raises(ScopeMismatch, match="factor 'fxy': u table length 3"):
            g.lay_out([flat[:2], flat[:3]], "u")
        with pytest.raises(ScopeMismatch, match="factor 'fx': v table length 2, but its"
                                                " scope needs 3 x 2"):
            g.lay_out([flat[:2], wide[:, 2:]], "v", rows=3)
        # an array of the layout's rank is a layout array, never one table per factor
        with pytest.raises(ScopeMismatch, match=r"^u array of shape \(2,\), but the graph's"
                                                r" layout is \(6,\)$"):
            g.lay_out(np.zeros(2), "u")
        with pytest.raises(ScopeMismatch, match=r"shape \(2, 2\), but the graph's layout is"
                                                r" \(2, 6\)"):
            g.lay_out(np.zeros((2, 2)), "u", rows=2)


class TestSchedule:
    def test_chain_one_pass_ends_at_root(self):
        g = FactorGraph(
            binary_vars("x1", "x2", "x3"),
            [
                ones_factor("f12", ["x1", "x2"]),
                ones_factor("f23", ["x2", "x3"]),
            ],
        )
        sched = make_schedule(validate(g), root="x3")
        assert len(sched.edges) == 4
        to_factor, var_i, fac_i = sched.edges[-1]
        assert not to_factor
        assert g.variables[var_i].id == "x3"
        assert g.factors[fac_i].id == "f23"

    def test_single_pair_schedule(self):
        g = validate(FactorGraph(binary_vars("x"), [ones_factor("f", ["x"])]))
        sched = make_schedule(g, root="x")
        assert len(sched.edges) == 1
        to_factor, var_i, fac_i = sched.edges[0]
        assert not to_factor  # factor -> variable

    def test_star_tree_two_pass_counts(self):
        g = validate(star_tree_graph())
        sched = make_schedule(g, root="x3", two_pass=True)
        assert len(sched.edges) == 2 * g.n_edges == 18
        assert len(set(sched.edges)) == 18  # each directed edge once

    def test_dependencies_respected(self):
        # replay the schedule: an edge may fire only when all feeds are done
        rng = np.random.default_rng(31)
        for _ in range(20):
            g, _ = random_tree(rng, max_vars=9)
            factor_vars, var_factors = adjacency(g)
            for two_pass in (False, True):
                sched = make_schedule(g, two_pass=two_pass)
                have_q = set()
                have_r = set()
                for to_factor, vi, fi in sched.edges:
                    if to_factor:
                        feeds = [f for f in var_factors[vi] if f != fi]
                        assert all((f, vi) in have_r for f in feeds)
                        have_q.add((vi, fi))
                    else:
                        feeds = [v for v in factor_vars[fi] if v != vi]
                        assert all((v, fi) in have_q for v in feeds)
                        have_r.add((fi, vi))

    def test_unknown_root(self):
        g = validate(star_tree_graph())
        with pytest.raises(UnknownVariable):
            make_schedule(g, root="nope")


class TestAssignmentIndex:
    def test_mixed_radix_examples(self):
        assert assignment_index([2, 3], (1, 2)) == 5
        assert assignment_index([2, 3], (0, 0)) == 0
        assert assignment_index([4], (3,)) == 3

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            assignment_index([2, 3], (2, 0))
        with pytest.raises(OutOfDomain):
            assignment_index([2, 3], (0, -1))

    def test_first_position_most_significant(self):
        # incrementing the first digit jumps by the product of later cards
        assert assignment_index([3, 4, 5], (1, 0, 0)) == 20
        assert assignment_index([3, 4, 5], (0, 1, 0)) == 5
        assert assignment_index([3, 4, 5], (0, 0, 1)) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    def test_roundtrip_bijection(self, cards):
        total = int(np.prod(cards))
        if total > 10_000:
            return
        seen = set()
        for idx in range(total):
            a = assignment_from_index(cards, idx)
            assert assignment_index(cards, a) == idx
            seen.add(tuple(a))
        assert len(seen) == total
