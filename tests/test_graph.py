import collections
import math

import numpy as np
import pytest

from fginfer import (
    CycleDetected,
    FactorGraph,
    FactorTable,
    HmmSpec,
    OutOfDomain,
    ParametricFactorSet,
    SUM_PRODUCT,
    ScopeMismatch,
    UncoveredVariable,
    UnknownVariable,
    VariableDecl,
    WeightedGraph,
    derive_log2_companions,
    hmm_to_weighted_graph,
    make_schedule,
    posterior_entropy,
    run,
    validate,
)

import fginfer.graph as graph_module
from conftest import (
    adjacency,
    bits,
    per_factor,
    random_forest,
    random_tree,
    reference_check,
)


def reference_search(g, root):
    """Component roots and every node's depth by a plain breadth-first
    search over conftest.adjacency: the root's component first, then
    every other from its first declared variable."""
    factor_vars, var_factors = adjacency(g)
    n_var = len(var_factors)
    depth = [None] * (n_var + len(factor_vars))
    roots = []
    for seed in [root] + list(range(n_var)):
        if depth[seed] is not None:
            continue
        roots.append(seed)
        depth[seed] = 0
        queue = collections.deque([seed])
        while queue:
            node = queue.popleft()
            near = ([n_var + f for f in var_factors[node]] if node < n_var
                    else factor_vars[node - n_var])
            for other in near:
                if depth[other] is None:
                    depth[other] = depth[node] + 1
                    queue.append(other)
    return roots, depth


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

    def test_no_variables(self):
        with pytest.raises(UncoveredVariable, match="declares no variables"):
            validate(FactorGraph([], []))

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

    def test_one_integer_rule_for_cardinalities(self):
        # numpy integers are integers, stored as Python ints; bools are not
        for card in (np.int64(3), np.uint8(3), 3):
            decl = VariableDecl("x", card)
            assert decl.cardinality == 3 and type(decl.cardinality) is int
        text = "^variable 'x': cardinality must be an integer >= 1$"
        for card in (True, False, np.True_, 0, -2, 3.0, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match=text):
                VariableDecl("x", card)

    def test_from_arrays_applies_the_cardinality_rule(self):
        def declare(cards):
            return FactorGraph.from_arrays(["x", "y", "z"], cards, ["f"], [("x", "y", "z")],
                                           np.ones(8), [8])

        for cards in ([2, 2, 2], [np.int64(2), 2, np.uint8(2)], np.full(3, 2, np.int32)):
            g = validate(declare(cards))
            assert g.cards.tolist() == [2, 2, 2]
            assert g.variables == binary_vars("x", "y", "z")
        for cards, bad in (([2, True, 0], "y"), ([2, 2, 0], "z"), ([2, 2.0, 2], "y"),
                           (np.array([2, 0, 2]), "y"), (np.ones(3, dtype=bool), "x"),
                           (np.array([2.0, 2.0, 2.0]), "x"), ([0, 2, None], "x")):
            with pytest.raises(ValueError, match=f"^variable '{bad}': cardinality must be"
                                                 " an integer >= 1$"):
                declare(cards)
        with pytest.raises(ValueError, match=r"cardinalities of shape \(2,\) for 3 variables"):
            declare([2, 2])

    @pytest.mark.parametrize("card", [2 ** 63, 2 ** 64, 10 ** 400],
                             ids=["2**63", "2**64", "10**400"])
    def test_cardinality_past_int64_is_a_table_length_fault(self, card):
        text = f"^factor 'f': value table length 1, but its scope needs {card}$"
        for g in (FactorGraph([VariableDecl("x", card)], [FactorTable("f", ("x",), [1.0])]),
                  FactorGraph.from_arrays(["x"], [card], ["f"], [("x",)], [1.0], [1])):
            with pytest.raises(ScopeMismatch, match=text):
                validate(g)

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

    def test_transpose_of_the_scopes(self, rng):
        # validate builds each variable's edges once, in factor order, for
        # the schedule and the level plan
        for _ in range(20):
            g, _ = random_forest(rng)
            _, var_factors = adjacency(validate(g))
            fac = np.repeat(np.arange(len(g.factor_ids)), np.diff(g.scope_offsets))
            ends = g.var_offsets.tolist()
            assert [fac[g.var_edges[a:b]].tolist() for a, b in zip(ends, ends[1:])] == var_factors
            assert (g.scope_vars[g.var_edges] == np.repeat(np.arange(len(g.variables)),
                                                           np.diff(g.var_offsets))).all()

    def test_declared_from_arrays(self):
        # the same declaration as one FactorTable per factor
        variables = binary_vars("x", "y")
        g = FactorGraph.from_arrays(["x", "y"], [2, 2], ["fx", "fxy"], [["x"], ("x", "y")],
                                    np.arange(6.0), [2, 4])
        want = FactorGraph(variables, [FactorTable("fx", ("x",), [0.0, 1.0]),
                                       FactorTable("fxy", ("x", "y"), [2.0, 3.0, 4.0, 5.0])])
        for h in (g, want):
            validate(h)
        for name in ("values", "offsets", "scope_vars", "scope_offsets"):
            assert getattr(g, name).tolist() == getattr(want, name).tolist()
        assert [(f.id, f.scope) for f in g.factors] == [("fx", ("x",)), ("fxy", ("x", "y"))]

    @pytest.mark.parametrize("ids, scopes, exc, text", [
        (["f", "g"], [("x",), ()], ScopeMismatch, "factor 'g': scope must name at least"),
        (["f", "g"], [("x", "zz", "zz"), ("x",)], ScopeMismatch, "factor 'f': scope repeats"),
        (["f", "f"], [("x",), ("x",)], ValueError, "duplicate factor id 'f'"),
    ])
    def test_declaration_errors(self, ids, scopes, exc, text):
        with pytest.raises(exc, match=text):
            FactorGraph.from_arrays(["x"], [2], ids, scopes, np.ones(4), [2, 2])

    def test_declaration_length_mismatch(self):
        with pytest.raises(ValueError, match=r"values of shape \(3,\) for tables of 4"):
            FactorGraph.from_arrays(["x"], [2], ["f", "g"], [("x",), ("x",)],
                                    np.ones(3), [2, 2])

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
                assert g.factor_at(g.offsets[fi]) == f.id
                assert g.factor_at(g.offsets[fi + 1] - 1) == f.id

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


def per_table(g, tables, what):
    """lay_out's table-by-table read of a per-factor list, written out."""
    ids, sizes = g.factor_ids, np.diff(g.offsets).tolist()
    if len(tables) != len(ids):
        missing = f": factor {ids[len(tables)]!r} has none" if len(tables) < len(ids) else ""
        raise ScopeMismatch(f"{len(tables)} {what} tables for {len(ids)} factors{missing}")
    out = [np.zeros(n) if t is None else np.asarray(t, dtype=float) for t, n in zip(tables, sizes)]
    for fid, t, n in zip(ids, out, sizes):
        if t.size != n:
            raise ScopeMismatch(f"factor {fid!r}: {what} table length {t.size},"
                                f" but its scope needs {n}")
    return np.concatenate(out, axis=None)


def result_or_error(fn, *args):
    """The dtype, shape and bits of fn's result, or its error's type and message."""
    try:
        r = fn(*args)
    except Exception as e:
        return type(e), str(e)
    return r.dtype, r.shape, bits(r)


class TestLayOutBulk:
    """A per-factor list of 1-D tables is laid out with one concatenate;
    every input gives the bits, or the error, of the table-by-table read."""

    nan = math.nan
    inputs = {
        "float": [np.array([1.0, -0.0]), np.array([nan, 2.0, -3.0, math.inf])],
        "int": [np.array([1, -2]), np.array([3, 4, 2**62 + 1, 6])],
        "bool": [np.array([True, False]), np.array([1.5, 2.0, 3.0, 4.0])],
        "mixed-kinds": [np.ones(2, dtype=np.float32) / 3, np.arange(4, dtype=np.uint64)],
        "lists": [[1, 2.5], [3, 4, 5, 6]],
        "int-lists": [[2**63, True], [3, 4, 5, 6]],
        "none": [None, [1.0, 2.0, 3.0, 4.0]],
        "(n, 1)": [np.ones((2, 1)), np.arange(4.0).reshape(4, 1)],
        "(2, 2) for 4": [np.ones(2), np.arange(4.0).reshape(2, 2)],
        # the trap: len 2 matches the first factor, size 4 does not
        "(2, n)": [np.ones((2, 2)), np.ones(4)],
        "object-none": [np.array([None, 1.0], dtype=object), np.ones(4)],
        "list-none": [[None, 1.0], np.ones(4)],
        "past-int64": [[2**70, 1], np.ones(4)],
        "strings": [["1.5", "2"], np.ones(4)],
        "scalar": [1.0, np.ones(4)],
        "too-few": [np.ones(2)],
        "too-many": [np.ones(2)] * 3,
        "lengths": [np.ones(3), np.ones(3)],
        "lengths-summing-right": [np.ones(1), np.ones(5)],
        "strided": [np.arange(10.0)[::5], np.arange(8.0)[::2]],
        "2-d array": np.arange(4.0).reshape(2, 2),
    }

    @pytest.mark.parametrize("name", list(inputs))
    def test_same_bits_or_error(self, name):
        g = validate(FactorGraph(binary_vars("x", "y"), [
            ones_factor("fx", ["x"]), ones_factor("fxy", ["x", "y"])]))
        tables = self.inputs[name]
        expected = result_or_error(per_table, g, tables, "u")
        assert result_or_error(g.lay_out, tables, "u") == expected
        into = np.full(6, 7.0)

        def laid_into(tables, what):
            result = g.lay_out(tables, what, into=into)
            assert result is into
            return result
        assert result_or_error(laid_into, tables, "u") == expected

    @pytest.mark.parametrize("name", ["float", "int", "bool", "mixed-kinds", "lists",
                                      "int-lists", "strided"])
    def test_bulk_read_converts_no_table(self, name, monkeypatch):
        # the table-by-table read converts each table with np.asarray
        class NoAsarray:
            def __getattr__(self, attr):
                assert attr != "asarray", "read table by table"
                return getattr(np, attr)

        g = validate(FactorGraph(binary_vars("x", "y"), [
            ones_factor("fx", ["x"]), ones_factor("fxy", ["x", "y"])]))
        monkeypatch.setattr(graph_module, "np", NoAsarray())
        assert g.lay_out(self.inputs[name], "u").shape == (6,)


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
        assert len(set(map(tuple, sched.edges.tolist()))) == 18  # each directed edge once

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

    @staticmethod
    def assert_search_matches_reference(g, root):
        sched = make_schedule(g, root=g.var_ids[root], two_pass=True)
        assert (sched.component_roots.tolist(), sched.depth.tolist()) == reference_search(g, root)
        # the first pass sends from the deeper end, deepest first; the
        # second from the shallower end, shallowest first
        to_factor, var, fac = sched.edges.T
        var_depth, fac_depth = sched.depth[var], sched.depth[len(g.var_ids) + fac]
        sender = np.where(to_factor == 1, var_depth, fac_depth)
        assert (np.abs(var_depth - fac_depth) == 1).all()
        up, down = np.split(sender, 2)
        assert (up == np.maximum(var_depth, fac_depth)[:g.n_edges]).all()
        assert (np.diff(up) <= 0).all() and (np.diff(down) >= 0).all()

    def test_search_matches_a_plain_breadth_first_search(self):
        rng = np.random.default_rng(59)
        for trial in range(40):
            g, _ = random_forest(rng) if trial % 2 else random_tree(rng)
            validate(g)
            for root in range(len(g.var_ids)):
                self.assert_search_matches_reference(g, root)

    def test_search_on_a_long_chain_and_a_forest(self):
        # the S = 2, T = 4001 chain, and a forest rooted in its last component
        rng = np.random.default_rng(61)
        obs = rng.integers(0, 2, 4001)
        chain = hmm_to_weighted_graph(HmmSpec([0.5, 0.5], np.full((2, 2), 0.5),
                                              np.full((2, 2), 0.5), obs)).graph
        for root in (0, 2000, 4000):
            self.assert_search_matches_reference(chain, root)
        trees, _ = random_forest(rng, max_trees=4)
        g = FactorGraph(trees.variables + chain.variables, trees.factors + chain.factors)
        validate(g)
        assert len(np.unique(g.component)) >= 2
        self.assert_search_matches_reference(g, len(g.var_ids) - 1)
        self.assert_search_matches_reference(g, 0)

    def test_euler_tour_depths_on_random_forests(self):
        # 200 forests with a random root, then a root in a later component
        # and a forest of single-variable components beside a tree
        rng = np.random.default_rng(67)
        for _ in range(200):
            g = validate(random_forest(rng, max_trees=4)[0])
            self.assert_search_matches_reference(g, int(rng.integers(len(g.var_ids))))
        trees = [random_tree(rng, max_vars=8)[0] for _ in range(3)]
        g = FactorGraph([VariableDecl(f"t{k}{v.id}", v.cardinality)
                         for k, t in enumerate(trees) for v in t.variables],
                        [FactorTable(f"t{k}{f.id}", tuple(f"t{k}{n}" for n in f.scope), f.values)
                         for k, t in enumerate(trees) for f in t.factors])
        validate(g)
        assert len(np.unique(g.component)) == 3
        self.assert_search_matches_reference(g, len(g.var_ids) - 1)
        singles = binary_vars("s0", "s1", "s2")
        g = FactorGraph(singles + trees[0].variables,
                        [ones_factor(f"u{v.id}", [v.id]) for v in singles] + trees[0].factors)
        validate(g)
        for root in (0, 2, 3, len(g.var_ids) - 1):
            self.assert_search_matches_reference(g, root)

    def test_euler_tour_depths_on_a_hub_and_a_long_chain(self):
        # a variable of degree 401, and the S = 2, T = 100000 chain
        leaves = binary_vars(*(f"y{i}" for i in range(400)))
        hub = FactorGraph([VariableDecl("hub", 3)] + leaves,
                          [ones_factor("u", ["hub"], [3])]
                          + [ones_factor(f"f{i}", [v.id, "hub"] if i % 2 else ["hub", v.id], [2, 3])
                             for i, v in enumerate(leaves)])
        validate(hub)
        for root in (0, 8):
            self.assert_search_matches_reference(hub, root)
        obs = np.random.default_rng(71).integers(0, 2, 100000)
        chain = hmm_to_weighted_graph(HmmSpec([0.5, 0.5], np.full((2, 2), 0.5),
                                              np.full((2, 2), 0.5), obs)).graph
        sched = make_schedule(chain, root=chain.var_ids[50000])
        want = reference_search(chain, 50000)
        assert (sched.component_roots.tolist(), sched.depth.tolist()) == want

    def test_edges_are_built_on_first_read(self):
        g = validate(star_tree_graph())
        sched = make_schedule(g, root="x3", two_pass=True)
        assert "edges" not in vars(sched)
        assert sched.edges is sched.edges and len(sched.edges) == 2 * g.n_edges

