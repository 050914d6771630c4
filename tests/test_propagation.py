import math

import numpy as np
import pytest

from fginfer import (
    BOOLEAN,
    ENTROPY,
    MAX_PRODUCT,
    SUM_PRODUCT,
    EntropyWeight,
    FactorGraph,
    FactorTable,
    MissingDependency,
    VariableDecl,
    WeightedGraph,
    compute_zh,
    make_schedule,
    run,
    total_sum,
)
from fginfer.oracle import (
    boolean_satisfiable,
    enumerate_h,
    enumerate_marginal,
    enumerate_z,
    max_product_value,
)
from fginfer.propagation import fold_exponent, level_plan, product_of_totals

from conftest import (
    adjacency,
    assert_close,
    bits,
    heap_tree,
    per_factor,
    random_forest,
    random_tree,
    ulps_apart,
)
from stepwise import (
    MessageStore,
    factor_to_variable,
    init_leaf_messages,
    marginal_at,
    run_spread,
    spread,
    step_reference,
    variable_to_factor,
)


def graph_of(variables, factors):
    return FactorGraph(variables, factors)


def carriers(g, s, companions):
    """The lifted carrier tables of g with companions, for ``tables=``."""
    return WeightedGraph(g, companions).carrier_tables(s)


def plain(m) -> list:
    """A marginal's scores times 2^exponent."""
    return np.ldexp(m.scores(), m.exponent).tolist()


def chain3():
    return graph_of(
        [VariableDecl("x1", 2), VariableDecl("x2", 2), VariableDecl("x3", 2)],
        [
            FactorTable("f12", ("x1", "x2"), np.array([1.0, 2.0, 3.0, 4.0])),
            FactorTable("f23", ("x2", "x3"), np.array([1.0, 1.0, 1.0, 1.0])),
        ],
    )


def star_tree(tables=None):
    variables = [VariableDecl(f"x{i}", 2) for i in range(1, 6)]
    scopes = {
        "A": ("x1",),
        "B": ("x2",),
        "C": ("x1", "x2", "x3"),
        "D": ("x1", "x4"),
        "E": ("x2", "x5"),
    }
    factors = []
    for fid, scope in scopes.items():
        size = 2 ** len(scope)
        vals = np.ones(size) if tables is None else tables[fid]
        factors.append(FactorTable(fid, scope, vals))
    return graph_of(variables, factors)


class TestLeafInit:
    def test_unary_leaf_factor_copies_table(self):
        g = graph_of(
            [VariableDecl("x", 2), VariableDecl("y", 2)],
            [
                FactorTable("f", ("x",), np.array([0.3, 0.7])),
                FactorTable("fxy", ("x", "y"), np.ones(4)),
            ],
        )
        store = init_leaf_messages(MessageStore(g, SUM_PRODUCT))
        assert (store.r[(0, 0)].tolist(), store.r_scale[(0, 0)]) == ([[0.6, 1.4]], -1)
        assert np.ldexp(store.r[(0, 0)], -1).tolist() == [[0.3, 0.7]]

    def test_leaf_variable_sends_ones(self):
        g = graph_of(
            [VariableDecl("x", 3), VariableDecl("y", 3)],
            [FactorTable("f", ("x", "y"), np.ones(9))],
        )
        store = init_leaf_messages(MessageStore(g, SUM_PRODUCT))
        assert store.q[(0, 0)].tolist() == [[1.0, 1.0, 1.0]]
        assert store.q[(1, 0)].tolist() == [[1.0, 1.0, 1.0]]

    def test_entropy_leaf_factor_is_lifted(self):
        g = graph_of(
            [VariableDecl("x", 2), VariableDecl("y", 2)],
            [
                FactorTable("f", ("x",), np.array([0.5, 0.5])),
                FactorTable("fxy", ("x", "y"), np.ones(4)),
            ],
        )
        store = init_leaf_messages(
            MessageStore(g, ENTROPY, tables=carriers(g, ENTROPY, [np.array([-1.0, -1.0]), None]))
        )
        scores, aux = store.r[(0, 0)].tolist()
        assert scores == [1.0, 1.0]
        assert aux == [-1.0, -1.0]
        assert store.r_scale[(0, 0)] == -1


class TestMessageKernels:
    def test_variable_to_factor_pointwise_product(self):
        # x with three factor neighbors: two feed r's, ask for q toward third
        g = graph_of(
            [VariableDecl("x", 2)],
            [
                FactorTable("a", ("x",), np.array([2.0, 3.0])),
                FactorTable("b", ("x",), np.array([4.0, 5.0])),
                FactorTable("c", ("x",), np.ones(2)),
            ],
        )
        store = init_leaf_messages(MessageStore(g, SUM_PRODUCT))
        q = variable_to_factor(store, "x", "c")
        # [8, 15] as a mantissa and exponent
        assert (q.tolist(), store.q_scale[(0, 2)]) == ([[1.0, 1.875]], 3)

    def test_variable_to_factor_empty_product_is_ones(self):
        g = graph_of(
            [VariableDecl("x", 2), VariableDecl("y", 2)],
            [FactorTable("f", ("x", "y"), np.ones(4))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        assert variable_to_factor(store, "x", "f").tolist() == [[1.0, 1.0]]

    def test_variable_to_factor_entropy_pairs(self):
        g = graph_of(
            [VariableDecl("x", 1)],
            [
                FactorTable("a", ("x",), np.array([1.0])),
                FactorTable("b", ("x",), np.array([2.0])),
                FactorTable("c", ("x",), np.array([1.0])),
            ],
        )
        store = MessageStore(g, ENTROPY)
        store.r[(0, 0)] = np.array([[1.0], [1.0]])
        store.r[(1, 0)] = np.array([[2.0], [0.0]])
        scores, aux = variable_to_factor(store, "x", "c")
        assert (scores[0], aux[0], store.q_scale[(0, 2)]) == (1.0, 1.0, 1)

    def test_factor_to_variable_row_sums(self):
        g = graph_of(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [FactorTable("f", ("x1", "x2"), np.array([1.0, 2.0, 3.0, 4.0]))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        store.q[(1, 0)] = np.array([[1.0, 1.0]])
        r = factor_to_variable(store, "f", "x1")
        assert (r.tolist(), store.r_scale[(0, 0)]) == ([[0.75, 1.75]], 2)

    def test_factor_to_variable_boolean_or(self):
        g = graph_of(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [FactorTable("f", ("x1", "x2"), np.array([0.0, 1.0, 1.0, 1.0]))],
        )
        store = MessageStore(g, BOOLEAN)
        store.q[(1, 0)] = np.array([[1.0, 1.0]])
        assert factor_to_variable(store, "f", "x1").tolist() == [[1.0, 1.0]]

    def test_unary_factor_message_is_lifted_table(self):
        g = graph_of(
            [VariableDecl("x", 2)],
            [FactorTable("f", ("x",), np.array([0.25, 0.75]))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        assert factor_to_variable(store, "f", "x").tolist() == [[0.5, 1.5]]
        assert store.r_scale[(0, 0)] == -1

    def test_missing_dependency(self):
        g = chain3()
        store = MessageStore(g, SUM_PRODUCT)
        with pytest.raises(MissingDependency):
            factor_to_variable(store, "f12", "x1")

    def test_write_once_enforced(self):
        g = graph_of(
            [VariableDecl("x", 2)],
            [FactorTable("f", ("x",), np.array([0.25, 0.75]))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        factor_to_variable(store, "f", "x")
        with pytest.raises(ValueError):
            factor_to_variable(store, "f", "x")


class TestRun:
    def test_single_variable_marginal(self):
        g = graph_of(
            [VariableDecl("x", 2)], [FactorTable("f", ("x",), np.array([0.25, 0.75]))]
        )
        marginals, _ = run(g, SUM_PRODUCT, root="x")
        assert plain(marginals["x"]) == [0.25, 0.75]
        assert total_sum(marginals["x"]) == 1.0

    def test_chain_identity_factor(self):
        g = graph_of(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [
                FactorTable("fa", ("x1",), np.array([0.5, 0.5])),
                FactorTable("fb", ("x1", "x2"), np.array([1.0, 0.0, 0.0, 1.0])),
            ],
        )
        marginals, _ = run(g, SUM_PRODUCT, root="x2")
        assert plain(marginals["x2"]) == [0.5, 0.5]

    def test_star_tree_all_ones_root_marginal(self):
        # 2^4 assignments of the other four variables per root value
        marginals, _ = run(star_tree(), SUM_PRODUCT, root="x3")
        assert plain(marginals["x3"]) == [16.0, 16.0]

    def test_two_pass_message_count(self):
        g = star_tree()
        _, messages = run(g, SUM_PRODUCT, two_pass=True)
        got = spread(g, messages)
        assert messages.count == len(got.q) + len(got.r) == 2 * g.n_edges == 18

    def test_two_pass_marginals_all_match_oracle(self, rng):
        for _ in range(15):
            g, _ = random_tree(rng, max_vars=8)
            marginals, _ = run(g, SUM_PRODUCT, two_pass=True)
            for v in g.variables:
                expect = enumerate_marginal(g, v.id)
                got = plain(marginals[v.id])
                for a, b in zip(got, expect):
                    assert_close(a, float(b), what=f"marginal {v.id}")

    def test_max_product_total(self):
        g = chain3()
        marginals, _ = run(g, MAX_PRODUCT, root="x1")
        best = total_sum(marginals["x1"])
        from fginfer.oracle import max_product_value

        assert_close(best, max_product_value(g))

    def test_boolean_satisfiability(self):
        g = graph_of(
            [VariableDecl("x", 2)],
            [
                FactorTable("a", ("x",), np.array([1.0, 0.0])),
                FactorTable("b", ("x",), np.array([0.0, 1.0])),
            ],
        )
        marginals, _ = run(g, BOOLEAN, root="x")
        assert total_sum(marginals["x"]) == 0.0  # supports are disjoint

    def test_forest_components_each_get_roots(self):
        g = graph_of(
            [VariableDecl("a", 2), VariableDecl("b", 3)],
            [
                FactorTable("fa", ("a",), np.array([1.0, 2.0])),
                FactorTable("fb", ("b",), np.array([1.0, 1.0, 1.0])),
            ],
        )
        marginals, _ = run(g, SUM_PRODUCT)
        assert set(marginals) == {"a", "b"}
        z = total_sum(marginals["a"]) * total_sum(marginals["b"])
        assert z == 9.0

    def test_one_pass_missing_marginal_raises(self):
        # x3's marginal needs f23 -> x3, a message of the second pass
        g = chain3()
        _, messages = run(g, SUM_PRODUCT, root="x1")
        assert messages.count == g.n_edges
        with pytest.raises(MissingDependency, match="'f23' -> 'x3'"):
            messages.message(False, 2, 1)
        store = MessageStore(g, SUM_PRODUCT)
        got = spread(g, messages)
        store.r, store.r_scale = got.r, got.r_scale
        with pytest.raises(MissingDependency):
            marginal_at(store, "x3")

    def test_message_accessor_reads_the_buffer(self):
        # a read-only view of the run's one buffer, with its exponent
        g = chain3()
        marginals, messages = run(g, SUM_PRODUCT, root="x1", two_pass=True)
        msg, e = messages.message(False, 0, 0)
        assert msg.base is marginals["x1"].msg.base
        # f12 -> x1 sums [1, 2; 3, 4] against x2's [2, 2]: [6, 14]
        assert (msg.tolist(), e) == ([[0.75, 1.75]], 3)
        assert not msg.flags.writeable
        with pytest.raises(ValueError):
            msg[0, 0] = 0.0
        with pytest.raises(KeyError, match="scope"):
            messages.message(True, 2, 0)

    @pytest.mark.parametrize("fi", [-1, 2])
    def test_message_accessor_checks_the_factor(self, fi):
        # -1 once read the last factor's message, 2 raised a bare IndexError
        _, messages = run(chain3(), SUM_PRODUCT, two_pass=True)
        with pytest.raises(KeyError, match=f"factor {fi} is not in the graph"):
            messages.message(True, 1, fi)


class TestTotalSum:
    def test_probability_table(self):
        g = graph_of(
            [VariableDecl("x", 2)], [FactorTable("f", ("x",), np.array([0.25, 0.75]))]
        )
        marginals, _ = run(g, SUM_PRODUCT, root="x")
        assert total_sum(marginals["x"]) == 1.0

    def test_entropy_pairs(self):
        g = graph_of(
            [VariableDecl("x", 2)], [FactorTable("f", ("x",), np.array([0.5, 0.5]))]
        )
        marginals, _ = run(
            g, ENTROPY, root="x", tables=carriers(g, ENTROPY, [np.array([-1.0, -1.0])])
        )
        w = total_sum(marginals["x"])
        assert w == EntropyWeight(1.0, -1.0)

    def test_max_product(self):
        g = graph_of(
            [VariableDecl("x", 2)], [FactorTable("f", ("x",), np.array([0.2, 0.7]))]
        )
        marginals, _ = run(g, MAX_PRODUCT, root="x")
        assert total_sum(marginals["x"]) == 0.7

    def test_rescaled_total_is_plain_total(self, rng):
        # total_sum folds 2^E back with ldexp: tables times 2^j give the
        # same total times 2^(sum of the j), bit for bit, while in range
        scaled_any = False
        for _ in range(100):
            g, companions = random_tree(rng, max_vars=12)
            js = rng.integers(-30, 31, len(g.factors))
            for s in (SUM_PRODUCT, MAX_PRODUCT, ENTROPY):
                base, _ = run(g, s, tables=carriers(g, s, companions))
                moved, _ = run(shifted(g, js), s, tables=carriers(shifted(g, js), s, companions))
                for vid, m in base.items():
                    total = total_sum(m)
                    assert bits(total) == bits(np.ldexp(s.reduce_msg(m.msg), m.exponent))
                    assert bits(total_sum(moved[vid])) == bits(np.ldexp(total, js.sum()))
                    scaled_any |= m.exponent != 0
        assert scaled_any

    def test_past_float_range_is_inf(self):
        marginals, _ = run(heap_tree(), SUM_PRODUCT, root="x0")
        m = marginals["x0"]
        assert math.isfinite(SUM_PRODUCT.reduce_msg(m.msg))
        assert total_sum(m) == math.inf

    def test_unrescaled_overflow_stays_inf(self):
        # log2 Z = 600 + 600 log2 3 + 1199 log2 1.5, about 2252.4: the
        # total folded back to a plain float overflows to inf, while the
        # mantissas stay finite, and so does every message, so a zero that
        # pads a contraction never meets an infinite one
        g = heap_tree(cards=(2, 3))
        marginals, store = run_spread(g, SUM_PRODUCT, two_pass=True)
        m = marginals["x0"]
        assert m.exponent == 2251
        assert math.isfinite(SUM_PRODUCT.reduce_msg(m.msg))
        assert total_sum(m) == math.inf
        for msgs in (store.q, store.r):
            assert all(np.isfinite(m).all() for m in msgs.values())


def shifted(g, js):
    """g with the table of factor i times 2^js[i]."""
    return FactorGraph(g.variables, [FactorTable(f.id, f.scope, np.ldexp(f.values, int(j)))
                                     for f, j in zip(g.factors, js)])


def sending_side(g, to_factor: bool, vi: int, fi: int) -> list:
    """The factors on the sending side of the message between variable vi
    and factor fi, found by a walk of the tree that never crosses that
    edge; the sending factor itself is one of them."""
    factor_vars, var_factors = adjacency(g)
    start = ("v", vi) if to_factor else ("f", fi)
    seen, todo = {("v", vi), ("f", fi)}, [start]
    found = [] if to_factor else [fi]
    while todo:
        kind, n = todo.pop()
        nbrs = ([("f", f) for f in var_factors[n]] if kind == "v"
                else [("v", v) for v in factor_vars[n]])
        for nb in nbrs:
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
                if nb[0] == "f":
                    found.append(nb[1])
    return found


def small_integer_tree(rng):
    """A random tree of at most 6 variables, cardinality at most 3, whose
    tables are integers 0..3: every sum and product of a pass and of the
    enumeration oracle is exact in float arithmetic."""
    g, _ = random_tree(rng, max_vars=6, max_card=3)
    return FactorGraph(g.variables, [
        FactorTable(f.id, f.scope, rng.integers(0, 4, f.values.size).astype(float))
        for f in g.factors])


class TestInvariants:
    def test_power_of_two_rescaling_is_exact(self, rng):
        # metamorphic: multiplying the table of factor i by 2^j_i leaves every
        # message, marginal and (Z, H) mantissa unchanged bit for bit, and
        # adds to each exponent the j of the factors behind it (Boolean
        # messages never scale; all-zero ones carry no scale). On trees of
        # small integers, where float arithmetic is exact, mantissa times
        # 2^E is also the enumeration oracle's value bit for bit.
        for trial in range(40):
            exact = trial % 2 == 0
            g = small_integer_tree(rng) if exact else with_zeros(rng, random_forest(rng)[0])
            js = rng.integers(-200, 201, len(g.factors))
            moved_g = shifted(g, js)
            cases = [(s, None) for s in (SUM_PRODUCT, MAX_PRODUCT, BOOLEAN)]
            for k in (1, 2, 3):
                comps = [rng.integers(-3, 4, (k, f.values.size)).astype(float)
                         for f in g.factors]
                cases.append((ENTROPY, np.concatenate(comps, axis=1) if k > 1
                              else [c[0] for c in comps]))
            for s, comps in cases:
                def shift(factors):
                    return 0 if s is BOOLEAN else int(js[factors].sum())

                tables = carriers(g, s, comps)
                moved_tables = carriers(moved_g, s, comps)
                base, store = run_spread(g, s, two_pass=True, tables=tables)
                moved, moved_store = run_spread(moved_g, s, two_pass=True, tables=moved_tables)
                for kind, to_factor in (("q", True), ("r", False)):
                    for key, msg in getattr(store, kind).items():
                        vi, fi = key if to_factor else key[::-1]
                        assert bits(getattr(moved_store, kind)[key]) == bits(msg)
                        e = getattr(store, kind + "_scale")[key]
                        moved_e = getattr(moved_store, kind + "_scale")[key]
                        if msg.any():
                            assert moved_e - e == shift(sending_side(g, to_factor, vi, fi))
                for vid, m in base.items():
                    vi = g.variable_position(vid)
                    assert bits(moved[vid].msg) == bits(m.msg)
                    assert m.log_scale == m.exponent * math.log(2.0)
                    if m.msg.any():
                        behind = [f for fi in adjacency(g)[1][vi]
                                  for f in sending_side(g, False, vi, fi)]
                        assert moved[vid].exponent - m.exponent == shift(behind)
                    if exact and s is SUM_PRODUCT:
                        assert bits(plain(m)) == bits(enumerate_marginal(g, vid))
                # (Z, H): the product of the component totals of a one-pass run
                total, e = product_of_totals(s, run(g, s, tables=tables)[0])
                moved_total, moved_e = product_of_totals(s, run(moved_g, s, tables=moved_tables)[0])
                assert bits(moved_total) == bits(total)
                if total[0]:
                    assert moved_e - e == shift(slice(None))
                if exact and s is ENTROPY:
                    columns = np.atleast_2d(WeightedGraph(g, comps).companions)
                    oracle = [enumerate_z(g)] + [enumerate_h(g, per_factor(g, col))
                                                 for col in columns]
                    assert bits(np.ldexp(total, e)) == bits(oracle)
                elif exact:
                    oracle = {SUM_PRODUCT: enumerate_z, MAX_PRODUCT: max_product_value,
                              BOOLEAN: boolean_satisfiable}[s](g)
                    assert bits(np.ldexp(total, e)) == bits([oracle])
                if s is ENTROPY:
                    zh = compute_zh(WeightedGraph(g, comps))
                    assert ([zh.Z, *np.atleast_1d(zh.H)], zh.exponent) == fold_exponent(total, e)

    def test_root_independence(self, rng):
        for _ in range(10):
            g, companions = random_tree(rng, max_vars=8)
            z_ref = h_ref = None
            for v in g.variables:
                marginals, _ = run(g, ENTROPY, root=v.id,
                                   tables=carriers(g, ENTROPY, companions))
                w = total_sum(marginals[v.id])
                # forests: fold the other components in
                for other, marg in marginals.items():
                    if other != v.id:
                        w = ENTROPY.mul(w, total_sum(marg))
                if z_ref is None:
                    z_ref, h_ref = w.score, w.aux
                else:
                    assert_close(w.score, z_ref, what="Z across roots")
                    assert_close(w.aux, h_ref, what="H across roots")

    def test_oracle_equivalence_sum_product(self, rng):
        for _ in range(20):
            g, _ = random_tree(rng)
            marginals, _ = run(g, SUM_PRODUCT)
            z = 1.0
            for marg in marginals.values():
                z *= total_sum(marg)
            assert_close(z, enumerate_z(g), what="Z")

    def test_rescaling_invariance(self, rng):
        for _ in range(10):
            g, companions = random_tree(rng, max_vars=8)
            scaled, _ = run(g, ENTROPY, tables=carriers(g, ENTROPY, companions))
            # recombine the mantissas and their log scales
            z_scaled, h_scaled, log_scale = 1.0, 0.0, 0.0
            for marg in scaled.values():
                w = ENTROPY.reduce_msg(marg.msg)
                z_scaled, h_scaled = (
                    z_scaled * w.score,
                    z_scaled * w.aux + w.score * h_scaled,
                )
                log_scale += marg.log_scale
            z, h = enumerate_z(g), enumerate_h(g, companions)
            assert_close(z_scaled * math.exp(log_scale), z, tol=1e-6, what="Z")
            assert_close(h_scaled / z_scaled, h / z, what="H/Z")

    def test_first_component_shadowing(self, rng):
        for _ in range(10):
            g, companions = random_tree(rng, max_vars=8)
            _, sp = run_spread(g, SUM_PRODUCT, two_pass=True)
            _, en = run_spread(g, ENTROPY, two_pass=True, tables=carriers(g, ENTROPY, companions))
            assert set(sp.q) == set(en.q) and set(sp.r) == set(en.r)
            for key, msg in sp.q.items():
                for a, b in zip(msg[0], en.q[key][0]):
                    assert ulps_apart(a, b) <= 1.0
            for key, msg in sp.r.items():
                for a, b in zip(msg[0], en.r[key][0]):
                    assert ulps_apart(a, b) <= 1.0


def with_zeros(rng, g):
    """The same graph with about one table entry in five set to zero."""
    factors = [
        FactorTable(f.id, f.scope, np.where(rng.random(f.values.size) < 0.2, 0.0, f.values))
        for f in g.factors
    ]
    return FactorGraph(g.variables, factors)


def aux_row(msg, c: int) -> list:
    """Column c's aux of an entropy message, as bit patterns."""
    return bits(msg[1 + c])


class TestWidthK:
    """(k, total) companions: k aux columns in one pass."""

    def test_columns_equal_width_one_passes(self, rng):
        # every message, marginal and (Z, H) of the width-k pass equals, in
        # column c, the width-1 pass with column c's companions, bit for bit
        for trial in range(40):
            g = with_zeros(rng, random_forest(rng)[0])
            k = 1 + trial % 5
            cols = [[rng.uniform(-3.0, 3.0, f.values.size) for f in g.factors]
                    for _ in range(k)]
            # a factor without companion is zero in every column
            plain = [fi for fi in range(len(g.factors)) if rng.random() < 0.2]
            for c in range(k):
                for fi in plain:
                    cols[c][fi] = None
            columns = np.concatenate([
                np.zeros((k, f.values.size)) if fi in plain else
                np.vstack([cols[c][fi] for c in range(k)]) for fi, f in enumerate(g.factors)],
                axis=1)
            wide, wide_store = run_spread(g, ENTROPY, two_pass=True,
                                          tables=carriers(g, ENTROPY, columns))
            wide_zh = compute_zh(WeightedGraph(g, columns))
            assert wide_zh.H.shape == (k,)
            for c in range(k):
                one, one_store = run_spread(g, ENTROPY, two_pass=True,
                                            tables=carriers(g, ENTROPY, cols[c]))
                for kind in ("q", "r"):
                    msgs = getattr(one_store, kind)
                    assert set(msgs) == set(getattr(wide_store, kind))
                    for key, m in msgs.items():
                        w = getattr(wide_store, kind)[key]
                        assert bits(ENTROPY.scores(w)) == bits(m[0])
                        assert aux_row(w, c) == bits(m[1])
                assert one_store.q_scale == wide_store.q_scale
                assert one_store.r_scale == wide_store.r_scale
                for vid, m in one.items():
                    assert wide[vid].exponent == m.exponent
                    assert aux_row(wide[vid].msg, c) == bits(m.msg[1])
                # compute_zh folds 2^E back in; each column's total alone
                zh = compute_zh(WeightedGraph(g, cols[c]))
                assert (bits(np.ldexp([wide_zh.Z, wide_zh.H[c]], wide_zh.exponent))
                        == bits(np.ldexp([zh.Z, zh.H], zh.exponent)))

    def test_scores_shadow_sum_product(self, rng):
        # criterion 05 for k > 1: the score rows are the sum-product messages
        for trial in range(20):
            g, _ = random_forest(rng)
            k = 2 + trial % 4
            columns = np.concatenate([rng.uniform(-3.0, 3.0, (k, f.values.size))
                                      for f in g.factors], axis=1)
            _, plain = run_spread(g, SUM_PRODUCT, two_pass=True)
            _, lifted = run_spread(g, ENTROPY, two_pass=True,
                                   tables=WeightedGraph(g, columns).carrier_tables(ENTROPY))
            for kind in ("q", "r"):
                for key, msg in getattr(plain, kind).items():
                    scores = getattr(lifted, kind)[key][0]
                    for a, b in zip(msg[0], scores):
                        assert ulps_apart(a, b) <= 1.0

    def test_aux_columns_match_enumeration(self, rng):
        # H_c = sum_x prod_m f_m(x_m) * sum_m g_cm(x_m), against the oracle
        from fginfer.oracle import enumerate_h

        for _ in range(10):
            g, _ = random_tree(rng, max_vars=6)
            columns = [rng.uniform(-3.0, 3.0, (3, f.values.size)) for f in g.factors]
            res = compute_zh(WeightedGraph(g, np.concatenate(columns, axis=1)))
            for c in range(3):
                assert_close(res.H[c], enumerate_h(g, [t[c] for t in columns]), what="H_c")


def assert_run_matches_steps(g, s, root, two_pass, tables):
    marginals, messages = run(g, s, root=root, two_pass=two_pass, tables=tables)
    store = spread(g, messages)
    assert messages.count == len(store.q) + len(store.r)
    ref = step_reference(g, s, root, two_pass, tables)
    for kind in ("q", "r"):
        msgs, want = getattr(store, kind), getattr(ref, kind)
        assert set(msgs) == set(want)
        for key, msg in msgs.items():
            assert msg.shape == want[key].shape
            assert bits(msg) == bits(want[key])
        assert getattr(store, kind + "_scale") == getattr(ref, kind + "_scale")
    for vid, m in marginals.items():
        expect = marginal_at(ref, vid)
        assert bits(m.msg) == bits(expect.msg) and m.exponent == expect.exponent


class TestLevelPlan:
    """run compiles a level plan; every message it computes, read through
    its accessor, equals the per-edge step API's, bit for bit."""

    def test_plan_matches_step_api(self, rng):
        for trial in range(30):
            g, _ = random_forest(rng)
            g = with_zeros(rng, g)
            root = None if trial % 2 else g.variables[int(rng.integers(len(g.variables)))].id
            cases = [(s, None) for s in (SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY)]
            for k in (1, 2, 3):
                comps = [rng.uniform(-3.0, 3.0, (k, f.values.size)) for f in g.factors]
                cases.append((ENTROPY, np.concatenate(comps, axis=1) if k > 1
                              else [c[0] for c in comps]))
            for s, comps in cases:
                tables = carriers(g, s, comps)
                for two_pass in (False, True):
                    assert_run_matches_steps(g, s, root, two_pass, tables)

    def test_deepest_plan_matches_step_api(self, rng):
        # a chain: one message per level, 3000 levels per pass
        n = 3000
        variables = [VariableDecl(f"x{i}", 2) for i in range(n)]
        factors = [FactorTable("u", ("x0",), rng.uniform(0.05, 2.0, 2))] + [
            FactorTable(f"f{i}", (f"x{i - 1}", f"x{i}"), rng.uniform(0.05, 2.0, 4))
            for i in range(1, n)
        ]
        g = FactorGraph(variables, factors)
        comps = [rng.uniform(-3.0, 3.0, f.values.size) for f in factors]
        assert_run_matches_steps(g, ENTROPY, "x1500", True, carriers(g, ENTROPY, comps))

    def test_plan_is_cached_with_the_graph(self):
        g = star_tree()
        run(g, SUM_PRODUCT, two_pass=True)
        plans = dict(g.plans)
        run(g, ENTROPY)
        run(g, MAX_PRODUCT, root="x1")
        assert g.plans == plans
        run(g, SUM_PRODUCT, root="x3")
        assert len(g.plans) == 2

    def test_one_pass_on_a_cached_two_pass_plan(self, rng):
        # a one-pass run that a cached two-pass plan serves returns the
        # marginals and messages of a freshly compiled one-pass plan, bit
        # for bit
        for trial in range(12):
            g = with_zeros(rng, random_forest(rng)[0])
            fresh = FactorGraph(g.variables, g.factors)
            root = None if trial % 2 else g.variables[int(rng.integers(len(g.variables)))].id
            key = g.variable_position(root) if root else 0
            run(g, SUM_PRODUCT, root=root, two_pass=True)
            comps = np.concatenate([rng.uniform(-3.0, 3.0, (2, f.values.size))
                                    for f in g.factors], axis=1)
            for s, c in ((SUM_PRODUCT, None), (MAX_PRODUCT, None), (BOOLEAN, None),
                         (ENTROPY, comps)):
                tables = carriers(g, s, c)
                cached, cached_msgs = run_spread(g, s, root=root, tables=tables)
                compiled, compiled_msgs = run_spread(fresh, s, root=root, tables=tables)
                assert list(g.plans) == [(key, True)] and list(fresh.plans) == [(key, False)]
                assert list(cached) == list(compiled)
                for vid, m in compiled.items():
                    assert bits(cached[vid].msg) == bits(m.msg)
                    assert cached[vid].exponent == m.exponent
                for kind in cached_msgs._fields:
                    got, want = getattr(cached_msgs, kind), getattr(compiled_msgs, kind)
                    assert list(got) == list(want)
                    assert all(bits(got[k]) == bits(want[k]) for k in want)

    def test_one_group_per_level(self, rng):
        # a complete binary tree with a unary factor on every variable:
        # each group holds the messages of one sender depth, deepest first
        # in the first pass and shallowest first in the second, and every
        # depth that computes a message has its group (2h per pass)
        h = 4
        tree = heap_tree(2 ** (h + 1) - 1)
        unary = [FactorTable(f"u{i}", (v.id,), rng.uniform(0.05, 2.0, 2))
                 for i, v in enumerate(tree.variables)]
        g = FactorGraph(tree.variables, tree.factors + unary)
        plan = level_plan(g, two_pass=True)
        depth = make_schedule(g, two_pass=True).depth
        n_var = len(g.variables)
        for p, groups in enumerate(plan.passes):
            rows = plan.edges[p * plan.n_up:(p + 1) * plan.n_up]
            senders = []
            for group in groups:
                products = group.terms is None
                to_factor, vi, fi, slot = rows[(rows[:, 0] == products)
                                               & (rows[:, 3] >= group.slots.start)
                                               & (rows[:, 3] < group.slots.stop)].T
                assert len(slot) == group.slots.stop - group.slots.start
                depths = set(depth[vi] if products else depth[n_var + fi])
                assert len(depths) == 1
                senders += depths
            assert senders == sorted(set(senders), reverse=p == 0)
            assert len(senders) == 2 * h
        assert_run_matches_steps(g, ENTROPY, None, True, carriers(g, ENTROPY, None))

    def test_hub_variable_matches_step_api(self, rng):
        # a variable of degree 401: its messages read 400 inputs each, the
        # ragged case random forests never reach
        leaves = 400
        variables = [VariableDecl("hub", 3)] + [
            VariableDecl(f"y{i}", 2 + i % 2) for i in range(leaves)]
        factors = [FactorTable("u", ("hub",), rng.uniform(0.05, 2.0, 3))] + [
            FactorTable(f"f{i}", (v.id, "hub") if i % 2 else ("hub", v.id),
                        rng.uniform(0.5, 1.5, 3 * v.cardinality))
            for i, v in enumerate(variables[1:])
        ]
        g = FactorGraph(variables, factors)
        assert_run_matches_steps(g, SUM_PRODUCT, "y7", True, carriers(g, SUM_PRODUCT, None))

    def test_root_in_a_later_component(self, rng):
        # the given root's component is reached first; the other
        # components follow from their first declared variable
        parts = [random_tree(rng, max_vars=8)[0] for _ in range(3)]
        variables = [VariableDecl(f"t{k}{v.id}", v.cardinality)
                     for k, part in enumerate(parts) for v in part.variables]
        factors = [FactorTable(f"t{k}{f.id}", tuple(f"t{k}{n}" for n in f.scope), f.values)
                   for k, part in enumerate(parts) for f in part.factors]
        g = FactorGraph(variables, factors)
        root = f"t2{parts[2].variables[-1].id}"
        marginals, _ = run(g, SUM_PRODUCT, root=root)
        assert list(marginals) == [root, "t0x0", "t1x0"]
        for two_pass in (False, True):
            assert_run_matches_steps(g, ENTROPY, root, two_pass, carriers(g, ENTROPY, None))


def test_public_names_resolve():
    # every exported name exists; the per-edge step API lives in the tests
    import fginfer
    import fginfer.propagation

    assert len(set(fginfer.__all__)) == len(fginfer.__all__)
    for name in fginfer.__all__:
        assert getattr(fginfer, name) is not None
    for name in ("MessageStore", "variable_to_factor", "factor_to_variable",
                 "init_leaf_messages", "marginal_at", "_send_v2f", "_send_f2v",
                 "_factor_position"):
        assert name not in fginfer.__all__
        assert not hasattr(fginfer, name) and not hasattr(fginfer.propagation, name)
