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
    MessageStore,
    MissingDependency,
    VariableDecl,
    WeightedGraph,
    compute_zh,
    factor_to_variable,
    init_leaf_messages,
    make_schedule,
    marginal_at,
    run,
    total_sum,
    variable_to_factor,
)
from fginfer.oracle import enumerate_marginal, enumerate_z

from conftest import assert_close, bits, heap_tree, random_tree, ulps_apart


def graph_of(variables, factors):
    return FactorGraph(variables, factors)


def carriers(g, s, companions):
    """The lifted carrier tables of g with companions, for ``tables=``."""
    return WeightedGraph(g, companions).carrier_tables(s)


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
        assert store.r[(0, 0)].tolist() == [[0.3, 0.7]]

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
        assert scores == [0.5, 0.5]
        assert aux == [-0.5, -0.5]


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
        assert q.tolist() == [[8.0, 15.0]]

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
        assert (scores[0], aux[0]) == (2.0, 2.0)

    def test_factor_to_variable_row_sums(self):
        g = graph_of(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [FactorTable("f", ("x1", "x2"), np.array([1.0, 2.0, 3.0, 4.0]))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        store.q[(1, 0)] = np.array([[1.0, 1.0]])
        r = factor_to_variable(store, "f", "x1")
        assert r.tolist() == [[3.0, 7.0]]

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
        assert factor_to_variable(store, "f", "x").tolist() == [[0.25, 0.75]]

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
        assert marginals["x"].scores() == [0.25, 0.75]
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
        assert marginals["x2"].scores() == [0.5, 0.5]

    def test_star_tree_all_ones_root_marginal(self):
        # 2^4 assignments of the other four variables per root value
        marginals, _ = run(star_tree(), SUM_PRODUCT, root="x3")
        assert marginals["x3"].scores() == [16.0, 16.0]

    def test_two_pass_message_count(self):
        g = star_tree()
        _, store = run(g, SUM_PRODUCT, two_pass=True)
        assert store.message_count() == 2 * g.n_edges == 18

    def test_two_pass_marginals_all_match_oracle(self, rng):
        for _ in range(15):
            g, _ = random_tree(rng, max_vars=8)
            marginals, _ = run(g, SUM_PRODUCT, two_pass=True)
            for v in g.variables:
                expect = enumerate_marginal(g, v.id)
                got = marginals[v.id].scores()
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
        g = chain3()
        _, store = run(g, SUM_PRODUCT, root="x1")
        with pytest.raises(MissingDependency):
            marginal_at(store, "x3")


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
        # total_sum folds 2^E back with ldexp, so a rescaled run's total is
        # the plain run's, bit for bit
        scaled_any = False
        for _ in range(100):
            g, companions = random_forest(rng)
            for s in (SUM_PRODUCT, MAX_PRODUCT, ENTROPY):
                tables = carriers(g, s, companions)
                plain, _ = run(g, s, tables=tables)
                scaled, _ = run(g, s, tables=tables, rescale=True)
                for vid, m in scaled.items():
                    assert bits(total_sum(m)) == bits(total_sum(plain[vid]))
                    scaled_any |= m.exponent != 0
        assert scaled_any

    def test_past_float_range_is_inf(self):
        marginals, _ = run(heap_tree(), SUM_PRODUCT, root="x0", rescale=True)
        m = marginals["x0"]
        assert math.isfinite(total_sum(m, apply_scale=False))
        assert total_sum(m) == math.inf

    def test_unrescaled_overflow_stays_inf(self):
        # log2 Z = 600 + 600 log2 3 + 1199 log2 1.5, about 2252.4; a zero
        # that pads a contraction must never meet an infinite message
        g = heap_tree(cards=(2, 3))
        marginals, store = run(g, SUM_PRODUCT, two_pass=True)
        assert marginals["x0"].scores() == [math.inf, math.inf]
        assert total_sum(marginals["x0"]) == math.inf
        for msgs in (store.q, store.r):
            assert not any(np.isnan(m).any() for m in msgs.values())
        scaled, _ = run(g, SUM_PRODUCT, two_pass=True, rescale=True)
        assert scaled["x0"].exponent == 2251


def random_forest(rng, max_trees=3):
    """The disjoint union of one to max_trees random trees, with their
    companion tables."""
    variables, factors, companions = [], [], []
    for k in range(int(rng.integers(1, max_trees + 1))):
        g, comp = random_tree(rng, max_vars=12)
        variables += [VariableDecl(f"t{k}{v.id}", v.cardinality) for v in g.variables]
        factors += [
            FactorTable(f"t{k}{f.id}", tuple(f"t{k}{n}" for n in f.scope), f.values)
            for f in g.factors
        ]
        companions += comp
    return FactorGraph(variables, factors), companions


class TestInvariants:
    def test_power_of_two_rescaling_is_exact(self, rng):
        # every rescaled message and marginal, and compute_zh's (Z, H), times
        # 2^E is the plain run's bit for bit
        scaled_any = False
        for _ in range(60):
            g, companions = random_forest(rng)
            for s in (SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY):
                tables = carriers(g, s, companions)
                plain, plain_store = run(g, s, two_pass=True, tables=tables)
                scaled, store = run(g, s, two_pass=True, tables=tables, rescale=True)
                for kind in ("q", "r"):
                    scales = getattr(store, kind + "_scale")
                    for key, msg in getattr(store, kind).items():
                        shifted = np.ldexp(msg, scales[key])
                        assert bits(shifted) == bits(getattr(plain_store, kind)[key])
                for vid, m in scaled.items():
                    assert bits(np.ldexp(m.msg, m.exponent)) == bits(plain[vid].msg)
                    assert m.log_scale == m.exponent * math.log(2.0)
                    assert s is not BOOLEAN or m.exponent == 0
                    scaled_any |= m.exponent != 0
            wg = WeightedGraph(g, companions)
            plain, scaled = compute_zh(wg), compute_zh(wg, rescale=True)
            assert math.ldexp(scaled.Z, scaled.exponent) == plain.Z
            assert math.ldexp(scaled.H, scaled.exponent) == plain.H
        assert scaled_any

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
            tables = carriers(g, ENTROPY, companions)
            plain, _ = run(g, ENTROPY, tables=tables)
            scaled, _ = run(g, ENTROPY, tables=tables, rescale=True)
            z_plain, h_plain = 1.0, 0.0
            for marg in plain.values():
                w = total_sum(marg)
                z_plain, h_plain = z_plain * w.score, z_plain * w.aux + w.score * h_plain
            # recombine the rescaled run via its log accumulators
            z_scaled, h_scaled, log_scale = 1.0, 0.0, 0.0
            for marg in scaled.values():
                w = total_sum(marg, apply_scale=False)
                z_scaled, h_scaled = (
                    z_scaled * w.score,
                    z_scaled * w.aux + w.score * h_scaled,
                )
                log_scale += marg.log_scale
            assert_close(z_scaled * math.exp(log_scale), z_plain, tol=1e-6, what="Z")
            if z_plain != 0.0:
                assert_close(h_scaled / z_scaled, h_plain / z_plain, what="H/Z")

    def test_first_component_shadowing(self, rng):
        for _ in range(10):
            g, companions = random_tree(rng, max_vars=8)
            for rescale in (False, True):
                _, sp = run(g, SUM_PRODUCT, two_pass=True, rescale=rescale)
                _, en = run(g, ENTROPY, two_pass=True, rescale=rescale,
                            tables=carriers(g, ENTROPY, companions))
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
    """(k, n) companions: k aux columns in one pass."""

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
            stacked = [None if fi in plain else np.vstack([cols[c][fi] for c in range(k)])
                       for fi in range(len(g.factors))]
            for rescale in (False, True):
                wide, wide_store = run(g, ENTROPY, two_pass=True, rescale=rescale,
                                       tables=carriers(g, ENTROPY, stacked))
                wide_zh = compute_zh(WeightedGraph(g, stacked), rescale=rescale)
                assert wide_zh.H.shape == (k,)
                for c in range(k):
                    one, one_store = run(g, ENTROPY, two_pass=True, rescale=rescale,
                                         tables=carriers(g, ENTROPY, cols[c]))
                    for kind in ("q", "r"):
                        msgs = getattr(one_store, kind)
                        assert set(msgs) == set(getattr(wide_store, kind))
                        for key, m in msgs.items():
                            w = getattr(wide_store, kind)[key]
                            assert bits(ENTROPY.scores(w)) == bits(m[0])
                            assert aux_row(w, c) == bits(m[1])
                    for vid, m in one.items():
                        assert wide[vid].exponent == m.exponent
                        assert aux_row(wide[vid].msg, c) == bits(m.msg[1])
                    zh = compute_zh(WeightedGraph(g, cols[c]), rescale=rescale)
                    assert bits([wide_zh.Z, wide_zh.H[c]]) == bits([zh.Z, zh.H])
                    assert wide_zh.exponent == zh.exponent

    def test_scores_shadow_sum_product(self, rng):
        # criterion 05 for k > 1: the score rows are the sum-product messages
        for trial in range(20):
            g, _ = random_forest(rng)
            k = 2 + trial % 4
            stacked = [rng.uniform(-3.0, 3.0, (k, f.values.size)) for f in g.factors]
            _, plain = run(g, SUM_PRODUCT, two_pass=True)
            _, lifted = run(g, ENTROPY, two_pass=True,
                            tables=WeightedGraph(g, stacked).carrier_tables(ENTROPY))
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
            stacked = [rng.uniform(-3.0, 3.0, (3, f.values.size)) for f in g.factors]
            res = compute_zh(WeightedGraph(g, stacked))
            for c in range(3):
                assert_close(res.H[c], enumerate_h(g, [t[c] for t in stacked]), what="H_c")

    def test_widths_must_agree(self):
        g = chain3()
        with pytest.raises(ValueError, match="column count"):
            WeightedGraph(g, [np.zeros((2, 4)), np.zeros((3, 4))])



def step_reference(g, s, root, two_pass, rescale, tables):
    """The store of the per-edge step API driven along make_schedule."""
    store = MessageStore(g, s, rescale=rescale, tables=tables)
    for to_factor, vi, fi in make_schedule(g, root=root, two_pass=two_pass).edges:
        v, f = g.variables[vi].id, g.factors[fi].id
        if to_factor:
            variable_to_factor(store, v, f)
        else:
            factor_to_variable(store, f, v)
    return store


def assert_run_matches_steps(g, s, root, two_pass, rescale, tables):
    marginals, store = run(g, s, root=root, two_pass=two_pass, rescale=rescale, tables=tables)
    ref = step_reference(g, s, root, two_pass, rescale, tables)
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
    """run compiles a level plan; every message it computes equals the
    per-edge step API's, bit for bit."""

    def test_plan_matches_step_api(self, rng):
        for trial in range(30):
            g, _ = random_forest(rng)
            g = with_zeros(rng, g)
            root = None if trial % 2 else g.variables[int(rng.integers(len(g.variables)))].id
            cases = [(s, None) for s in (SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY)]
            for k in (1, 2, 3):
                comps = [rng.uniform(-3.0, 3.0, (k, f.values.size)) for f in g.factors]
                cases.append((ENTROPY, comps if k > 1 else [c[0] for c in comps]))
            for s, comps in cases:
                tables = carriers(g, s, comps)
                for two_pass in (False, True):
                    for rescale in (False, True):
                        assert_run_matches_steps(g, s, root, two_pass, rescale, tables)

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
        assert_run_matches_steps(g, ENTROPY, "x1500", True, True, carriers(g, ENTROPY, comps))

    def test_plan_is_cached_with_the_graph(self):
        g = star_tree()
        run(g, SUM_PRODUCT, two_pass=True)
        plans = dict(g.plans)
        run(g, ENTROPY)
        run(g, MAX_PRODUCT, root="x1", rescale=True)
        assert g.plans == plans
        run(g, SUM_PRODUCT, root="x3")
        assert len(g.plans) == 2
