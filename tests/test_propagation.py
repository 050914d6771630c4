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
from fginfer.entropy import first_component_scores
from fginfer.oracle import enumerate_marginal, enumerate_z

from conftest import assert_close, bits, heap_tree, random_tree, ulps_apart


def graph_of(variables, factors):
    return FactorGraph(variables, factors)


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
        assert store.r[(0, 0)] == [0.3, 0.7]

    def test_leaf_variable_sends_ones(self):
        g = graph_of(
            [VariableDecl("x", 3), VariableDecl("y", 3)],
            [FactorTable("f", ("x", "y"), np.ones(9))],
        )
        store = init_leaf_messages(MessageStore(g, SUM_PRODUCT))
        assert store.q[(0, 0)] == [1.0, 1.0, 1.0]
        assert store.q[(1, 0)] == [1.0, 1.0, 1.0]

    def test_entropy_leaf_factor_is_lifted(self):
        g = graph_of(
            [VariableDecl("x", 2), VariableDecl("y", 2)],
            [
                FactorTable("f", ("x",), np.array([0.5, 0.5])),
                FactorTable("fxy", ("x", "y"), np.ones(4)),
            ],
        )
        store = init_leaf_messages(
            MessageStore(g, ENTROPY, companions=[np.array([-1.0, -1.0]), None])
        )
        scores, aux = store.r[(0, 0)]
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
        assert q == [8.0, 15.0]

    def test_variable_to_factor_empty_product_is_ones(self):
        g = graph_of(
            [VariableDecl("x", 2), VariableDecl("y", 2)],
            [FactorTable("f", ("x", "y"), np.ones(4))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        assert variable_to_factor(store, "x", "f") == [1.0, 1.0]

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
        store.r[(0, 0)] = ([1.0], [1.0])
        store.r[(1, 0)] = ([2.0], [0.0])
        scores, aux = variable_to_factor(store, "x", "c")
        assert (scores[0], aux[0]) == (2.0, 2.0)

    def test_factor_to_variable_row_sums(self):
        g = graph_of(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [FactorTable("f", ("x1", "x2"), np.array([1.0, 2.0, 3.0, 4.0]))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        store.q[(1, 0)] = [1.0, 1.0]
        r = factor_to_variable(store, "f", "x1")
        assert r == [3.0, 7.0]

    def test_factor_to_variable_boolean_or(self):
        g = graph_of(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [FactorTable("f", ("x1", "x2"), np.array([0.0, 1.0, 1.0, 1.0]))],
        )
        store = MessageStore(g, BOOLEAN)
        store.q[(1, 0)] = [1.0, 1.0]
        assert factor_to_variable(store, "f", "x1") == [1.0, 1.0]

    def test_unary_factor_message_is_lifted_table(self):
        g = graph_of(
            [VariableDecl("x", 2)],
            [FactorTable("f", ("x",), np.array([0.25, 0.75]))],
        )
        store = MessageStore(g, SUM_PRODUCT)
        assert factor_to_variable(store, "f", "x") == [0.25, 0.75]

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
            g, ENTROPY, root="x", companions=[np.array([-1.0, -1.0])]
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
                plain, _ = run(g, s, companions=companions)
                scaled, _ = run(g, s, companions=companions, rescale=True)
                for vid, m in scaled.items():
                    assert bits(total_sum(m)) == bits(total_sum(plain[vid]))
                    scaled_any |= m.exponent != 0
        assert scaled_any

    def test_past_float_range_is_inf(self):
        marginals, _ = run(heap_tree(), SUM_PRODUCT, root="x0", rescale=True)
        m = marginals["x0"]
        assert math.isfinite(total_sum(m, apply_scale=False))
        assert total_sum(m) == math.inf


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
        # every rescaled marginal, and compute_zh's (Z, H), times 2^E is the
        # plain run's bit for bit
        def parts(s, msg):
            return [list(p) for p in (msg if s is ENTROPY else (msg,))]

        scaled_any = False
        for _ in range(60):
            g, companions = random_forest(rng)
            for s in (SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY):
                plain, _ = run(g, s, two_pass=True, companions=companions)
                scaled, _ = run(g, s, two_pass=True, companions=companions, rescale=True)
                for vid, m in scaled.items():
                    shifted = [[math.ldexp(x, m.exponent) for x in p] for p in parts(s, m.msg)]
                    assert shifted == parts(s, plain[vid].msg)
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
                marginals, _ = run(g, ENTROPY, root=v.id, companions=companions)
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
            plain, _ = run(g, ENTROPY, companions=companions)
            scaled, _ = run(g, ENTROPY, companions=companions, rescale=True)
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
                            companions=companions)
                assert set(sp.q) == set(en.q) and set(sp.r) == set(en.r)
                for key, msg in sp.q.items():
                    shadow = first_component_scores(en, "q", key)
                    for a, b in zip(msg, shadow):
                        assert ulps_apart(a, b) <= 1.0
                for key, msg in sp.r.items():
                    shadow = first_component_scores(en, "r", key)
                    for a, b in zip(msg, shadow):
                        assert ulps_apart(a, b) <= 1.0


def with_zeros(rng, g):
    """The same graph with about one table entry in five set to zero."""
    factors = [
        FactorTable(f.id, f.scope, np.where(rng.random(f.values.size) < 0.2, 0.0, f.values))
        for f in g.factors
    ]
    return FactorGraph(g.variables, factors)


def aux_row(msg, c: int) -> list:
    """Column c's aux of an entropy message of any width; a width-1 pair
    (a leaf's all-ones message) holds the same aux for every column."""
    rows = np.array(msg, dtype=float) if isinstance(msg, tuple) else msg
    return bits(rows[min(1 + c, len(rows) - 1)])


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
                                       companions=stacked)
                wide_zh = compute_zh(WeightedGraph(g, stacked), rescale=rescale)
                assert wide_zh.H.shape == (k,)
                for c in range(k):
                    one, one_store = run(g, ENTROPY, two_pass=True, rescale=rescale,
                                         companions=cols[c])
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
                    scores = first_component_scores(lifted, kind, key)
                    for a, b in zip(msg, scores):
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

