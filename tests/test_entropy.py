import math

import numpy as np
import pytest

from fginfer import (
    ENTROPY,
    EntropyResult,
    FactorGraph,
    FactorTable,
    HmmSpec,
    NonFiniteTotal,
    OutOfDomain,
    ScopeMismatch,
    VariableDecl,
    WeightedGraph,
    ZeroEvidence,
    compute_zh,
    derive_log2_companions,
    entropy_in_base,
    hmm_to_weighted_graph,
    posterior_entropy,
)
from fginfer.entropy import log2_or_zero
from fginfer.oracle import enumerate_entropy, enumerate_h, enumerate_z

from conftest import assert_close, bits, heap_tree, random_forest, random_tree, traced_peak


def unary_weighted(values, companions):
    """One factor over x; companions given as an array are the layout."""
    g = FactorGraph(
        [VariableDecl("x", len(values))],
        [FactorTable("f", ("x",), np.asarray(values, dtype=float))],
    )
    if not isinstance(companions, np.ndarray):
        companions = [None if companions is None else np.asarray(companions)]
    return WeightedGraph(g, companions)


class TestLiftGraph:
    def test_elementwise_lift(self):
        wg = unary_weighted([0.5, 0.5], [-1.0, -1.0])
        scores, aux = wg.carrier_tables(ENTROPY).tolist()
        assert scores == [0.5, 0.5]
        assert aux == [-0.5, -0.5]

    def test_zero_absorbs_undefined_companion(self):
        wg = unary_weighted([0.0, 1.0], [-math.inf, 0.0])
        scores, aux = wg.carrier_tables(ENTROPY).tolist()
        assert (scores[0], aux[0]) == (0.0, 0.0)
        assert (scores[1], aux[1]) == (1.0, 0.0)

    def test_two_unary_factors_product(self):
        # hand product on a cardinality-2 domain: totals multiply pairwise
        g = FactorGraph(
            [VariableDecl("x", 2)],
            [
                FactorTable("a", ("x",), np.array([0.5, 0.5])),
                FactorTable("b", ("x",), np.array([0.4, 0.6])),
            ],
        )
        wg = WeightedGraph(g, [np.array([1.0, 1.0]), np.array([2.0, 2.0])])
        res = compute_zh(wg)
        # per value: f = 0.2 / 0.3; aux = f*(g_a+g_b) = 0.6 / 0.9
        assert_close(res.Z, 0.5)
        assert_close(res.H, 1.5)

    def test_companion_length_mismatch(self):
        with pytest.raises(ScopeMismatch, match="factor 'f': companion table length 1"):
            unary_weighted([0.5, 0.5], [1.0])

    def test_wrong_companion_count_raises(self):
        # a list of Nones means no companions only at one entry per factor;
        # taken as none, [] gave 2.0 bits for [1, 3], whose entropy is 0.811
        g = FactorGraph([VariableDecl("x", 2)], [FactorTable("f", ("x",), [1.0, 3.0])])
        assert_close(posterior_entropy(WeightedGraph(g, [None])).entropy_bits, 2.0)
        assert_close(posterior_entropy(WeightedGraph(g, derive_log2_companions(g))).entropy_bits,
                     2.0 - 0.75 * math.log2(3.0))
        with pytest.raises(ScopeMismatch, match="^0 companion tables for 1 factors: factor 'f'"
                                                " has none$"):
            WeightedGraph(g, [])
        with pytest.raises(ScopeMismatch, match="^2 companion tables for 1 factors$"):
            WeightedGraph(g, [None, None])

    def test_nonfinite_companion_under_nonzero_value(self):
        with pytest.raises(ValueError):
            unary_weighted([0.5, 0.5], [math.nan, 0.0])

    def test_column_companions_checked_like_one_column(self):
        # undefined entries under a zero value are zeroed in every column
        wg = unary_weighted([0.0, 0.5], np.array([[math.nan, 1.0], [-math.inf, 2.0]]))
        assert wg.companions.tolist() == [[0.0, 1.0], [0.0, 2.0]]
        assert compute_zh(wg).H.tolist() == [0.5, 1.0]
        with pytest.raises(ValueError, match="finite"):
            unary_weighted([0.5, 0.5], np.array([[1.0, 1.0], [math.nan, 0.0]]))
        with pytest.raises(ScopeMismatch, match="length"):
            unary_weighted([0.5, 0.5], [[1.0, 1.0, 1.0]] * 2)

    def test_checks_name_the_factor_past_the_first(self):
        # the undefined entry under fa's zero is allowed; the first entry
        # of fb, the second of three factors, is not
        g = three_factors([0.0, 1.0])
        nan = math.nan
        with pytest.raises(ValueError, match="factor 'fb': companion must be finite"):
            WeightedGraph(g, [[nan, 0.0], [nan, 1.0, 1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="factor 'fb': companion must be finite"):
            WeightedGraph(g, np.array([[0.0] * 2 + [1.0] * 4 + [0.0] * 2,
                                       [0.0] * 2 + [math.inf, 1.0, 1.0, 1.0] + [0.0] * 2]))
        # undefined entries under zeros become 0 in their own factor only
        zeroed = three_factors([1.0, 1.0], fc=[2.0, 0.0])
        wg = WeightedGraph(zeroed, [[1.0, 2.0], [3.0] * 4, [-1.0, nan]])
        assert wg.companions.tolist() == [1.0, 2.0] + [3.0] * 4 + [-1.0, 0.0]

    def test_one_array_equals_the_per_factor_list(self, rng):
        # one (total,) array, taken as it is, gives the per-factor list's
        # companions and (Z, H) bit for bit; the same checks apply to it,
        # and it is left as it was
        for _ in range(20):
            g, companions = random_forest(rng)
            g = FactorGraph(g.variables, [
                FactorTable(f.id, f.scope, np.where(rng.random(f.values.size) < 0.2, 0.0,
                                                    f.values)) for f in g.factors])
            for f, c in zip(g.factors, companions):
                c[f.values == 0.0] = math.nan
            whole = np.concatenate(companions)
            kept = whole.copy()
            listed, arrayed = WeightedGraph(g, companions), WeightedGraph(g, whole)
            assert bits(whole) == bits(kept)
            assert bits(arrayed.companions) == bits(listed.companions)
            a, b = compute_zh(listed), compute_zh(arrayed)
            assert isinstance(a.H, float) and isinstance(b.H, float)
            assert (bits([a.Z, a.H]), a.exponent) == (bits([b.Z, b.H]), b.exponent)
            # one column as a (1, total) array: H is a length-1 array
            column = compute_zh(WeightedGraph(g, whole[None, :]))
            assert column.H.shape == (1,)
            assert (bits([column.Z, *column.H]), column.exponent) == (bits([a.Z, a.H]),
                                                                      a.exponent)
        g = three_factors([0.0, 1.0])
        with pytest.raises(ValueError, match="factor 'fb': companion must be finite"):
            WeightedGraph(g, np.array([[math.nan, 0.0] + [math.nan] + [1.0] * 5]))
        # a (k, total) array of the wrong length is not read as k tables
        with pytest.raises(ScopeMismatch, match=r"shape \(2, 7\), but the graph's layout is"
                                                r" \(2, 8\)"):
            WeightedGraph(g, np.zeros((2, 7)))

    def test_layout_array_of_the_wrong_length(self):
        # g has 8 table entries in 3 factors: 7 entries are a short layout
        # array, not 7 per-factor tables
        g = three_factors([1.0, 1.0])
        with pytest.raises(ScopeMismatch, match=r"^companion array of shape \(7,\), but the"
                                                r" graph's layout is \(8,\)$"):
            WeightedGraph(g, np.zeros(7))
        with pytest.raises(ScopeMismatch, match=r"^companion array of shape \(1, 7\), but"
                                                r" the graph's layout is \(1, 8\)$"):
            WeightedGraph(g, np.zeros((1, 7)))


def three_factors(fa, fc=(1.0, 1.0)):
    """fa(x), fb(x, y), fc(y), with fb all ones."""
    return FactorGraph(
        [VariableDecl("x", 2), VariableDecl("y", 2)],
        [
            FactorTable("fa", ("x",), np.array(fa, dtype=float)),
            FactorTable("fb", ("x", "y"), np.ones(4)),
            FactorTable("fc", ("y",), np.array(fc, dtype=float)),
        ],
    )


class TestComputeZH:
    def test_uniform_binary(self):
        wg = unary_weighted([0.5, 0.5], np.log2([0.5, 0.5]))
        res = compute_zh(wg)
        assert res.Z == 1.0
        assert res.H == -1.0
        assert res.log_scale == 0.0

    def test_deterministic_zero_convention(self):
        wg = unary_weighted([1.0, 0.0], [0.0, None])
        res = compute_zh(unary_weighted([1.0, 0.0], None))
        assert (res.Z, res.H) == (1.0, 0.0)

    def test_three_chain_matches_oracle(self, rng):
        for _ in range(10):
            vals = [rng.uniform(0.05, 2.0, n) for n in (2, 4, 4)]
            g = FactorGraph(
                [VariableDecl(v, 2) for v in ("x1", "x2", "x3")],
                [
                    FactorTable("f1", ("x1",), vals[0]),
                    FactorTable("f2", ("x1", "x2"), vals[1]),
                    FactorTable("f3", ("x2", "x3"), vals[2]),
                ],
            )
            companions = [np.log2(v) for v in vals]
            res = compute_zh(WeightedGraph(g, companions))
            assert_close(res.Z, enumerate_z(g), what="Z")
            assert_close(res.H, enumerate_h(g, companions), what="H")

    def test_random_trees_match_oracle(self, rng):
        for _ in range(20):
            g, companions = random_tree(rng)
            res = compute_zh(WeightedGraph(g, companions))
            assert_close(res.Z, enumerate_z(g), what="Z")
            assert_close(res.H, enumerate_h(g, companions), what="H")


class TestPosteriorEntropy:
    def test_uniform_is_one_bit(self):
        wg = unary_weighted([0.5, 0.5], np.log2([0.5, 0.5]))
        assert posterior_entropy(wg).entropy_bits == 1.0

    def test_deterministic_is_zero(self):
        res = posterior_entropy(unary_weighted([1.0, 0.0], [0.0, None]))
        assert res.entropy_bits == 0.0

    def test_unnormalized_uniform_still_one_bit(self):
        # Z = 0.4; -H/Z and log2 Z shifts cancel
        wg = unary_weighted([0.2, 0.2], np.log2([0.2, 0.2]))
        assert_close(posterior_entropy(wg).entropy_bits, 1.0)

    def test_zero_evidence(self):
        wg = unary_weighted([0.0, 0.0], None)
        with pytest.raises(ZeroEvidence):
            posterior_entropy(wg)

    def test_one_companion_column(self):
        # a second column of companions has no place in the entropy: it
        # raises rather than reporting the first column's bits
        columns = np.array([[0.0, math.log2(3.0)], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"^companions of shape \(2, 2\): expected one column$"):
            posterior_entropy(unary_weighted([1.0, 3.0], columns))
        assert compute_zh(unary_weighted([1.0, 3.0], columns)).H.shape == (2,)
        res = posterior_entropy(unary_weighted([1.0, 3.0], columns[:1]))
        assert_close(res.entropy_bits, 2.0 - 0.75 * math.log2(3.0))

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_log2_of_no_weight(self, z):
        with pytest.raises(ZeroEvidence, match="log2"):
            EntropyResult(z, 0.0).log2_z()

    def test_matches_oracle_on_random_trees(self, rng):
        for _ in range(20):
            g, _ = random_tree(rng)
            wg = WeightedGraph(g, derive_log2_companions(g))
            res = posterior_entropy(wg)
            assert_close(res.entropy_bits, enumerate_entropy(g), what="entropy")

    def test_entropy_range(self, rng):
        for _ in range(20):
            g, _ = random_tree(rng)
            bits = posterior_entropy(
                WeightedGraph(g, derive_log2_companions(g))
            ).entropy_bits
            upper = sum(math.log2(v.cardinality) for v in g.variables)
            assert -0.0 <= bits <= upper + 1e-9

    def test_scale_invariance_generic_h(self, rng):
        # scaling one factor by c, keeping the ORIGINAL g: Z and H both
        # scale by c, the ratio H/Z stays put
        for c in (1e-6, 1e6):
            g, _ = random_tree(rng, max_vars=6)
            companions = derive_log2_companions(g)
            base = compute_zh(WeightedGraph(g, companions))
            scaled_factors = [
                FactorTable(f.id, f.scope, f.values * (c if i == 0 else 1.0))
                for i, f in enumerate(g.factors)
            ]
            g2 = FactorGraph(g.variables, scaled_factors)
            scaled = compute_zh(WeightedGraph(g2, companions))
            assert_close(scaled.Z, c * base.Z, what="Z scaling")
            assert_close(scaled.H, c * base.H, what="H scaling")
            assert_close(scaled.H / scaled.Z, base.H / base.Z, what="H/Z")

    def test_scale_invariance_posterior(self, rng):
        # recompute g = log2 of the SCALED factor: reported entropy moves
        # by at most 1e-6 bits
        for c in (1e-6, 1e6):
            g, _ = random_tree(rng, max_vars=6)
            base = posterior_entropy(WeightedGraph(g, derive_log2_companions(g)))
            scaled_factors = [
                FactorTable(f.id, f.scope, f.values * (c if i == 0 else 1.0))
                for i, f in enumerate(g.factors)
            ]
            g2 = FactorGraph(g.variables, scaled_factors)
            scaled = posterior_entropy(WeightedGraph(g2, derive_log2_companions(g2)))
            assert abs(scaled.entropy_bits - base.entropy_bits) <= 1e-6

    def test_tiny_negative_clamped(self):
        # single spike: exact entropy 0; cancellation may go slightly
        # negative and must be clamped, never reported below zero
        wg = unary_weighted([0.3, 0.0], None)
        wg2 = WeightedGraph(wg.graph, derive_log2_companions(wg.graph))
        res = posterior_entropy(wg2)
        assert res.entropy_bits == 0.0

    def test_rescaled_run_same_entropy(self, rng):
        # tables times 2^j, often past float range, define the same
        # distribution; rescale= has no effect
        for _ in range(10):
            g, _ = random_tree(rng)
            wg = WeightedGraph(g, derive_log2_companions(g))
            res = posterior_entropy(wg)
            assert posterior_entropy(wg, rescale=False) == res
            moved = FactorGraph(g.variables, [
                FactorTable(f.id, f.scope, np.ldexp(f.values, int(j)))
                for f, j in zip(g.factors, rng.integers(-400, 401, len(g.factors)))])
            scaled = posterior_entropy(WeightedGraph(moved, derive_log2_companions(moved)))
            assert_close(scaled.entropy_bits, res.entropy_bits, what="bits")

    def test_subnormal_message_maximum(self):
        # only state 1 can emit symbol 2, and the backward message carries it
        # 2^-1030 below state 0, so its largest entry is subnormal there;
        # dividing by that maximum used to give NaN
        h = HmmSpec([0.5, 0.5], np.eye(2), [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]],
                    [0] * 10 + [2] + [0] * 1030)
        res = posterior_entropy(hmm_to_weighted_graph(h))
        assert res.entropy_bits == 0.0
        assert res.log2_z() == -2082.0

    def test_past_float_range_without_rescaling(self):
        # log2 Z = 1200 + 1199 log2 1.5: the default call, with no rescale
        # argument, reports Z and H as mantissas with their exponent
        wg = WeightedGraph(heap_tree(), derive_log2_companions(heap_tree()))
        res = posterior_entropy(wg)
        assert res.entropy_bits == pytest.approx(1200.0)
        assert res.exponent > 1024 and 1.0 <= res.Z < 2.0
        assert_close(res.log2_z(), 1200 + 1199 * math.log2(1.5), tol=1e-14)

    def test_table_magnitude_overflow_is_non_finite(self):
        # rescaling acts on whole messages: eight entries of 1.7e308 times
        # the unary messages 1.5 overflow inside one factor's sum
        g = FactorGraph([VariableDecl(n, 2) for n in "abc"], [
            FactorTable("fa", ("a",), np.array([1.5, 1.5])),
            FactorTable("fb", ("b",), np.array([1.5, 1.5])),
            FactorTable("fabc", ("a", "b", "c"), np.full(8, 1.7e308)),
        ])
        wg = WeightedGraph(g, derive_log2_companions(g))
        with pytest.raises(NonFiniteTotal, match="table entries are too large"):
            posterior_entropy(wg, rescale=True)
        assert NonFiniteTotal.exit_code == ZeroEvidence.exit_code == 2


class TestBaseConversion:
    def test_base_two_identity(self):
        assert entropy_in_base(5.0, "2") == 5.0

    def test_base_e(self):
        assert_close(entropy_in_base(5.0, "e"), 5.0 * math.log(2.0))

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            entropy_in_base(1.0, "10")


class TestDeriveCompanions:
    def test_log2_of_values(self):
        g = FactorGraph(
            [VariableDecl("x", 2)], [FactorTable("f", ("x",), np.array([4.0, 0.0]))]
        )
        comp = derive_log2_companions(g)
        assert comp[0] == 2.0
        assert comp[1] == 0.0  # placeholder under a zero value

    def test_negative_value_rejected(self):
        g = FactorGraph(
            [VariableDecl("x", 2)], [FactorTable("f", ("x",), np.array([-1.0, 1.0]))]
        )
        with pytest.raises(OutOfDomain):
            derive_log2_companions(g)

    def test_negative_value_in_a_later_factor_is_named(self):
        g = three_factors([1.0, 1.0], fc=[-1.0, 1.0])
        with pytest.raises(OutOfDomain, match="factor 'fc'"):
            derive_log2_companions(g)
        comps = derive_log2_companions(three_factors([0.5, 4.0], fc=[8.0, 0.0]))
        assert comps.tolist() == [-1.0, 2.0] + [0.0] * 4 + [3.0, 0.0]

    def test_log2_or_zero_bits_equal_the_masked_logs(self, rng):
        # the two-mask form it replaces; zeros of either sign, negatives,
        # NaN and infinities read 0 or log2, 1.0 reads +0.0, and no
        # floating-point warning escapes, for flat tables and HMM matrices
        def masked_logs(values):
            with np.errstate(divide="ignore"):
                return np.where(values > 0.0, np.log2(np.where(values > 0.0, values, 1.0)), 0.0)

        values = rng.uniform(-1.0, 4.0, 200)
        values[rng.integers(0, 200, 30)] = 0.0
        values[rng.integers(0, 200, 10)] = -0.0
        values[:6] = [math.nan, math.inf, -math.inf, 1.0, 5e-324, 2.0 ** -1030]
        for x in (values, values.reshape(20, 10), values[:1]):
            with np.errstate(all="raise"):
                logs = log2_or_zero(x)
            assert logs.shape == x.shape
            assert bits(logs) == bits(masked_logs(x))

    def test_log2_or_zero_allocates_only_its_logs(self, rng):
        # a tree-docs-sized table: the masked logs peaked at 2.13 times the
        # result, the in-place logs at 1.13 (the result and one bool mask)
        values = rng.uniform(0.0, 1.0, 63500)
        values[::5] = 0.0
        logs, peak = traced_peak(log2_or_zero, values)
        assert peak <= 1.2 * logs.nbytes
