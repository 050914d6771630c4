import math

import numpy as np
import pytest

from fginfer import (
    HmmSpec,
    OutOfDomain,
    ZeroEvidence,
    hmm_entropy,
    hmm_to_weighted_graph,
    posterior_entropy,
)
from fginfer.oracle import enumerate_entropy, enumerate_z

from conftest import assert_close


def uniform_hmm(t_len, s=2):
    p = np.full(s, 1.0 / s)
    return HmmSpec(p, np.full((s, s), 1.0 / s), np.full((s, s), 1.0 / s), [0] * t_len)


def random_hmm(rng, s, o, t_len):
    def rows(n, m):
        a = rng.uniform(0.1, 1.0, (n, m))
        return a / a.sum(axis=1, keepdims=True)

    return HmmSpec(
        rows(1, s)[0], rows(s, s), rows(s, o), rng.integers(0, o, t_len)
    )


class TestHmmSpec:
    def test_accessors(self):
        h = uniform_hmm(5)
        assert (h.num_states, h.num_symbols, h.num_steps) == (2, 2, 5)

    def test_transition_shape(self):
        with pytest.raises(ValueError, match="transition"):
            HmmSpec([0.5, 0.5], [[1.0]], np.eye(2), [0])

    def test_emission_shape(self):
        with pytest.raises(ValueError, match="emission"):
            HmmSpec([0.5, 0.5], np.eye(2), [[1.0]], [0])

    def test_negative_probability(self):
        with pytest.raises(ValueError, match="nonnegative"):
            HmmSpec([1.5, -0.5], np.eye(2), np.eye(2), [0])

    def test_pi_not_normalized(self):
        with pytest.raises(ValueError, match="pi sums"):
            HmmSpec([0.5, 0.6], np.eye(2), np.eye(2), [0])

    def test_row_sum_tolerance_is_tight(self):
        bad = np.array([[0.5 + 2e-9, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="transition row 0"):
            HmmSpec([0.5, 0.5], bad, np.full((2, 2), 0.5), [0])

    def test_empty_observations(self):
        with pytest.raises(ValueError, match="observation sequence"):
            HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), [])

    def test_observation_out_of_alphabet(self):
        with pytest.raises(OutOfDomain, match="position 1"):
            HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), [0, 2])


class TestChainConstruction:
    def test_uniform_tables(self):
        wg = hmm_to_weighted_graph(uniform_hmm(4))
        g = wg.graph
        assert [v.id for v in g.variables] == ["x1", "x2", "x3", "x4"]
        assert [f.id for f in g.factors] == ["f1", "f2", "f3", "f4"]
        assert g.factors[0].scope == ("x1",)
        assert g.factors[2].scope == ("x2", "x3")
        assert np.allclose(g.factors[0].values, 0.25)
        for f in g.factors[1:]:
            assert np.allclose(f.values, 0.25)

    def test_pair_table_orientation(self):
        # A[i, j] * B[j, y_t], previous state indexes first
        a = np.array([[0.9, 0.1], [0.3, 0.7]])
        b = np.array([[0.6, 0.4], [0.5, 0.5]])
        h = HmmSpec([0.5, 0.5], a, b, [0, 1])
        f2 = hmm_to_weighted_graph(h).graph.factors[1]
        expected = a * b[:, 1][None, :]
        assert np.allclose(f2.values.reshape(2, 2), expected)

    def test_single_state_chain(self):
        h = HmmSpec([1.0], [[1.0]], [[1.0]], [0, 0, 0])
        res = hmm_entropy(h)
        assert (res.Z, res.entropy_bits) == (1.0, 0.0)

    def test_companions_are_log2(self):
        wg = hmm_to_weighted_graph(uniform_hmm(3))
        for f, comp in zip(wg.graph.factors, wg.companions):
            assert np.allclose(comp, np.log2(f.values))


class TestHmmEntropy:
    def test_uniform_five_steps_is_five_bits(self):
        res = hmm_entropy(uniform_hmm(5))
        assert abs(res.entropy_bits - 5.0) <= 1e-9

    def test_deterministic_chain_is_zero_bits(self):
        h = HmmSpec([1.0, 0.0], np.eye(2), np.eye(2), [0, 0, 0])
        res = hmm_entropy(h)
        assert res.entropy_bits == 0.0
        assert_close(res.Z, 1.0)

    def test_explicit_small_example(self):
        h = HmmSpec(
            [0.6, 0.4],
            [[0.7, 0.3], [0.4, 0.6]],
            [[0.9, 0.1], [0.2, 0.8]],
            [0, 1, 0, 0],
        )
        res = hmm_entropy(h)
        g = hmm_to_weighted_graph(h).graph
        assert_close(res.Z, enumerate_z(g), what="evidence")
        assert_close(res.entropy_bits, enumerate_entropy(g), what="bits")

    def test_random_models_match_enumeration(self, rng):
        for _ in range(20):
            s = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            t_len = int(rng.integers(1, 8))
            h = random_hmm(rng, s, o, t_len)
            res = hmm_entropy(h)
            g = hmm_to_weighted_graph(h).graph
            assert_close(res.entropy_bits, enumerate_entropy(g), what="bits")

    def test_entropy_bounded_by_path_count(self, rng):
        for _ in range(10):
            s = int(rng.integers(1, 4))
            h = random_hmm(rng, s, 2, int(rng.integers(1, 8)))
            bits = hmm_entropy(h).entropy_bits
            assert -0.0 <= bits <= h.num_steps * math.log2(max(s, 1)) + 1e-9

    def test_impossible_observation(self):
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        h = HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), b, [1])
        with pytest.raises(ZeroEvidence):
            hmm_entropy(h)


class TestRescaling:
    def test_long_chain_needs_rescaling(self):
        # Z = 0.25^1500 underflows, so the plain pass sees zero evidence
        h = uniform_hmm(1500)
        with pytest.raises(ZeroEvidence):
            hmm_entropy(h, rescale=False)
        res = hmm_entropy(h)  # auto: rescale kicks in past 1000 steps
        assert_close(res.entropy_bits, 1500.0, what="bits")
        assert res.log_scale != 0.0

    def test_rescaled_matches_plain_when_both_work(self, rng):
        h = random_hmm(rng, 3, 2, 7)
        plain = hmm_entropy(h, rescale=False)
        scaled = hmm_entropy(h, rescale=True)
        assert_close(scaled.entropy_bits, plain.entropy_bits, what="bits")

    def test_posterior_entropy_agrees_with_manual_graph(self, rng):
        h = random_hmm(rng, 2, 2, 6)
        wg = hmm_to_weighted_graph(h)
        assert_close(
            hmm_entropy(h).entropy_bits,
            posterior_entropy(wg).entropy_bits,
            what="bits",
        )


def entropy_outcome(fn):
    try:
        res = fn()
    except ZeroEvidence:
        return "ZeroEvidence"
    return (res.Z, res.H, res.log_scale, res.entropy_bits)


class TestDirectPass:
    """hmm_entropy against the generic engine on the same chain, exactly."""

    def assert_bit_identical(self, h, rescale, engine_rescale):
        direct = entropy_outcome(lambda: hmm_entropy(h, rescale=rescale))
        engine = entropy_outcome(
            lambda: posterior_entropy(hmm_to_weighted_graph(h), rescale=engine_rescale)
        )
        assert direct == engine

    def test_random_models_with_zero_transitions(self, rng):
        def rows(n, m, zeros):
            a = rng.uniform(0.1, 1.0, (n, m))
            if zeros:
                a[a < 0.4] = 0.0
                a[:, rng.integers(m)] += 0.1
            return a / a.sum(axis=1, keepdims=True)

        for i in range(150):
            s, o = (int(v) for v in rng.integers(1, 6, 2))
            t_len = int(rng.integers(1, 41))
            h = HmmSpec(rows(1, s, False)[0], rows(s, s, i % 2 == 0), rows(s, o, False),
                        rng.integers(0, o, t_len))
            for rescale in (False, True):
                self.assert_bit_identical(h, rescale, rescale)

    def test_default_rescale_on_long_chain(self, rng):
        h = random_hmm(rng, 3, 2, 1001)
        self.assert_bit_identical(h, None, True)
        assert hmm_entropy(h).log_scale != 0.0

    def test_zero_evidence_on_both_paths(self):
        # x1 = 0 forever under the identity transitions, but y2 needs x2 = 1
        h = HmmSpec([1.0, 0.0], np.eye(2), np.eye(2), [0, 1, 0])
        for rescale in (False, True):
            with pytest.raises(ZeroEvidence):
                hmm_entropy(h, rescale=rescale)
            with pytest.raises(ZeroEvidence):
                posterior_entropy(hmm_to_weighted_graph(h), rescale=rescale)
