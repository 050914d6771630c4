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

    @pytest.mark.parametrize("observations", [[0, 1.7, 0.2], [0, 1, math.nan]])
    def test_non_integral_observation(self, observations):
        # used to run truncated, as [0, 1, 0]
        with pytest.raises(ValueError, match="position 1 is 1.7|position 2 is nan"):
            HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), observations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["pi", "transition", "emission"])
    def test_non_finite_probability(self, name, bad):
        args = {"pi": np.full(2, 0.5), "transition": np.full((2, 2), 0.5),
                "emission": np.full((2, 2), 0.5)}
        args[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} probabilities must be finite"):
            HmmSpec(observations=[0], **args)


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
        values = np.concatenate([f.values for f in wg.graph.factors])
        assert np.allclose(wg.companions, np.log2(values))


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


class TestDirectPass:
    """hmm_entropy against the generic engine on the same chain.

    The reduction brackets the chain's products differently from the
    engine, so the two agree to roundoff, not bit for bit. Measured on
    2400 random chains like those below (S, O <= 5, T <= 40, half with
    zero transition entries, both rescale values), the worst rel_err was
    1.3e-13 on bits and 7.2e-15 on log2 Z; the tolerances sit about 8x
    above that.
    """

    BITS_TOL = 1e-12
    LOG2Z_TOL = 5e-14

    def assert_agrees(self, h, rescale):
        direct = hmm_entropy(h, rescale=rescale)
        engine = posterior_entropy(hmm_to_weighted_graph(h))
        assert_close(direct.entropy_bits, engine.entropy_bits, self.BITS_TOL, "bits")
        assert_close(direct.log2_z(), engine.log2_z(), self.LOG2Z_TOL, "log2 Z")

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
                self.assert_agrees(h, rescale)

    def test_default_rescale_on_long_chain(self, rng):
        h = random_hmm(rng, 3, 2, 1001)
        self.assert_agrees(h, None)
        assert hmm_entropy(h).log_scale != 0.0

    def assert_matches_closed_form(self, h, bits, log2_z, rescale=None):
        """Against the exact values of a chain whose state never moves, and
        against the engine. Bits are log2 Z less a mean log2 weight of the
        same size, so they carry a few ulps of |log2 Z|. The engine adds
        one rounded log per step: over thousands of steps it drifts by a
        few 1e-14 of |log2 Z| (1.1e-10 bits at log2 Z = -3903, where this
        pass gives 0)."""
        scale = max(1.0, abs(log2_z))
        direct = hmm_entropy(h, rescale=rescale)
        assert_close(direct.entropy_bits, bits, 1e-14 * scale, "bits")
        assert_close(direct.log2_z(), log2_z, 1e-14, "log2 Z")
        engine = posterior_entropy(hmm_to_weighted_graph(h))
        assert_close(direct.entropy_bits, engine.entropy_bits, 1e-13 * scale, "bits")
        assert_close(direct.log2_z(), engine.log2_z(), 1e-13, "log2 Z")

    def test_reducible_chain_keeps_a_path_below_the_block_range(self):
        # only state 1 emits the last symbol, and each step before it halves
        # state 1 against state 0: a product of more than 1074 of those
        # steps scaled as a whole reads 0 for the one path that survives
        h = HmmSpec([0.5, 0.5], np.eye(2), [[1.0, 0.0], [0.5, 0.5]], [0] * 4000 + [1])
        self.assert_matches_closed_form(h, 0.0, -4002.0)

    def test_path_that_falls_and_recovers(self):
        # state 1 falls 2^-1556 behind state 0 over 1100 steps, gains back
        # 2^994 over the next 1700, and alone emits the first symbol: blocks
        # spanning the fall lose it unless inexact products are split
        emission = [[2 / 3, 1 / 3, 0.0], [1 / 4, 1 / 2, 1 / 4]]
        h = HmmSpec([0.5, 0.5], np.eye(2), emission, [2] + [0] * 1100 + [1] * 1700)
        self.assert_matches_closed_form(h, 0.0, -3903.0)

    def test_inexact_block_carried_to_the_next_level(self):
        # 3072 steps: at 1024 steps a block, the last of three is carried
        # up unpaired. Its first half puts state 1 2^-1536 behind, its
        # second brings it back to 2^-632, and only state 1 emits y_1.
        emission = [[0.8, 0.1, 0.1, 0.0], [0.1, 0.34, 0.1, 0.46]]
        h = HmmSpec([0.5, 0.5], np.eye(2), emission, [3] + [2] * 2048 + [0] * 512 + [1] * 512)
        log2_z = -1.0 + math.log2(0.46) + 2560 * math.log2(0.1) + 512 * math.log2(0.34)
        self.assert_matches_closed_form(h, 0.0, log2_z)

    def test_block_that_sends_the_vector_below_range(self):
        # steps 4-5 leave state 0 ahead of states 1 and 2 by 2^900; steps
        # 2-3 rule out state 0 and put state 2 2^200 behind state 1, so
        # their product, applied at once, drops state 2 to 2^-1100: the
        # only state that emits y_1
        q, p = 2.0 ** -450, 2.0 ** -100
        emission = np.array([[0.0, 0.5, 0.0, 0.5],
                             [0.5, 0.5 * q, 0.0, 0.0],
                             [0.5 * p, 0.5 * q, 0.5, 0.0]])
        emission[1:, 3] = 1.0 - emission[1:].sum(axis=1)
        h = HmmSpec(np.full(3, 1 / 3), np.eye(3), emission, [2, 0, 0, 1, 1])
        self.assert_matches_closed_form(h, 0.0, -1105.0 - math.log2(3.0), rescale=True)

    def test_long_reducible_chain_near_one_per_step(self):
        # states 1 and 2 fall behind state 0 by 0.985 a step, so a block
        # of 65536 steps spans 2^-1428; only they emit the last symbol.
        # Too long for the engine: the exact values are the reference.
        rho = 0.985
        h = HmmSpec([0.5, 0.25, 0.25], np.eye(3), [[1.0, 0.0], [rho, 1 - rho], [rho, 1 - rho]],
                    [0] * 99_999 + [1])
        res = hmm_entropy(h)
        log2_z = math.log2(0.5) + 99_999 * math.log2(rho) + math.log2(1 - rho)
        assert_close(res.entropy_bits, 1.0, 1e-14 * abs(log2_z), "bits")
        assert_close(res.log2_z(), log2_z, 1e-14, "log2 Z")

    def test_zero_evidence_on_both_paths(self):
        # x1 = 0 forever under the identity transitions, but y2 needs x2 = 1
        h = HmmSpec([1.0, 0.0], np.eye(2), np.eye(2), [0, 1, 0])
        for rescale in (False, True):
            with pytest.raises(ZeroEvidence):
                hmm_entropy(h, rescale=rescale)
        with pytest.raises(ZeroEvidence):
            posterior_entropy(hmm_to_weighted_graph(h))


class TestPowerOfTwoRescaling:
    """Rescaled Z and H shifted back by 2^E equal the plain pass exactly."""

    # T - 1 stacked steps: T = 2^k + 1 pairs evenly at every level, T = 2^k
    # carries an odd element at every level
    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5, 16, 17, 32, 33])
    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_shift_back_is_bit_identical(self, rng, s, t_len):
        h = random_hmm(rng, s, 3, t_len)
        plain = hmm_entropy(h, rescale=False)
        scaled = hmm_entropy(h, rescale=True)
        e = round(scaled.log_scale / math.log(2.0))
        assert math.ldexp(scaled.Z, e) == plain.Z
        assert math.ldexp(scaled.H, e) == plain.H
