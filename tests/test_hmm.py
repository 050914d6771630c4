import copy
import math
import tracemalloc

import numpy as np
import pytest

import fginfer.hmm
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


def levels_built(h):
    """How many levels the reduction builds above the steps: 0 folds every step."""
    return len(fginfer.hmm._levels(h)[1]) - 1


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

    def test_no_states(self):
        with pytest.raises(ValueError, match="at least one state"):
            HmmSpec([], np.zeros((0, 0)), np.zeros((0, 1)), [0])

    def test_no_symbols(self):
        with pytest.raises(ValueError, match="at least one symbol"):
            HmmSpec([1.0], [[1.0]], np.zeros((1, 0)), [0])

    def test_empty_observations(self):
        with pytest.raises(ValueError, match="observation sequence"):
            HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), [])

    def test_observation_out_of_alphabet(self):
        with pytest.raises(OutOfDomain, match="position 1"):
            HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), [0, 2])

    @pytest.mark.parametrize("observations", [[0, 1.7, 0.2], [0, 1, math.nan],
                                              [True, False, True], np.array([True]), [0, True]])
    def test_non_integral_observation(self, observations):
        # used to run truncated, as [0, 1, 0], and bools as the symbols 0 and 1
        match = "position 1 is 1.7|position 2 is nan|position 0 is True|position 1 is True"
        with pytest.raises(ValueError, match=match):
            HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), observations)

    @pytest.mark.parametrize("observations", [
        *([0, big] for big in (2**63, 2**63 + 1, 2**64, 2**70, -2**63 - 1)),
        np.array([0, 2**63 + 1], dtype=np.uint64), np.array([0, 2**70], dtype=object)])
    def test_observation_past_int64_is_out_of_domain(self, observations):
        # numpy reads a list of these as floats or objects: once a bare
        # OverflowError, or a float reported as no symbol index
        with pytest.raises(OutOfDomain, match=rf"^observation at position 1 is {observations[1]},"
                                              r" outside the alphabet \[0, 2\)$"):
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

    def test_fold_matches_enumeration(self, rng):
        # 3 steps: a level of 23-state products costs more than the one
        # position it removes, so every step folds; 23^4 = 279841 paths, under
        # the oracle's guard. Measured on 40 chains like these, half with zero
        # transitions, the worst rel_err was 3.9e-16 on Z and 5.7e-16 on bits.
        for i in range(4):
            h = TestDirectPass.random_chain(rng, 23, 3, 4, i % 2 == 0)
            assert levels_built(h) == 0
            res = hmm_entropy(h, rescale=True)
            g = hmm_to_weighted_graph(h).graph
            assert_close(res.Z * 2.0 ** res.exponent, enumerate_z(g), 1e-14, "evidence")
            assert_close(res.entropy_bits, enumerate_entropy(g), 1e-14, "bits")

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

    def test_bits_do_not_depend_on_rescale(self, rng):
        # every report comes from the same mantissas; P(y) is a normal
        # float, so each folds it in, as posterior_entropy does. 64 symbols
        # over 40 steps seldom repeat a pair: 23 states fold them
        for s, o in ((1, 3), (2, 3), (5, 3), (23, 3), (23, 64)):
            h = random_hmm(rng, s, o, 40)
            if o == 64:
                assert levels_built(h) == 0
            results = {repr(hmm_entropy(h, rescale=r)) for r in (None, True, False)}
            assert len(results) == 1
            assert hmm_entropy(h, rescale=True).exponent == 0

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

    # Measured on 3000 random chains like those below (600 at S = 22 and
    # 24 paired, 2400 at S = 23, 25, 26 and 64 folded; both rescale
    # values), the worst rel_err was 1.4e-15 on bits and 2.9e-15 on log2 Z.
    # With the path picked from counts, 1050 more (150 of each shape below,
    # 46 of the 450 with 1-5 symbols paired) read at most 2.4e-15 and 2.6e-15.
    WIDE_TOL = 2e-14

    def assert_agrees(self, h, rescale, bits_tol=BITS_TOL, log2z_tol=LOG2Z_TOL):
        direct = hmm_entropy(h, rescale=rescale)
        engine = posterior_entropy(hmm_to_weighted_graph(h))
        assert_close(direct.entropy_bits, engine.entropy_bits, bits_tol, "bits")
        assert_close(direct.log2_z(), engine.log2_z(), log2z_tol, "log2 Z")

    @staticmethod
    def random_chain(rng, s, o, t_len, zeros):
        """A random chain; with ``zeros``, transitions below 0.4 before
        normalising are 0, and one column is kept positive."""
        def rows(n, m, zeros=False):
            a = rng.uniform(0.1, 1.0, (n, m))
            if zeros:
                a[a < 0.4] = 0.0
                a[:, rng.integers(m)] += 0.1
            return a / a.sum(axis=1, keepdims=True)

        return HmmSpec(rows(1, s)[0], rows(s, s, zeros), rows(s, o), rng.integers(0, o, t_len))

    def test_random_models_with_zero_transitions(self, rng):
        for i in range(150):
            s, o = (int(v) for v in rng.integers(1, 6, 2))
            h = self.random_chain(rng, s, o, int(rng.integers(1, 41)), i % 2 == 0)
            for rescale in (False, True):
                self.assert_agrees(h, rescale)

    @pytest.mark.parametrize("s", [22, 23, 64])
    def test_wide_random_models_with_zero_transitions(self, rng, s):
        for i in range(6):
            h = self.random_chain(rng, s, int(rng.integers(1, 6)), int(rng.integers(1, 41)),
                                  i % 2 == 0)
            for rescale in (False, True):
                self.assert_agrees(h, rescale, self.WIDE_TOL, self.WIDE_TOL)

    # one symbol repeats every pair, so 120-160 steps pair (68 or fewer
    # fold, which is faster); 64 symbols over at most 40 steps seldom
    # repeat one, so 23 and 64 states fold them
    @pytest.mark.parametrize("s, o, pairs", [(22, 1, True), (23, 1, True), (23, 64, False),
                                             (64, 64, False)])
    def test_wide_random_models_by_path(self, rng, s, o, pairs):
        for i in range(6):
            t_len = int(rng.integers(120, 161) if pairs else rng.integers(1, 41))
            h = self.random_chain(rng, s, o, t_len, i % 2 == 0)
            assert (levels_built(h) > 0) == pairs
            for rescale in (False, True):
                self.assert_agrees(h, rescale, self.WIDE_TOL, self.WIDE_TOL)

    def test_default_rescale_on_long_chain(self, rng):
        # 4 equiprobable symbols make P(y) = 2^-2T, no normal float: the
        # default raises at T = 1000, which it does not rescale
        def chain(t_len):
            h = random_hmm(rng, 3, 4, t_len)
            return HmmSpec(h.pi, h.transition, np.full((3, 4), 0.25), h.observations)

        with pytest.raises(ZeroEvidence):
            hmm_entropy(chain(1000))
        h = chain(1001)
        self.assert_agrees(h, None)
        assert hmm_entropy(h).exponent != 0

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

    @pytest.mark.parametrize("zeros", [4000, 4001])
    def test_reducible_chain_keeps_a_path_below_the_block_range(self, zeros):
        # only state 1 emits the last symbol, and each step before it halves
        # state 1 against state 0: a product of more than 1074 of those
        # steps scaled as a whole reads 0 for the one path that survives.
        # An odd step count carries a block up unpaired.
        h = HmmSpec([0.5, 0.5], np.eye(2), [[1.0, 0.0], [0.5, 0.5]], [0] * zeros + [1])
        self.assert_matches_closed_form(h, 0.0, -2.0 - zeros)

    def test_split_chain_is_reduced_once(self, monkeypatch):
        # the top block of this chain is inexact, so it is split, from
        # the levels of the one reduction
        calls, levels = [], fginfer.hmm._levels

        def counted(*args, **kwargs):
            calls.append(args)
            return levels(*args, **kwargs)

        monkeypatch.setattr(fginfer.hmm, "_levels", counted)
        h = HmmSpec([0.5, 0.5], np.eye(2), [[1.0, 0.0], [0.5, 0.5]], [0] * 4000 + [1])
        assert hmm_entropy(h).log2_z() == -4002.0
        assert len(calls) == 1

    def test_path_that_falls_and_recovers(self):
        # state 1 falls 2^-1556 behind state 0 over 1100 steps, gains back
        # 2^994 over the next 1700, and alone emits the first symbol: blocks
        # spanning the fall lose it unless inexact products are split
        emission = [[2 / 3, 1 / 3, 0.0], [1 / 4, 1 / 2, 1 / 4]]
        h = HmmSpec([0.5, 0.5], np.eye(2), emission, [2] + [0] * 1100 + [1] * 1700)
        self.assert_matches_closed_form(h, 0.0, -3903.0)

    def test_wide_reducible_chain_is_exact(self):
        # 40 states that never move; only state 1 emits symbol 1, and it
        # emits each symbol with probability 1/2
        emission = np.tile([1.0, 0.0], (40, 1))
        emission[1] = 0.5
        h = HmmSpec(np.full(40, 1 / 40), np.eye(40), emission, [0] * 4000 + [1])
        res = hmm_entropy(h)
        assert res.entropy_bits == 0.0
        assert res.log2_z() == -math.log2(40) - 4001

    def test_wide_path_that_falls_and_recovers(self):
        # test_path_that_falls_and_recovers with every state but 1 a copy
        # of state 0: its two runs pair 23 states, and the blocks that span
        # the fall are split. Against the exact values only: the engine
        # takes seconds and 150 MB on this graph.
        s = 23
        emission = np.tile([2 / 3, 1 / 3, 0.0], (s, 1))
        emission[1] = [1 / 4, 1 / 2, 1 / 4]
        h = HmmSpec(np.full(s, 1 / s), np.eye(s), emission, [2] + [0] * 1100 + [1] * 1700)
        assert levels_built(h) > 0
        res = hmm_entropy(h)
        log2_z = -3902.0 - math.log2(s)
        assert_close(res.entropy_bits, 0.0, 1e-14 * abs(log2_z), "bits")
        assert_close(res.log2_z(), log2_z, 1e-14, "log2 Z")

    def test_wide_fold_stacks_no_steps(self, rng):
        # the benchmark's hmm-wide shape: no level pays, and every step
        # folds. Pairing every level peaks at 37.7 MiB
        h = random_hmm(rng, 64, 64, 300)
        assert levels_built(h) == 0
        tracemalloc.start()
        try:
            hmm_entropy(h, rescale=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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

    @staticmethod
    def one_path_chain(s, q, zeros):
        # one path: state 1 emits y_1 = 1 with 1 - q and every later 0 with q
        emission = [[1.0, 0.0], [q, 1.0 - q]] + [[0.0, 1.0]] * (s - 2)
        h = HmmSpec(np.full(s, 1 / s), np.eye(s), emission, [1] + [0] * zeros)
        return h, math.log2(1.0 - q) + zeros * math.log2(q) - math.log2(s)

    @pytest.mark.parametrize("rescale", [None, True, False])
    @pytest.mark.parametrize("zeros, s, q", [(1000, 2, 0.5), (1000, 23, 0.5),
                                             (880, 2, 0.45), (880, 23, 0.45)])
    def test_evidence_far_below_1e_300(self, zeros, s, q, rescale):
        # u . v is a normal float below 1e-300 before the closing scale,
        # which once raised a false ZeroEvidence. Unrescaled, Z is
        # reported while P(y) is a normal float. One symbol a step pairs.
        h, log2_z = self.one_path_chain(s, q, zeros)
        assert levels_built(h) > 0
        if rescale is False and log2_z < -1022:
            with pytest.raises(ZeroEvidence):
                hmm_entropy(h, rescale=False)
        else:
            self.assert_matches_closed_form(h, 0.0, log2_z, rescale=rescale)

    @pytest.mark.parametrize("rescale", [None, True])
    @pytest.mark.parametrize("zeros, s, q", [(1070, 2, 0.5), (925, 2, 0.45), (925, 23, 0.45)])
    def test_subnormal_closing_product_raises(self, zeros, s, q, rescale):
        # the one path's entry of v decays below 2^-1022 against the
        # states that emit 0 with 1, so v keeps a few significant bits and
        # u . v is subnormal: scaled up it read log2 Z and bits tens of
        # percent off for q = 0.45
        h, _ = self.one_path_chain(s, q, zeros)
        assert levels_built(h) > 0
        with pytest.raises(ZeroEvidence, match="subnormal"):
            hmm_entropy(h, rescale=rescale)

    def test_zero_evidence_on_both_paths(self):
        # x1 = 0 forever under the identity transitions, but y2 needs x2 = 1.
        # No state emits y4 of the second chain, so its odd last step,
        # carried up every level, is split down to its own symbol's table.
        for emission, y in ((np.eye(2), [0, 1, 0]),
                            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0, 0, 0, 2])):
            h = HmmSpec([1.0, 0.0], np.eye(2), emission, y)
            for rescale in (False, True):
                with pytest.raises(ZeroEvidence):
                    hmm_entropy(h, rescale=rescale)
            with pytest.raises(ZeroEvidence):
                posterior_entropy(hmm_to_weighted_graph(h))

    def test_zero_evidence_on_a_wide_chain(self):
        s = 23
        h = HmmSpec(np.eye(s)[0], np.eye(s), np.eye(s), [0, 1, 0])
        assert levels_built(h) == 0
        for rescale in (False, True):
            with pytest.raises(ZeroEvidence):
                hmm_entropy(h, rescale=rescale)

    @staticmethod
    def one_path_folded_chain(n):
        # 24 states that never move: only state 1 emits y_1 = 63, and it emits
        # each of the n later draws from 0..62 with 1/252, every other state
        # with 1/63, so its entry of v falls 2^-2n behind theirs
        s = 24
        emission = np.zeros((s, 64))
        emission[:, :63] = 1 / 63
        emission[1] = [0.25 / 63] * 63 + [0.75]
        y = [63, *np.random.default_rng(0).integers(0, 63, n).tolist()]
        h = HmmSpec(np.full(s, 1 / s), np.eye(s), emission, y)
        return h, -math.log2(s) + n * math.log2(1 / 252) + math.log2(0.75)

    @pytest.mark.parametrize("n", [490, 505])
    def test_folded_window_keeps_what_every_step_scaling_keeps(self, n):
        # state 1's entry sits 2^-980 and 2^-1010 below the others: a normal
        # float when v's sum is in [0.5, 1), and no smaller when the sum is
        # kept in [1, 2^63). A sum scaled into [0.5, 1) only once it left
        # [2^-62, 2^62) read -1.85e-7 and 39.85 bits here; one kept in
        # [2^-62, 2^63) read 0 and -0.016 bits.
        h, log2_z = self.one_path_folded_chain(n)
        assert levels_built(h) == 0
        res = hmm_entropy(h, rescale=True)
        assert_close(res.entropy_bits, 0.0, 1e-14 * abs(log2_z), "bits")
        assert_close(res.log2_z(), log2_z, 1e-14, "log2 Z")

    def test_folded_range_ends_with_the_sum_of_v_below_one(self):
        # at 508 draws, u . v is subnormal when v's sum is in [0.5, 1), as a
        # folded range leaves it, though not when it is anywhere in [1, 2^63)
        h, _ = self.one_path_folded_chain(508)
        assert levels_built(h) == 0
        with pytest.raises(ZeroEvidence, match="subnormal"):
            hmm_entropy(h, rescale=True)

    def test_folded_sum_is_that_of_v_not_of_w(self):
        # one path 0 -> 1: state 1 is entered with 2^-1000 from state 0 and
        # 2^-100 from itself, so the step shrinks v's sum 2^-100 below the
        # sum of w = b v; only state 0 on that path emits y_1 = 0, with 2^-100.
        # Scaled by the sum of w, v leaves u . v subnormal.
        d, e = 2.0 ** -100, 2.0 ** -1000
        h = HmmSpec(np.full(3, 1 / 3), [[1 - e, e, 0.0], [1 - d, d, 0.0], [0.0, 0.0, 1.0]],
                    [[d, 0.0, 1 - d], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [0, 1])
        assert levels_built(h) == 0
        res = hmm_entropy(h, rescale=True)
        assert res.entropy_bits == 0.0
        assert_close(res.log2_z(), -1100.0 - math.log2(3.0), 1e-15, "log2 Z")

    def test_every_folded_step_leaves_the_window(self, rng):
        # every observed symbol has emission 1e-25 or less, so each step shrinks
        # v's sum by more than 2^-63 and every folded step rescales
        s, o = 24, 64
        emission = np.zeros((s, o))
        emission[:, :-1] = rng.uniform(0.1, 1.0, (s, o - 1)) * 1e-25
        emission[:, -1] = 1.0 - emission.sum(axis=1)
        h = self.random_chain(rng, s, o, 40, True)
        h = HmmSpec(h.pi, h.transition, emission, rng.integers(0, o - 1, 40))
        assert levels_built(h) == 0
        self.assert_agrees(h, True, self.WIDE_TOL, self.WIDE_TOL)


class TestOneLayout:
    """Every level the reduction builds holds its distinct blocks and one
    block code per position, level 0 the per-symbol tables coded by the
    steps; with no level above it, level 0 holds its codes alone."""

    @staticmethod
    def levels_of(h):
        return fginfer.hmm._levels(h)[1]

    @staticmethod
    def positional_levels(level_0, top):
        """The reference: the same reduction up to level ``top`` over a
        stack with one block per position, taken from level 0's tables by
        its codes, the steps."""
        *tables, steps = level_0
        fg, k, exact = (x.take(steps, axis=0) for x in tables)
        levels = [(fg, k, exact)]
        s = fg.shape[2]
        while len(levels) <= top:
            m = len(fg) // 2 * 2
            fg1, fg2 = fg[:m:2], fg[1:m:2]
            product = fg1 @ fg2[:, :s]
            product[:, s:] += fg1[:, :s] @ fg2[:, s:]
            paired = exact[:m:2] & exact[1:m:2] & ~fginfer.hmm._inexact(
                product[:, :s], fg1[:, :s], fg2[:, :s])
            fg, k_level = fginfer.hmm._normalised(np.concatenate((product, fg[m:])))
            k = np.concatenate((k[:m:2] + k[1:m:2], k[m:])) + k_level
            exact = np.concatenate((paired, exact[m:]))
            levels.append((fg, k, exact))
        return levels

    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 76, 77, 1000, 4097])
    def test_one_symbol_chain_holds_two_blocks_a_level(self, rng, t_len):
        # 2^n steps a block, and at most one odd block carried up. Up to 76
        # steps no level pays; above that, levels stop while their top
        # still holds more than one position
        levels = self.levels_of(random_hmm(rng, 3, 1, t_len))
        assert (len(levels) > 1) == (t_len > 76)
        assert 1 < len(levels[-1][3]) < 32 or t_len <= 76
        assert [len(codes) for *_, codes in levels[1:]] == [
            -(-(t_len - 1) // 2 ** n) for n in range(1, len(levels))]
        assert all(len(f) <= 2 for f, *_ in levels[1:])

    def test_blocks_read_through_codes_equal_the_positional_reduction(self, rng):
        chains = [TestDirectPass.one_path_chain(2, 1 / 16, 4001)[0]]
        odd, even = rng.integers(300, 1000, 12) * 2 + 1, rng.integers(300, 1001, 12) * 2
        for i, t_len in enumerate([1, 2, 3, 1999, 2000, *odd.tolist(), *even.tolist()]):
            s, o = int(rng.integers(1, 23)), int(rng.integers(1, 6))
            chains.append(TestDirectPass.random_chain(rng, s, o, t_len, i % 2 == 0))
        # every symbol once: every code is used once from level 0; 64 symbols
        # over 300 steps repeat pairs too seldom for the pair table; and 2
        # symbols over 5001 steps use every code once from a low level up
        chains.append(HmmSpec([0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 256), 1 / 256),
                              np.arange(256)))
        chains.append(TestDirectPass.random_chain(rng, 3, 64, 300, False))
        chains.append(TestDirectPass.random_chain(rng, 2, 2, 5001, False))
        built = 0
        for h in chains:
            levels = self.levels_of(h)
            if len(levels) == 1:  # no level pays: level 0 is its codes alone
                assert levels[0][:3] == (None, None, None)
                continue
            built += 1
            reference = self.positional_levels(levels[0], len(levels) - 1)
            assert len(levels) == len(reference)
            if h is chains[0]:  # its upper blocks are inexact
                assert not reference[-1][2].all()
            for (*blocks, codes), positional in zip(levels, reference):
                assert np.unique(codes).size == len(blocks[0])  # every block has a position
                for x, y in zip(blocks, positional):
                    assert x.dtype == y.dtype and x[codes].tobytes() == y.tobytes()
        assert built >= len(chains) - 4


class TestCountedCut:
    """The reduction builds a level only while its products cost less than
    the positions it removes, both counted from the codes before any
    product: these checks read the levels built, never a timing."""

    def test_two_states_pair(self, rng):
        assert levels_built(random_hmm(rng, 2, 2, 1000)) > 0

    def test_two_symbols_pair_wide_chains(self, rng):
        # a rule on S alone folded 32 states; over 2 symbols the first
        # levels hold at most 4, 16 and 256 distinct products for 1e4, 5000
        # and 2500 positions, and the cut comes before every pair is distinct
        assert 0 < levels_built(random_hmm(rng, 32, 2, 20_000)) < 14

    def test_small_products_pair_though_pairs_never_repeat(self, rng):
        # an 8-state product costs 1536 multiply-adds, far less than the block
        # it removes from the level above: pairing every level ran 2-3x faster
        # than folding 2e4 steps over 2000 symbols
        assert levels_built(random_hmm(rng, 8, 2000, 20_000)) > 0

    @staticmethod
    def folded_peak(h):
        """The tracemalloc peak of one call on a chain the cut folds."""
        assert levels_built(h) == 0
        tracemalloc.start()
        try:
            hmm_entropy(h, rescale=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pairs_that_never_repeat_fold_in_little_memory(self, rng):
        # 2000 symbols over 2e4 steps: the first level would hold nearly 1e4
        # distinct 22-state products. Pairing every level peaks at 280.8 MiB;
        # the fold peaked at 2.20-2.21 MiB on 8 seeds
        assert self.folded_peak(random_hmm(rng, 22, 2000, 20_000)) < 3 * 2**20

    # a folded step costs about half an applied block, so the cut folds 22
    # symbols over 5000 steps (one level: 484 distinct 22-state products,
    # 12.9 MiB) and 19-state blocks that never repeat (6 levels, 209.7 MiB):
    # level 1 saves little on its own. On 8 seeds each the fold peaked at
    # 0.106-0.107 and 2.02-2.03 MiB
    @pytest.mark.parametrize("s, o, t_len, mib", [(22, 22, 5000, 0.2), (19, 2000, 20_000, 3.0)])
    def test_level_one_pays_only_against_cheap_folded_steps(self, rng, s, o, t_len, mib):
        assert self.folded_peak(random_hmm(rng, s, o, t_len)) < mib * 2**20


class TestDistinct:
    """_distinct(keys, d, n_codes) on the pair keys c1 * d + c2 of n_codes
    codes that use every one of d codes: pairs[up] is keys, pairs are
    distinct and are the keys' values."""

    @staticmethod
    def distinct(codes, d):
        m = len(codes) // 2 * 2
        keys = codes[:m:2] * d + codes[1:m:2]
        pairs, up = fginfer.hmm._distinct(keys, d, len(codes))
        assert np.array_equal(pairs[up], keys)
        assert np.unique(pairs).size == len(pairs)
        assert set(pairs.tolist()) == set(keys.tolist())
        return keys, pairs, up

    @pytest.mark.parametrize("d", [2, 3, 64, 65, 1001])
    def test_every_code_once_keeps_the_keys(self, rng, d):
        keys, pairs, up = self.distinct(rng.permutation(d), d)
        assert np.array_equal(pairs, keys) and np.array_equal(up, np.arange(len(keys)))

    # a bool table over [0, d^2) while d^2 is at most the keys' 8 bytes
    # each, up to (16, 65) with 32 keys; np.unique from (17, 65) on
    @pytest.mark.parametrize("d, n_codes", [(1, 2), (2, 9), (4, 1000), (3, 64), (16, 65),
                                            (17, 65), (64, 65), (200, 300)])
    def test_repeated_codes_give_what_np_unique_gives(self, rng, d, n_codes):
        codes = rng.permutation(np.concatenate((np.arange(d), rng.integers(0, d, n_codes - d))))
        keys, pairs, up = self.distinct(codes, d)
        expected, inverse = np.unique(keys, return_inverse=True)
        assert np.array_equal(pairs, expected) and np.array_equal(up, inverse.ravel())


class TestPowerOfTwoRescaling:
    """pi times 2^i and A times 2^j, set past validation, scale P(y) by
    2^(i + j (T - 1)): Z keeps its mantissa bit for bit and its exponent
    moves by that much, and the bits do not move. Measured on 600 chains
    like these, the bits moved by at most 1.8e-15 of |i + j (T - 1)| +
    |log2 Z|, the size of the terms that cancel in them."""

    # T - 1 steps: T = 2^k + 1 pairs evenly at every level, T = 2^k
    # carries an odd element at every level
    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5, 16, 17, 32, 33, 1200])
    @pytest.mark.parametrize("s", [1, 2, 5, 23])
    def test_shift_back_is_bit_identical(self, rng, s, t_len):
        self.assert_shift_back(rng, random_hmm(rng, s, 3, t_len), t_len)

    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5, 16, 17, 32, 33, 1200])
    def test_shift_back_of_folded_steps(self, rng, t_len):
        # up to 1199 steps seldom repeat a pair of 64 symbols: 23 states fold them
        h = random_hmm(rng, 23, 64, t_len)
        assert levels_built(h) == 0
        self.assert_shift_back(rng, h, t_len)

    @staticmethod
    def assert_shift_back(rng, h, t_len):
        base = hmm_entropy(h, rescale=True)
        mantissa, k = math.frexp(base.Z)
        for i, j in rng.integers(-60, 61, (3, 2)).tolist():
            moved = copy.copy(h)
            moved.pi, moved.transition = h.pi * 2.0 ** i, h.transition * 2.0 ** j
            res = hmm_entropy(moved, rescale=True)
            shift = i + j * (t_len - 1)
            assert math.frexp(res.Z) == (mantissa, k + base.exponent + shift - res.exponent)
            scale = max(1.0, abs(shift) + abs(base.log2_z()))
            assert abs(res.entropy_bits - base.entropy_bits) <= 1e-14 * scale
