import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fginfer import (
    BOOLEAN,
    ENTROPY,
    MAX_PRODUCT,
    SUM_PRODUCT,
    EntropyWeight,
    entropy_product_closed_form,
    get_semiring,
    lift,
    verify_axioms,
)
from fginfer.semiring import random_weights

from conftest import rel_err

ALL = [SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY]


class TestEntropyOps:
    def test_add_componentwise(self):
        assert ENTROPY.add(EntropyWeight(1, 2), EntropyWeight(3, 4)) == (4, 6)

    def test_add_identity(self):
        w = EntropyWeight(2.5, -7.0)
        assert ENTROPY.add(w, ENTROPY.zero) == w

    def test_mul_product_rule(self):
        # (2,3) x (4,5): scores multiply, aux cross-multiplies to 2*5+4*3
        assert ENTROPY.mul(EntropyWeight(2, 3), EntropyWeight(4, 5)) == (8, 22)

    def test_mul_identity(self):
        w = EntropyWeight(0.3, 9.0)
        assert ENTROPY.mul(w, ENTROPY.one) == w

    def test_mul_zero_annihilates(self):
        assert ENTROPY.mul(EntropyWeight(0.3, 9.0), ENTROPY.zero) == (0.0, 0.0)

    def test_sum_product_add(self):
        assert SUM_PRODUCT.add(2.0, 3.0) == 5.0

    def test_first_component_shadows_reals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x1, y1, x2, y2 = rng.uniform(-10, 10, 4)
            m = ENTROPY.mul(EntropyWeight(x1, y1), EntropyWeight(x2, y2))
            a = ENTROPY.add(EntropyWeight(x1, y1), EntropyWeight(x2, y2))
            assert m.score == x1 * x2
            assert a.score == x1 + x2

    def test_scaling_is_bilinear(self):
        a = EntropyWeight(1.5, -2.0)
        b = EntropyWeight(0.25, 4.0)
        c = 3.0
        scaled = ENTROPY.mul(EntropyWeight(c * a.score, c * a.aux), b)
        plain = ENTROPY.mul(a, b)
        assert scaled == (c * plain.score, c * plain.aux)


class TestLift:
    def test_plain(self):
        assert lift(0.5, -1.0) == (0.5, -0.5)

    def test_zero_absorbs_undefined(self):
        # 0 * log 0 := 0, whatever the companion claims to be
        assert lift(0.0, None) == (0.0, 0.0)
        assert lift(0.0, float("-inf")) == (0.0, 0.0)
        assert lift(0.0, float("nan")) == (0.0, 0.0)

    def test_identity_pair(self):
        assert lift(1.0, 0.0) == (1.0, 0.0)


class TestNaryProduct:
    def test_three_pairs(self):
        items = [EntropyWeight(2, 1), EntropyWeight(3, 1), EntropyWeight(4, 1)]
        assert ENTROPY.product(items) == (24, 26)

    def test_empty_is_one(self):
        assert ENTROPY.product([]) == ENTROPY.one

    def test_singleton(self):
        w = EntropyWeight(0.7, -1.25)
        assert ENTROPY.product([w]) == w

    def test_equals_binary_fold_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            items = random_weights(ENTROPY, n, rng)
            folded = ENTROPY.one
            for w in items:
                folded = ENTROPY.mul(folded, w)
            assert ENTROPY.product(items) == folded

    def test_closed_form_matches_fold(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            items = random_weights(ENTROPY, n, rng)
            closed = entropy_product_closed_form(items)
            folded = ENTROPY.product(items)
            assert rel_err(closed.score, folded.score) <= 1e-9
            assert rel_err(closed.aux, folded.aux) <= 1e-9


@pytest.mark.parametrize("s", ALL, ids=lambda s: s.name)
def test_axioms_on_random_samples(s):
    rng = np.random.default_rng(17)
    report = verify_axioms(s, random_weights(s, 12, rng), tol=1e-9)
    assert report.passed, report.failures[:3]


def test_boolean_axioms_exhaustive():
    report = verify_axioms(BOOLEAN, [0.0, 1.0], tol=0.0)
    assert report.passed
    assert report.max_violation == 0.0


def test_broken_mul_fails_distributivity():
    # aux-adds-on-multiply looks plausible (log-like bookkeeping) but the
    # aux side is not bilinear, so distributivity must fail
    class Broken:
        name = "broken"
        zero = EntropyWeight(0.0, 0.0)
        one = EntropyWeight(1.0, 0.0)

        def add(self, a, b):
            return EntropyWeight(a.score + b.score, a.aux + b.aux)

        def mul(self, a, b):
            return EntropyWeight(a.score * b.score, a.aux + b.aux)

    rng = np.random.default_rng(19)
    samples = [EntropyWeight(*rng.uniform(-4, 4, 2)) for _ in range(8)]
    report = verify_axioms(Broken(), samples, tol=1e-9)
    assert not report.passed
    assert "distributivity" in report.failed_axioms()


def test_get_semiring_names():
    for s in ALL:
        assert get_semiring(s.name) is s
    with pytest.raises(KeyError):
        get_semiring("tropical")


entropy_pairs = st.tuples(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
).map(lambda t: EntropyWeight(*t))


@settings(max_examples=200, deadline=None)
@given(a=entropy_pairs, b=entropy_pairs, c=entropy_pairs)
def test_entropy_distributivity_property(a, b, c):
    lhs = ENTROPY.mul(ENTROPY.add(a, b), c)
    rhs = ENTROPY.add(ENTROPY.mul(a, c), ENTROPY.mul(b, c))
    assert rel_err(lhs.score, rhs.score) <= 1e-9
    assert rel_err(lhs.aux, rhs.aux) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(a=entropy_pairs, b=entropy_pairs)
def test_entropy_mul_commutes_property(a, b):
    assert ENTROPY.mul(a, b) == ENTROPY.mul(b, a)


def test_lift_table_vectorized_matches_scalar_lift():
    rng = np.random.default_rng(23)
    values = rng.uniform(0, 2, 16)
    values[rng.integers(0, 16, 4)] = 0.0
    companion = rng.uniform(-5, 5, 16)
    companion[values == 0.0] = -math.inf
    scores, aux = ENTROPY.lift_table(values, companion).tolist()
    for i in range(16):
        expect = lift(float(values[i]), float(companion[i]))
        assert (scores[i], aux[i]) == expect


def test_lift_table_columns():
    # a (k, n) companion lifts to one (k + 1, n) array: the scores on top,
    # then f * g_c for each column c, 0 under zero scores
    values = np.array([0.0, 0.5, 2.0])
    companion = np.array([[math.inf, 1.0, -1.0], [math.nan, 4.0, 0.25]])
    rows = ENTROPY.lift_table(values, companion)
    assert isinstance(rows, np.ndarray)
    assert rows.tolist() == [[0.0, 0.5, 2.0], [0.0, 0.5, -2.0], [0.0, 2.0, 0.5]]
    for c in range(2):
        scores, aux = ENTROPY.lift_table(values, companion[c]).tolist()
        assert rows[0].tolist() == scores and rows[1 + c].tolist() == aux
