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
    get_semiring,
    verify_axioms,
)
from fginfer.semiring import EntropySemiring

from conftest import entropy_fold, entropy_product_closed_form, random_carrier, rel_err

ALL = [SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY]


def times(a, b) -> list:
    """ENTROPY's product of two carrier columns, as a list."""
    out = np.array(a, dtype=float)
    ENTROPY.mul_entries(out, np.asarray(b, dtype=float))
    return out.tolist()


def plus(a, b) -> list:
    return ENTROPY.fold(np.asarray(a, dtype=float), np.asarray(b, dtype=float)).tolist()


ZERO, ONE = [0.0, 0.0], [1.0, 0.0]


class TestEntropyOps:
    def test_add_componentwise(self):
        assert plus([1, 2], [3, 4]) == [4, 6]

    def test_add_identity(self):
        assert plus([2.5, -7.0], ZERO) == [2.5, -7.0]

    def test_mul_product_rule(self):
        # (2,3) x (4,5): scores multiply, aux cross-multiplies to 2*5+4*3;
        # a width-2 aux follows the rule per column against the one score
        assert times([2, 3], [4, 5]) == [8, 22]
        assert times([2, 3, 1], [4, 5, -1]) == [8, 22, 2]

    def test_mul_identity(self):
        assert times([0.3, 9.0], ONE) == [0.3, 9.0]

    def test_mul_zero_annihilates(self):
        assert times([0.3, 9.0], ZERO) == [0.0, 0.0]

    def test_sum_product_add(self):
        assert SUM_PRODUCT.fold(2.0, 3.0) == 5.0

    def test_first_component_shadows_reals(self):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-10, 10, (2, 2, 200))
        m = x.copy()
        ENTROPY.mul_entries(m, y)
        assert m[0].tolist() == (x[0] * y[0]).tolist()
        assert ENTROPY.fold(x, y)[0].tolist() == (x[0] + y[0]).tolist()

    def test_scaling_is_bilinear(self):
        a, b, c = [1.5, -2.0], [0.25, 4.0], 3.0
        assert times([c * a[0], c * a[1]], b) == [c * w for w in times(a, b)]


def columns(*cols) -> np.ndarray:
    return np.array(cols, dtype=float).T.reshape(2, -1)


class TestNaryProduct:
    """The engine's n-ary product is ``combine``, one column per message;
    the tests' left fold of ``mul_entries`` from the one column and the
    closed form check it."""

    def test_three_pairs(self):
        items = columns([2, 1], [3, 1], [4, 1])
        assert entropy_fold(items).tolist() == [24, 26]
        assert ENTROPY.combine([items[:, [j]] for j in range(3)]).tolist() == [[24], [26]]

    def test_empty_is_one(self):
        assert entropy_fold(columns()).tolist() == ONE
        w = columns([0.7, -1.25])
        assert ENTROPY.combine([columns(ONE), w]).tolist() == w.tolist()

    def test_singleton(self):
        w = columns([0.7, -1.25])
        assert entropy_fold(w).tolist() == [0.7, -1.25]
        assert ENTROPY.combine([w]).tolist() == w.tolist()

    def test_equals_binary_fold_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            items = random_carrier(ENTROPY, n, rng, k)
            got = ENTROPY.combine([items[:, [j]] for j in range(n)])
            assert got[:, 0].tolist() == entropy_fold(items).tolist()

    def test_closed_form_matches_fold(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n, k = int(rng.integers(2, 13)), int(rng.integers(1, 4))
            items = random_carrier(ENTROPY, n, rng, k)
            for a, b in zip(entropy_product_closed_form(items), entropy_fold(items)):
                assert rel_err(a, b) <= 1e-9


@pytest.mark.parametrize("s", ALL, ids=lambda s: s.name)
def test_axioms_on_random_samples(s):
    rng = np.random.default_rng(17)
    report = verify_axioms(s, random_carrier(s, 12, rng), tol=1e-9)
    assert report.passed, report.failed


def test_boolean_axioms_exhaustive():
    report = verify_axioms(BOOLEAN, np.array([[0.0, 1.0]]), tol=0.0)
    assert report.passed
    assert report.max_violation == 0.0


class NoAuxTerm(EntropySemiring):
    # the product rule without a0 bc: the aux scales by b0 alone
    def mul_entries(self, a, b):
        a *= b[0]


class AuxAddsOnMultiply(EntropySemiring):
    # looks plausible (log-like bookkeeping), but the aux side is not
    # bilinear, so distributivity must fail
    def mul_entries(self, a, b):
        a[0] *= b[0]
        a[1:] += b[1:]


class MaxFold(EntropySemiring):
    fold = np.maximum


@pytest.mark.parametrize("s, k, law", [
    (NoAuxTerm(), 1, "mul commutativity"),
    (NoAuxTerm(), 3, "mul commutativity"),
    (AuxAddsOnMultiply(), 1, "distributivity"),
    (MaxFold(), 1, "distributivity"),
], ids=["no-aux-term-k1", "no-aux-term-k3", "aux-adds-on-multiply", "max-fold"])
def test_broken_kernels_fail_the_law_check(s, k, law):
    rng = np.random.default_rng(19)
    report = verify_axioms(s, rng.uniform(-4, 4, (k + 1, 8)), tol=1e-9)
    assert not report.passed
    assert law in report.failed


def test_get_semiring_names():
    for s in ALL:
        assert get_semiring(s.name) is s
    with pytest.raises(KeyError):
        get_semiring("tropical")


entropy_columns = st.tuples(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
).map(np.array)


@settings(max_examples=200, deadline=None)
@given(a=entropy_columns, b=entropy_columns, c=entropy_columns)
def test_entropy_distributivity_property(a, b, c):
    lhs = times(plus(a, b), c)
    rhs = plus(times(a, c), times(b, c))
    assert rel_err(lhs[0], rhs[0]) <= 1e-9
    assert rel_err(lhs[1], rhs[1]) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(a=entropy_columns, b=entropy_columns)
def test_entropy_mul_commutes_property(a, b):
    assert times(a, b) == times(b, a)


def test_lift_table_vectorized_matches_scalar_lift():
    # entry by entry, f with companion g lifts to (f, f * g), and a zero
    # score to (0, 0) whatever the companion claims: 0 * log 0 := 0
    rng = np.random.default_rng(23)
    values = rng.uniform(0, 2, 16)
    values[rng.integers(0, 16, 4)] = 0.0
    companion = rng.uniform(-5, 5, 16)
    for undefined in (-math.inf, math.inf, math.nan):
        companion[values == 0.0] = undefined
        scores, aux = ENTROPY.lift_table(values, companion).tolist()
        for i in range(16):
            f, g = float(values[i]), float(companion[i])
            assert (scores[i], aux[i]) == ((f, f * g) if f else (0.0, 0.0))
    assert ENTROPY.lift_table(values, None).tolist() == [values.tolist(), [0.0] * 16]
    assert ENTROPY.lift_table([0.0, 0.5, 1.0], [None, -1.0, 0.0]).tolist() == [
        [0.0, 0.5, 1.0], [0.0, -0.5, 0.0]]


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
