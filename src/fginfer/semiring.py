"""Commutative semirings and the entropy (expectation) semiring.

A semiring here is a value algebra with two operations: a sum, ``fold``,
combines alternatives, and a product, ``mul_entries``, combines
co-occurring parts, with identities 0 and 1. The engine in
:mod:`fginfer.propagation` is written against the array kernels defined
on the base class, so swapping the algebra swaps the quantity computed
(partition function, max score, satisfiability, or the
partition/entropy pair) without touching the engine.

Every value of every semiring is a column of one float array of shape
(k + 1, n), its carrier: row 0 holds the scores, row c the aux of column
c. Real semirings have k = 0, and an entropy pass with 1-D companions has
k = 1. Entropy values are pairs (score, aux). Addition is componentwise;
the product is bilinear in the pair components:

    (x1, y1) * (x2, y2) = (x1*x2, x1*y2 + x2*y1)

which is the arithmetic of first-order dual numbers. Lifting a nonnegative
score f with a companion value g yields the pair (f, f*g), with the 0*log(0)
convention hard-wired: f = 0 lifts to (0, 0) no matter what g is.

The aux may also be a vector of width k, one column per companion: the
expectation semiring of Eisner (ACL 2002). A (k, n) companion lifts a table
to (f, f*g_1, ..., f*g_k), and every column follows the product rule above
against the one shared score, so a single pass computes k totals
H_1 ... H_k next to Z. Width is a property of the data, not of the
semiring: the one ``ENTROPY`` instance serves every width.

The kernels take batches, many messages side by side along the last
axis, so the level plan of :mod:`fginfer.propagation` runs a whole group
of messages with one call of each kernel, and the per-edge reference of
the tests (``tests/stepwise.py``) runs one message with the same calls.
:func:`verify_axioms` checks the semiring laws on these same kernels. The
four semirings share the kernels and differ in two places only: the
reduction (a sequential sum for sum-product and entropy, a sequential max
for max-product and Boolean, whose 0/1 lift makes the product a min) and
entropy's product rule on the aux rows. Reductions run left to right in
table order from the semiring zero, never pairwise, so a message does not
depend on the batch it was computed in; the score row of an entropy pass
is the sum-product pass bit for bit, and each aux column of a width-k
pass is the width-1 pass with that column's companion bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np


class Semiring:
    """Base class: the array kernels of a semiring, on (k + 1, n) carriers.

    The base is the arithmetic of the real semirings, which differ only in
    ``fold``, the ufunc of their sum: np.add for sum-product, np.maximum
    for max-product and Boolean, whose 0/1 lift makes the product a min.
    The entropy semiring changes the carrier and the product rule
    ``mul_entries``.
    """

    name = "abstract"
    fold = np.add

    def lift_table(self, values: np.ndarray, companion: np.ndarray | None = None):
        """A flat table as carrier rows, shape (k + 1, n); real semirings
        ignore the companion."""
        return np.asarray(values, dtype=float).reshape(1, -1)

    def mul_entries(self, a: np.ndarray, b: np.ndarray) -> None:
        """Entrywise product of two carriers, into a; b broadcasts
        against a."""
        a *= b

    def combine(self, msgs: list) -> np.ndarray:
        """Pointwise product of two or more message batches, left to right.

        ``msgs[0]`` covers every entry; a later batch may cover only a
        prefix of the entries, which it multiplies. Returns a fresh array.
        """
        out = msgs[0].copy()
        for q in msgs[1:]:
            self.mul_entries(out[:, :q.shape[-1]], q)
        return out

    def contract(self, table: np.ndarray, incoming: list, out: np.ndarray,
                 n_out: int) -> np.ndarray:
        """Factor-to-variable messages of a batch of table entries.

        ``table`` holds freshly gathered carrier entries and each array of
        ``incoming`` the matching entries of one incoming message, in scope
        order, over a prefix of the table entries as in :meth:`combine`;
        the product runs table first, then the incoming messages in order,
        in place in ``table``, and :meth:`reduce` sums the products into
        the ``n_out`` outputs ``out`` names. Returns the (k + 1, n_out)
        outputs.
        """
        for q in incoming:
            self.mul_entries(table[:, :q.shape[-1]], q)
        return self.reduce(table, out, n_out)

    def reduce(self, x: np.ndarray, out: np.ndarray, n_out: int) -> np.ndarray:
        """Output i reduces the entries of x that ``out`` sends to i, left
        to right from zero: ``ufunc.at`` applies the entries one by one, in
        their order in x (``np.sum`` adds pairwise, in another order)."""
        res = np.zeros((len(x), n_out))
        for row, entries in zip(res, x):
            self.fold.at(row, out, entries)
        return res

    def max_abs_score(self, msgs: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Largest score magnitude of each message of a batch; message i
        starts at entry ``starts[i]``."""
        return np.maximum.reduceat(np.abs(msgs[0]), starts)

    def scale_msg_inplace(self, msgs: np.ndarray, factors) -> None:
        """Multiply every entry by its factor (a scalar, or one per entry)."""
        msgs *= factors

    def reduce_msg(self, msg: np.ndarray) -> np.ndarray:
        """Semiring sum over the entries of one message: its (k + 1,)
        total, score first."""
        return self.reduce(msg, np.zeros(msg.shape[1], dtype=int), 1)[:, 0]

    def __repr__(self):
        return f"<semiring {self.name}>"


class SumProductSemiring(Semiring):
    """Ordinary (+, *) over the reals: partition functions and marginals."""

    name = "sum-product"


class MaxProductSemiring(Semiring):
    """(max, *) over the nonnegative reals: best single-assignment score."""

    name = "max-product"
    fold = np.maximum


class BooleanSemiring(Semiring):
    """(or, and) over {0, 1}: satisfiability of the support."""

    name = "boolean"
    fold = np.maximum

    def lift_table(self, values, companion=None):
        return (np.asarray(values, dtype=float).reshape(1, -1) != 0.0).astype(float)


class EntropySemiring(Semiring):
    """Pairs (score, aux) with bilinear product; computes (Z, H) jointly.

    Row 0 of a carrier holds the scores and follows the sum-product
    arithmetic exactly; rows 1..k follow the product rule against it.
    """

    name = "entropy"

    def lift_table(self, values, companion=None):
        """Lift a length-n table and its companion to (k + 1, n) rows.

        An entry f with companion g lifts to (f, f*g), and zero values give
        (0, 0) whatever the companion holds. No companion (aux 0) or a
        length-n one gives k = 1; a (k, n) companion holds k columns. The
        carrier is the one allocation: a fresh page faults in at ~1.3 us (2-vCPU VM).
        """
        values = np.asarray(values, dtype=float)
        g = np.asarray(0.0 if companion is None else companion, dtype=float)
        out = np.empty((len(g) + 1 if g.ndim == 2 else 2, values.size))
        out[0] = values
        with np.errstate(invalid="ignore"):
            np.multiply(values, g, out=out[1:])
        np.copyto(out[1:], 0.0, where=(values == 0.0) | (companion is None))
        return out

    def mul_entries(self, a, b):
        # row 0: a0 b0; row c: ac b0 + a0 bc, the pair product per column
        aux = a[0] * b[1:]
        a *= b[0]
        a[1:] += aux


SUM_PRODUCT = SumProductSemiring()
MAX_PRODUCT = MaxProductSemiring()
BOOLEAN = BooleanSemiring()
ENTROPY = EntropySemiring()

SEMIRINGS = {s.name: s for s in (SUM_PRODUCT, MAX_PRODUCT, BOOLEAN, ENTROPY)}


def get_semiring(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise KeyError(f"unknown semiring {name!r}; known: {sorted(SEMIRINGS)}") from None


class AxiomReport(NamedTuple):
    """Outcome of a semiring law check over a sample of carrier columns:
    the worst violation, and the names of the laws past the tolerance."""

    semiring: str
    passed: bool
    max_violation: float
    failed: tuple


def _violation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    # relative for large magnitudes, absolute near zero; avoids the 0/0
    # blowup when signed components cancel
    d = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return math.inf if np.isnan(d).any() else float(np.max(d, initial=0.0))


def verify_axioms(s: Semiring, samples: np.ndarray, tol: float = 1e-9) -> AxiomReport:
    """Check the semiring laws through the kernels every pass runs,
    ``s.mul_entries`` and ``s.fold``, on the columns of one (k + 1, n)
    carrier.

    Checks both identities and the annihilating zero on every column,
    commutativity of both operations on all n^2 ordered pairs, and
    associativity of both plus distributivity from either side on all
    n^3 ordered triples, each law as one broadcast array operation. The
    identities are the constant columns 0 and (1, 0, ..., 0). Violations
    are measured entrywise as |lhs - rhs| / max(1, |lhs|, |rhs|), and a
    NaN is a violation. Returns a report rather than raising, so broken
    candidate algebras can be inspected.
    """
    x = np.asarray(samples, dtype=float)
    zero = np.zeros((len(x), 1))
    one = zero.copy()
    one[0] = 1.0
    plus = s.fold

    def times(p, q):
        out = np.broadcast_to(p, np.broadcast_shapes(p.shape, q.shape)).copy()
        s.mul_entries(out, q)
        return out

    a, b, c = x[:, :, None, None], x[:, None, :, None], x[:, None, None, :]
    laws = {
        "additive identity": [(plus(x, zero), x), (plus(zero, x), x)],
        "multiplicative identity": [(times(x, one), x), (times(one, x), x)],
        "annihilation": [(times(x, zero), zero), (times(zero, x), zero)],
        "add commutativity": [(plus(a, b), plus(b, a))],
        "mul commutativity": [(times(a, b), times(b, a))],
        "add associativity": [(plus(plus(a, b), c), plus(a, plus(b, c)))],
        "mul associativity": [(times(times(a, b), c), times(a, times(b, c)))],
        "distributivity": [(times(plus(a, b), c), plus(times(a, c), times(b, c))),
                           (times(c, plus(a, b)), plus(times(c, a), times(c, b)))],
    }
    worst = {law: max(_violation(lhs, rhs) for lhs, rhs in sides)
             for law, sides in laws.items()}
    return AxiomReport(
        semiring=s.name,
        passed=all(w <= tol for w in worst.values()),
        max_violation=max(worst.values()),
        failed=tuple(law for law, w in worst.items() if w > tol),
    )
