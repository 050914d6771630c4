"""Commutative semirings and the entropy (expectation) semiring.

A semiring here is a value algebra with two operations: ``add`` combines
alternatives, ``mul`` combines co-occurring parts, with identities ``zero``
and ``one``. The engine in :mod:`fginfer.propagation` is written against the
array kernels defined on the base class, so swapping the algebra swaps
the quantity computed (partition function, max score, satisfiability, or the
partition/entropy pair) without touching the engine.

Entropy weights are pairs (score, aux). Addition is componentwise; the
product is bilinear in the pair components:

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

Every message and every lifted table of every semiring is one float array
of shape (k + 1, n): row 0 holds the scores, row c the aux of column c.
Real semirings have k = 0, and an entropy pass with 1-D companions has
k = 1. The kernels take batches, many messages side by side along the
last axis, so the level plan of :mod:`fginfer.propagation` runs a whole
group of messages with one call of each kernel and the per-edge step API
runs one message with the same calls. The four semirings share the
kernels and differ in two places only: the reduction (a sequential sum
for sum-product and entropy, a sequential max for max-product and
Boolean, whose 0/1 lift makes the product a min) and entropy's product
rule on the aux rows. Reductions run left to right in table order from
the semiring zero, never pairwise, so a message does not depend on the
batch it was computed in; the score row of an entropy pass is the
sum-product pass bit for bit, and each aux column of a width-k pass is
the width-1 pass with that column's companion bit for bit.
"""

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


class EntropyWeight(NamedTuple):
    """A pair (score, aux): score multiplies, aux follows the product rule.

    ``aux`` is a float, or a length-k array for a width-k total.
    """

    score: float
    aux: float | np.ndarray


def lift(f: float, g: float | None = None) -> EntropyWeight:
    """Lift a score f and companion g to the pair (f, f*g).

    f = 0 yields (0, 0) regardless of g, so g may be left undefined (None)
    where the score vanishes. This bakes in the 0*log(0) = 0 convention.
    """
    if f == 0.0:
        return EntropyWeight(0.0, 0.0)
    return EntropyWeight(float(f), float(f) * float(g))


class Semiring:
    """Base class: the scalar operations and array kernels of a semiring.

    The base is the arithmetic of the real semirings, which differ only in
    ``fold``, the ufunc of their sum: np.add for sum-product, np.maximum
    for max-product and Boolean, whose 0/1 lift makes the product a min.
    The entropy semiring changes the carrier and the product rule
    ``mul_entries``.
    """

    name = "abstract"
    zero: object = 0.0
    one: object = 1.0
    fold = np.add

    # scalar layer
    def add(self, a, b):
        return float(self.fold(a, b))

    def mul(self, a, b):
        return a * b

    def product(self, items):
        """Left fold of mul over items, starting from the identity."""
        acc = self.one
        for x in items:
            acc = self.mul(acc, x)
        return acc

    # array layer
    def lift_table(self, values: np.ndarray, companion: np.ndarray | None = None):
        """A flat table as carrier rows, shape (k + 1, n); real semirings
        ignore the companion."""
        return np.asarray(values, dtype=float).reshape(1, -1)

    def mul_entries(self, a: np.ndarray, b: np.ndarray) -> None:
        """Entrywise product of two carriers of equal shape, into a."""
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

    def contract(self, table: np.ndarray, incoming: list, terms: np.ndarray) -> np.ndarray:
        """Factor-to-variable messages of a batch of table entries.

        ``table`` holds carrier entries and each array of ``incoming`` the
        matching entries of one incoming message, in scope order, over a
        prefix of the table entries as in :meth:`combine`; the product
        runs table first, then the incoming messages in order. Row i of
        ``terms`` lists the entries that output entry i sums, in table
        order; the index -1 stands for a 0 that pads short rows. Returns
        the (k + 1, len(terms)) outputs.
        """
        prod = np.zeros((len(table), table.shape[1] + 1))
        prod[:, :-1] = table
        for q in incoming:
            self.mul_entries(prod[:, :q.shape[-1]], q)
        return self.reduce_terms(prod, terms)

    def reduce_terms(self, x: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Column i of the result reduces the entries ``terms[i]`` of x, left
        to right from zero (``np.sum`` adds pairwise, in another order)."""
        fold = self.fold
        out = fold(x[:, terms[:, 0]], 0.0)
        for j in range(1, terms.shape[1]):
            fold(out, x[:, terms[:, j]], out=out)
        return out

    def max_abs_score(self, msgs: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Largest score magnitude of each message of a batch; message i
        starts at entry ``starts[i]``."""
        return np.maximum.reduceat(np.abs(msgs[0]), starts)

    def scale_msg_inplace(self, msgs: np.ndarray, factors) -> None:
        """Multiply every entry by its factor (a scalar, or one per entry)."""
        msgs *= factors

    def reduce_msg(self, msg: np.ndarray):
        """Semiring sum over the entries of one message, as a weight."""
        return float(self._total(msg)[0])

    def _total(self, msg: np.ndarray) -> np.ndarray:
        return self.reduce_terms(msg, np.arange(msg.shape[1])[None, :])[:, 0]

    def scores(self, msg: np.ndarray) -> list:
        """Score row of a message, as a list of floats."""
        return msg[0].tolist()

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
    zero = EntropyWeight(0.0, 0.0)
    one = EntropyWeight(1.0, 0.0)

    def add(self, a, b):
        return EntropyWeight(a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        x1, y1 = float(a[0]), float(a[1])
        x2, y2 = float(b[0]), float(b[1])
        return EntropyWeight(x1 * x2, x1 * y2 + x2 * y1)

    def lift_table(self, values, companion=None):
        """Lift a length-n table and its companion to (k + 1, n) rows.

        Entries lift as in :func:`lift`, so zero values give (0, 0) whatever
        the companion holds. No companion or a length-n one gives k = 1; a
        (k, n) companion holds k columns.
        """
        values = np.asarray(values, dtype=float)
        if companion is None:
            return np.vstack((values, np.zeros_like(values)))
        with np.errstate(invalid="ignore"):
            aux = np.where(values == 0.0, 0.0, values * np.asarray(companion, dtype=float))
        return np.vstack((values, aux))

    def mul_entries(self, a, b):
        # row 0: a0 b0; row c: ac b0 + a0 bc, the pair product per column
        aux = a[0] * b[1:]
        a *= b[0]
        a[1:] += aux

    def reduce_msg(self, msg):
        """(score, aux) totals; the aux is a float for a width-1 message."""
        total = self._total(msg)
        return EntropyWeight(float(total[0]), float(total[1]) if len(total) == 2 else total[1:])


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


def entropy_product_closed_form(pairs: Sequence) -> EntropyWeight:
    """Closed form for an n-ary entropy product.

    The score is the product of all scores; the aux is the sum, over each
    position m, of aux_m times the product of every other score. Used as an
    independent check against the folded product, not by the engine.
    """
    pairs = [(float(p[0]), float(p[1])) for p in pairs]
    total = 1.0
    for x, _ in pairs:
        total *= x
    aux = 0.0
    for m in range(len(pairs)):
        term = pairs[m][1]
        for j in range(len(pairs)):
            if j != m:
                term *= pairs[j][0]
        aux += term
    return EntropyWeight(total, aux)


@dataclass
class AxiomViolation:
    axiom: str
    operands: tuple
    lhs: object
    rhs: object
    violation: float


@dataclass
class AxiomReport:
    """Outcome of a semiring law check over a sample of weights."""

    semiring: str
    passed: bool
    max_violation: float
    checks: int
    failures: list[AxiomViolation] = field(default_factory=list)

    def failed_axioms(self) -> set[str]:
        return {f.axiom for f in self.failures}


def _components(w) -> tuple:
    if isinstance(w, (tuple, list)):
        return tuple(float(c) for c in w)
    return (float(w),)


def _violation(lhs, rhs) -> float:
    # relative for large magnitudes, absolute near zero; avoids the 0/0
    # blowup when signed components cancel
    worst = 0.0
    for lc, rc in zip(_components(lhs), _components(rhs)):
        d = abs(lc - rc) / max(1.0, abs(lc), abs(rc))
        if d > worst:
            worst = d
    return worst


def verify_axioms(s, samples: Sequence, tol: float = 1e-9, max_failures: int = 50) -> AxiomReport:
    """Check the semiring laws on every pair and triple of the samples.

    Checks both identities on each sample, commutativity of both operations
    on each ordered pair, and associativity plus both distributivity sides
    on each ordered triple. Violations are measured componentwise as
    |lhs - rhs| / max(1, |lhs|, |rhs|). Returns a report rather than
    raising, so broken candidate algebras can be inspected.
    """
    failures: list[AxiomViolation] = []
    max_v = 0.0
    checks = 0

    def record(axiom, operands, lhs, rhs):
        nonlocal max_v, checks
        checks += 1
        v = _violation(lhs, rhs)
        if v > max_v:
            max_v = v
        if v > tol and len(failures) < max_failures:
            failures.append(AxiomViolation(axiom, operands, lhs, rhs, v))

    for a in samples:
        record("additive identity", (a,), s.add(a, s.zero), a)
        record("multiplicative identity", (a,), s.mul(a, s.one), a)
    for a, b in itertools.product(samples, repeat=2):
        record("add commutativity", (a, b), s.add(a, b), s.add(b, a))
        record("mul commutativity", (a, b), s.mul(a, b), s.mul(b, a))
    for a, b, c in itertools.product(samples, repeat=3):
        record("add associativity", (a, b, c), s.add(s.add(a, b), c), s.add(a, s.add(b, c)))
        record("mul associativity", (a, b, c), s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)))
        record("distributivity", (a, b, c), s.mul(s.add(a, b), c), s.add(s.mul(a, c), s.mul(b, c)))
        record("distributivity", (a, b, c), s.mul(c, s.add(a, b)), s.add(s.mul(c, a), s.mul(c, b)))

    return AxiomReport(
        semiring=getattr(s, "name", type(s).__name__),
        passed=max_v <= tol,
        max_violation=max_v,
        checks=checks,
        failures=failures,
    )


def random_weights(s: Semiring, n: int, rng: np.random.Generator) -> list:
    """Draw n weights valid for the given semiring's carrier."""
    if s.name == "entropy":
        vals = rng.uniform(-10.0, 10.0, size=(n, 2))
        return [EntropyWeight(float(x), float(y)) for x, y in vals]
    if s.name == "boolean":
        return [float(v) for v in rng.integers(0, 2, size=n)]
    if s.name == "max-product":
        return [float(v) for v in rng.uniform(0.0, 10.0, size=n)]
    return [float(v) for v in rng.uniform(-10.0, 10.0, size=n)]
