"""Commutative semirings and the entropy (expectation) semiring.

A semiring here is a value algebra with two operations: ``add`` combines
alternatives, ``mul`` combines co-occurring parts, with identities ``zero``
and ``one``. The engine in :mod:`fginfer.propagation` is written against the
vector kernels defined on each semiring class, so swapping the algebra swaps
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

Message vectors exchanged with the engine are plain Python lists of floats
(real semirings), a pair of such lists (scores, auxes) for width-1 entropy
messages, and one float array of shape (k + 1, card) for width-k entropy
messages: row 0 holds the scores, row c the aux of column c. All tables
of one pass share one width (:func:`fginfer.propagation.lift_tables`
widens the others); the only width-1 pair in a width-k pass is a leaf's
all-ones message, which counts as the same aux in every column. The real and
width-1 kernels are hand-written loops: the engine pushes hundreds of
thousands of tiny messages on long chains, where per-call array overhead
would dominate actual work. The width-k kernels are array expressions
whose sums run sequentially in table order. Every entropy kernel mirrors
the sum-product kernel operation for operation on the score component, so
a run over the entropy semiring reproduces the sum-product run bit for bit
in its first components, and each aux column of a width-k run reproduces
the width-1 run with that column's companion bit for bit.
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
    """Base class: scalar operations plus vector kernels used by the engine.

    Subclasses fix the carrier and implement both layers. Scalar weights are
    floats except for the entropy semiring, whose weights are (score, aux)
    pairs.
    """

    name = "abstract"
    zero: object = None
    one: object = None

    # scalar layer
    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def product(self, items):
        """Left fold of mul over items, starting from the identity."""
        acc = self.one
        for x in items:
            acc = self.mul(acc, x)
        return acc

    # vector layer; messages are lists (or a pair of lists) of length card
    def lift_table(self, values: np.ndarray, companion: np.ndarray | None = None):
        raise NotImplementedError

    def ones_msg(self, card: int):
        raise NotImplementedError

    def combine(self, msgs: list, card: int):
        """Pointwise product of message vectors; empty input gives ones.

        A single input is returned as is (aliased), never copied.
        """
        raise NotImplementedError

    def contract(self, table, cards: Sequence[int], incoming, target_pos: int):
        """Sum the table times incoming messages onto one scope position.

        ``incoming`` holds (pos, msg) for scope positions other than
        ``target_pos``; positions without a message are simply absent, which
        only happens for unary factors. Tables are flat, mixed radix with
        the first scope position most significant. Always returns a fresh
        vector.
        """
        raise NotImplementedError

    def reduce_msg(self, msg):
        """Semiring sum over the entries of a message vector."""
        raise NotImplementedError

    def max_abs_score(self, msg) -> float:
        raise NotImplementedError

    def scale_msg_inplace(self, msg, factor: float) -> None:
        raise NotImplementedError

    def scores(self, msg) -> list:
        """First (score) components of a message vector, as a list."""
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.name}>"


class _RealSemiring(Semiring):
    """Shared vector kernels for semirings whose carrier is a float."""

    def ones_msg(self, card):
        return [self.one] * card

    def combine(self, msgs, card):
        if not msgs:
            return self.ones_msg(card)
        if len(msgs) == 1:
            return msgs[0]
        mul = self.mul
        out = list(msgs[0])
        for q in msgs[1:]:
            for i in range(card):
                out[i] = mul(out[i], q[i])
        return out

    def contract(self, table, cards, incoming, target_pos):
        add = self.add
        mul = self.mul
        if len(cards) == 2 and len(incoming) == 1 and type(self) is SumProductSemiring:
            # pairwise fast path, plain arithmetic; mirrored in the entropy class
            q = incoming[0][1]
            c0, c1 = cards
            if target_pos == 0:
                out = []
                for i in range(c0):
                    base = i * c1
                    s = 0.0
                    for j in range(c1):
                        s += table[base + j] * q[j]
                    out.append(s)
                return out
            out = []
            for j in range(c1):
                s = 0.0
                idx = j
                for i in range(c0):
                    s += table[idx] * q[i]
                    idx += c1
                out.append(s)
            return out
        # general path: walk the table once in linear order
        strides = _strides(cards)
        resolved = [(strides[p], cards[p], q) for p, q in incoming]
        tstride = strides[target_pos]
        tcard = cards[target_pos]
        out = [self.zero] * tcard
        for i in range(len(table)):
            s = table[i]
            for stride, card, q in resolved:
                s = mul(s, q[(i // stride) % card])
            t = (i // tstride) % tcard
            out[t] = add(out[t], s)
        return out

    def reduce_msg(self, msg):
        add = self.add
        acc = self.zero
        for v in msg:
            acc = add(acc, v)
        return acc

    def max_abs_score(self, msg):
        mx = 0.0
        for v in msg:
            if v < 0.0:
                v = -v
            if v > mx:
                mx = v
        return mx

    def scale_msg_inplace(self, msg, factor):
        for i in range(len(msg)):
            msg[i] *= factor

    def scores(self, msg):
        return list(msg)


class SumProductSemiring(_RealSemiring):
    """Ordinary (+, *) over the reals: partition functions and marginals."""

    name = "sum-product"
    zero = 0.0
    one = 1.0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def lift_table(self, values, companion=None):
        # companions carry no meaning here and are ignored
        return np.asarray(values, dtype=float).tolist()


class MaxProductSemiring(_RealSemiring):
    """(max, *) over the nonnegative reals: best single-assignment score."""

    name = "max-product"
    zero = 0.0
    one = 1.0

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a * b

    def lift_table(self, values, companion=None):
        return np.asarray(values, dtype=float).tolist()


class BooleanSemiring(_RealSemiring):
    """(or, and) over {0, 1}: satisfiability of the support."""

    name = "boolean"
    zero = 0.0
    one = 1.0

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a if a <= b else b

    def lift_table(self, values, companion=None):
        return [1.0 if v != 0.0 else 0.0 for v in np.asarray(values, dtype=float).ravel()]


class EntropySemiring(Semiring):
    """Pairs (score, aux) with bilinear product; computes (Z, H) jointly.

    Width-1 message vectors are a pair of parallel float lists (scores,
    auxes); width-k ones a (k + 1, card) array, scores in row 0 (see the
    module docstring). Every score-component operation below matches the
    sum-product kernel line for line, which is what makes first-component
    shadowing exact.
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
        """Lift a table and its companion to the carrier pair (scores, auxes).

        Entries lift as in :func:`lift`, so zero values give (0, 0) whatever
        the companion holds. A 2-D input (one table per row, with a companion
        of the same shape) is lifted row by row: both components come back as
        lists of per-row lists. A (k, n) companion of a length-n table holds
        k columns and lifts to one width-k (k + 1, n) array.
        """
        values = np.asarray(values, dtype=float)
        if companion is None:
            aux = np.zeros_like(values)
        else:
            companion = np.asarray(companion, dtype=float)
            with np.errstate(invalid="ignore"):
                aux = np.where(values == 0.0, 0.0, values * companion)
            if aux.ndim > values.ndim:
                return np.vstack((values, aux))
        return (values.tolist(), aux.tolist())

    def ones_msg(self, card):
        return ([1.0] * card, [0.0] * card)

    def combine(self, msgs, card):
        if not msgs:
            return self.ones_msg(card)
        if len(msgs) == 1:
            return msgs[0]
        if type(msgs[0]) is not tuple:
            out = msgs[0]
            for q in msgs[1:]:
                out = _mul_rows(out, q)
            return out
        rf = list(msgs[0][0])
        ra = list(msgs[0][1])
        for qf, qa in msgs[1:]:
            for i in range(card):
                f = rf[i]
                a = ra[i]
                mf = qf[i]
                rf[i] = f * mf
                ra[i] = f * qa[i] + a * mf
        return (rf, ra)

    def contract(self, table, cards, incoming, target_pos):
        if type(table) is not tuple:
            return _contract_rows(table, cards, incoming, target_pos)
        tf, ta = table
        if len(cards) == 2 and len(incoming) == 1:
            # pairwise fast path; the score lines mirror the sum-product path
            qf, qa = incoming[0][1]
            c0, c1 = cards
            if target_pos == 0:
                of = []
                oa = []
                for i in range(c0):
                    base = i * c1
                    sf = 0.0
                    sa = 0.0
                    for j in range(c1):
                        f = tf[base + j]
                        sf += f * qf[j]
                        sa += f * qa[j] + ta[base + j] * qf[j]
                    of.append(sf)
                    oa.append(sa)
                return (of, oa)
            of = []
            oa = []
            for j in range(c1):
                sf = 0.0
                sa = 0.0
                idx = j
                for i in range(c0):
                    f = tf[idx]
                    sf += f * qf[i]
                    sa += f * qa[i] + ta[idx] * qf[i]
                    idx += c1
                of.append(sf)
                oa.append(sa)
            return (of, oa)
        strides = _strides(cards)
        resolved = [(strides[p], cards[p], q[0], q[1]) for p, q in incoming]
        tstride = strides[target_pos]
        tcard = cards[target_pos]
        of = [0.0] * tcard
        oa = [0.0] * tcard
        for i in range(len(tf)):
            sf = tf[i]
            sa = ta[i]
            for stride, card, qf, qa in resolved:
                j = (i // stride) % card
                mf = qf[j]
                sf, sa = sf * mf, sf * qa[j] + sa * mf
            t = (i // tstride) % tcard
            of[t] += sf
            oa[t] += sa
        return (of, oa)

    def reduce_msg(self, msg):
        if type(msg) is not tuple:
            total = _sum_last(msg)
            return EntropyWeight(float(total[0]), total[1:])
        mf, ma = msg
        sf = 0.0
        sa = 0.0
        for i in range(len(mf)):
            sf += mf[i]
            sa += ma[i]
        return EntropyWeight(sf, sa)

    def max_abs_score(self, msg):
        mx = 0.0
        for v in (msg[0] if type(msg) is tuple else msg[0].tolist()):
            if v < 0.0:
                v = -v
            if v > mx:
                mx = v
        return mx

    def scale_msg_inplace(self, msg, factor):
        if type(msg) is not tuple:
            msg *= factor
            return
        mf, ma = msg
        for i in range(len(mf)):
            mf[i] *= factor
            ma[i] *= factor

    def scores(self, msg):
        if type(msg) is not tuple:
            return msg[0].tolist()
        return list(msg[0])


def _rows(msg) -> np.ndarray:
    """A message as rows: a width-1 pair (a leaf's all-ones message)
    becomes a 2-row array."""
    return msg if type(msg) is not tuple else np.array(msg)


def _mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two row-stacked carriers (broadcasting).

    Row 0: a0 b0; row c: ac b0 + a0 bc, the width-1 product rule per
    column. A single aux row of b broadcasts against the k of a.
    """
    out = a * b[0]
    out[1:] += a[0] * b[1:]
    return out


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis from 0.0, left to right as the loops add
    (``np.sum`` adds pairwise, in another order)."""
    out = x[..., 0] + 0.0
    for i in range(1, x.shape[-1]):
        out += x[..., i]
    return out


def _contract_rows(table, cards, incoming, target_pos) -> np.ndarray:
    """Width-k contraction: the generic path of the width-1 kernel, with
    every table entry's product chain computed at once.

    Products run over the incoming messages in their order, as in the
    loops; each target entry then sums its table entries in table order.
    """
    nd = len(cards)
    t = table.reshape((-1, *cards))
    for pos, q in incoming:
        shape = [1] * (nd + 1)
        shape[0] = -1
        shape[pos + 1] = cards[pos]
        t = _mul_rows(t, _rows(q).reshape(shape))
    axes = [0, target_pos + 1] + [p + 1 for p in range(nd) if p != target_pos]
    return _sum_last(t.transpose(axes).reshape(len(t), cards[target_pos], -1))


def _strides(cards: Sequence[int]) -> list[int]:
    # first position most significant
    out = [1] * len(cards)
    for p in range(len(cards) - 2, -1, -1):
        out[p] = out[p + 1] * cards[p + 1]
    return out


SUM_PRODUCT = SumProductSemiring()
MAX_PRODUCT = MaxProductSemiring()
BOOLEAN = BooleanSemiring()
ENTROPY = EntropySemiring()

SEMIRINGS = {
    SUM_PRODUCT.name: SUM_PRODUCT,
    MAX_PRODUCT.name: MAX_PRODUCT,
    BOOLEAN.name: BOOLEAN,
    ENTROPY.name: ENTROPY,
}


def get_semiring(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise KeyError(f"unknown semiring {name!r}; known: {sorted(SEMIRINGS)}") from None


def nary_product(s: Semiring, items) -> object:
    """Product of many weights: the left fold of mul from the identity."""
    return s.product(items)


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
