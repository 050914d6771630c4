"""Brute-force reference answers by exhaustive enumeration.

Everything here walks the full joint assignment space directly, with no
message passing, no semiring dispatch, and no sharing of arithmetic with
the engine; it exists so the engine has something independent to be checked
against. A hard guard refuses joint spaces above one million assignments.

The joint index convention matches the table convention: the first declared
variable is the most significant digit.
"""

import math

import numpy as np

from .errors import TooLarge, ZeroEvidence

_GUARD = 1_000_000


class AssignmentIterator:
    """Odometer over all joint assignments of the given cardinalities.

    Yields tuples in lexicographic order, last position fastest. Purely
    local arithmetic; used for small spot checks and anywhere an explicit
    assignment stream reads better than index math.
    """

    def __init__(self, cards):
        self.cards = [int(c) for c in cards]
        if any(c < 1 for c in self.cards):
            raise ValueError("cardinalities must be >= 1")
        total = 1
        for c in self.cards:
            total *= c
        if total > _GUARD:
            raise TooLarge(f"{total} joint assignments exceed the {_GUARD} guard")
        self.total = total

    def __len__(self):
        return self.total

    def __iter__(self):
        cards = self.cards
        n = len(cards)
        cur = [0] * n
        for _ in range(self.total):
            yield tuple(cur)
            for p in range(n - 1, -1, -1):
                cur[p] += 1
                if cur[p] < cards[p]:
                    break
                cur[p] = 0


def _joint_setup(g):
    """Per-variable digit vectors over the flattened joint space."""
    cards = g.ensure_checked().cards.tolist()
    total = math.prod(cards)
    if total > _GUARD:
        raise TooLarge(f"{total} joint assignments exceed the {_GUARD} guard")
    idx = np.arange(total)
    digits = []
    stride = total
    for c in cards:
        stride //= c
        digits.append((idx // stride) % c)
    return cards, total, digits


def _factor_indices(g, fi, digits):
    """Flat table index of factor fi under every joint assignment."""
    flat = 0
    for vi in g.scope_vars[g.scope_offsets[fi]:g.scope_offsets[fi + 1]].tolist():
        flat = flat * int(g.cards[vi]) + digits[vi]
    return flat


def _joint_products(g, digits, values=None):
    """Every assignment's product of tables; ``values`` replaces g's own."""
    tables = np.split(g.values if values is None else values, g.offsets[1:-1])
    prod = None
    for fi, table in enumerate(tables):
        term = table[_factor_indices(g, fi, digits)]
        prod = term if prod is None else prod * term
    return prod


def enumerate_z(g) -> float:
    """Total weight: the sum over all joint assignments of the factor product."""
    _, _, digits = _joint_setup(g)
    return float(_joint_products(g, digits).sum())


def enumerate_marginal(g, var_id: str) -> np.ndarray:
    """Unnormalized marginal of one variable by direct summation."""
    cards, _, digits = _joint_setup(g)
    vi = g.variable_position(var_id)
    prod = _joint_products(g, digits)
    return np.bincount(digits[vi], weights=prod, minlength=cards[vi])


def enumerate_h(g, companions) -> float:
    """The aux total: sum over assignments of (product of f) * (sum of g).

    ``companions`` aligns with the factors; None entries count as zero
    tables. Companion values under zero factor values never matter because
    the weight of such an assignment is zero.
    """
    _, total, digits = _joint_setup(g)
    prod = _joint_products(g, digits)
    gsum = np.zeros(total)
    for fi in range(len(g.offsets) - 1):
        comp = companions[fi] if companions is not None else None
        if comp is None:
            continue
        comp = np.asarray(comp, dtype=float).ravel()
        gsum += comp[_factor_indices(g, fi, digits)]
    return float((prod * gsum).sum())


def enumerate_entropy(g) -> float:
    """Entropy in bits of the normalized distribution the graph defines."""
    _, _, digits = _joint_setup(g)
    prod = _joint_products(g, digits)
    z = float(prod.sum())
    if z <= 1e-300:
        raise ZeroEvidence(f"total weight {z} is numerically zero")
    p = prod / z
    pos = p[p > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def fd_gradient(pf, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the brute-force total weight.

    Evaluates p(theta) = sum over assignments of the product of the
    parametric tables, by enumeration, at theta +- h per component.
    """
    theta = np.asarray(theta, dtype=float)

    def p_of(t):
        tables = pf.tables_at(t)
        g = pf.structure_graph()
        _, _, digits = _joint_setup(g)
        return float(_joint_products(g, digits, tables).sum())

    grad = np.zeros(theta.size)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (p_of(up) - p_of(dn)) / (2.0 * h)
    return grad


def max_product_value(g) -> float:
    """Best single-assignment weight, by enumeration."""
    _, _, digits = _joint_setup(g)
    return float(_joint_products(g, digits).max())


def boolean_satisfiable(g) -> float:
    """1.0 if some assignment has every factor nonzero, else 0.0."""
    _, _, digits = _joint_setup(g)
    return 1.0 if bool((_joint_products(g, digits) != 0.0).any()) else 0.0


def brute_total(cards, weight_fn) -> float:
    """Sum weight_fn over every assignment via the odometer iterator."""
    acc = 0.0
    for a in AssignmentIterator(cards):
        acc += weight_fn(a)
    return acc


def log2_or_zero(x: float) -> float:
    """log2 with the 0 -> 0 convention used by entropy companions."""
    return 0.0 if x == 0.0 else math.log2(x)
