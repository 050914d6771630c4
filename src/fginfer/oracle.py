"""Brute-force reference answers by exhaustive enumeration.

Everything here walks the full joint assignment space directly, with no
message passing, no semiring dispatch, and no sharing of arithmetic with
the engine; it exists so the engine has something independent to be checked
against. There is one enumeration path: each variable's digit over the
flattened joint space as an array, and every assignment's product of table
entries as one vector. A hard guard refuses joint spaces above one million
assignments.

The joint index convention matches the table convention: the first declared
variable is the most significant digit.
"""

import math

import numpy as np

from .errors import TooLarge, ZeroEvidence

_GUARD = 1_000_000


def _joint_setup(g):
    """Per-variable digit vectors over the flattened joint space."""
    cards = g.ensure_checked().cards.tolist()
    total = math.prod(cards)
    if total > _GUARD:
        # log10 of the int: float(total) overflows past 1e308
        raise TooLarge(f"about 10^{math.log10(total):.1f} joint assignments exceed"
                       f" the {_GUARD} guard")
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


def _joint_products(g, digits):
    """Every assignment's product of tables."""
    tables = np.split(g.values, g.offsets[1:-1])
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

    ``companions`` come in the graph's layout or one per factor, where
    None counts as a zero table (see
    :meth:`~fginfer.graph.FactorGraph.lay_out`). Companion values under
    zero factor values never matter because the weight of such an
    assignment is zero.
    """
    _, total, digits = _joint_setup(g)
    prod = _joint_products(g, digits)
    gsum = np.zeros(total)
    if companions is not None:
        tables = np.split(g.lay_out(companions, "companion"), g.offsets[1:-1])
        for fi, table in enumerate(tables):
            gsum += table[_factor_indices(g, fi, digits)]
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


def max_product_value(g) -> float:
    """Best single-assignment weight, by enumeration."""
    _, _, digits = _joint_setup(g)
    return float(_joint_products(g, digits).max())
