"""Partition/entropy runs: factor graphs whose tables carry companions.

A :class:`WeightedGraph`, the one input of this module, pairs every
nonnegative table f of a graph with a companion table g of the same
shape; running the engine over the entropy semiring on the lifted pairs
(f, f*g) returns, in one pass, the pair

    Z = sum_x prod_m f_m(x_m)
    H = sum_x prod_m f_m(x_m) * sum_m g_m(x_m)

When every companion is the base-2 log of its table, those two numbers
give the entropy of the distribution the graph defines:

    H(X) = -H/Z + log2(Z)   [bits]

which is exactly the posterior entropy of a model conditioned on observed
evidence once the evidence has been folded into the tables. Every run is
rescaled and carries (Z, H) as mantissas times 2^E: H/Z ignores the
factor and log2(Z) adds E, so the formula stays finite far past float
range. Results fold 2^E back in (:func:`fginfer.propagation.fold_exponent`)
whenever Z and H are finite normal floats.

Companions of shape (k, n) give k totals H_1 ... H_k from the same single
pass, H_c with g = the c-th row; :mod:`fginfer.learning` stacks its
gradient and EM companions this way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteTotal, OutOfDomain, ZeroEvidence
from .graph import FactorGraph, validate
from .propagation import fold_exponent, lift_tables, product_of_totals, run
from .semiring import ENTROPY, Semiring

_LN2 = math.log(2.0)
_Z_FLOOR = 1e-300


@dataclass
class EntropyResult:
    """The (Z, H) pair of a run, with its scale and derived entropy.

    The true totals are Z * 2^exponent and H * 2^exponent, and
    ``log_scale`` is exponent * ln 2. ``H`` is a float, or a length-k
    array when the companions had k columns. ``entropy_bits`` is filled in
    by :func:`posterior_entropy` and :func:`entropy_from_zh` and is None
    otherwise.
    """

    Z: float
    H: float | np.ndarray
    entropy_bits: float | None = None
    exponent: int = 0

    @property
    def log_scale(self) -> float:
        return self.exponent * _LN2

    def scaled_h(self) -> float:
        return self.H * math.exp(self.log_scale)

    def log2_z(self) -> float:
        if self.Z <= 0.0:
            raise ZeroEvidence("total weight is zero; log2(Z) undefined")
        return math.log2(self.Z) + self.exponent


class WeightedGraph:
    """A validated factor graph plus per-factor companion tables: the one
    input of :func:`compute_zh` and :func:`posterior_entropy`.

    A companion is None (g = 0), a table of the factor's length (any shape
    of that size is flattened), or a (k, n) array of k companion columns
    for a length-n table; every (k, n) companion of one graph has the same
    k. The companions may also come as one (k, total) array, the (k, n)
    columns of every factor side by side in factor order, taken as it is.
    Companion entries may be undefined (NaN or infinite) only where the
    paired value is zero; they become 0, which encodes the
    0 * log(0) = 0 convention. ``companions`` keeps them all as one
    (k, total) array, aligned with the factors' tables laid side by side
    in factor order, a None companion as zeros and a flat one in every
    column; it is None when every companion is. :meth:`carrier_tables`
    lifts the pairs (:func:`fginfer.propagation.lift_tables`) on every
    call; nothing is cached. ``stacked`` tells whether the companions came
    as (k, n) columns or as one (k, total) array, for which H is an array
    even when k = 1.
    """

    def __init__(self, graph: FactorGraph, companions=None):
        self.graph = validate(graph)
        sizes = [f.values.size for f in graph.factors]
        if isinstance(companions, np.ndarray) and companions.shape[1:] == (sum(sizes),):
            out, self.stacked = companions.astype(float, copy=False), True
        else:
            out, self.stacked = _stack_companions(graph.factors, sizes, companions)
        if out is not None:
            out = _defined_under_zeros(graph.factors, sizes, out)
        self.companions = out

    def carrier_tables(self, s: Semiring) -> np.ndarray:
        return lift_tables(s, self.graph.factors, self.companions)


def _stack_companions(factors, sizes, companions) -> tuple[np.ndarray | None, bool]:
    """Per-factor companions as one (k, total) array, shapes checked per
    factor, and whether any had columns; None if every one is None."""
    if companions is None:
        return None, False
    if len(companions) != len(factors):
        raise ValueError(f"{len(companions)} companion tables for {len(factors)} factors")
    flat, stacked, kind = [], [], []
    for f, n, c in zip(factors, sizes, companions):
        if c is None:
            kind.append(0)
            continue
        c = np.asarray(c, dtype=float)
        if c.ndim == 2 and c.shape[1] == n:
            stacked.append(c)
            kind.append(2)
        elif c.size == n:
            flat.append(c)
            kind.append(1)
        else:
            raise ValueError(f"factor {f.id!r}: companion length {c.size} != table length {n}")
    widths = {c.shape[0] for c in stacked}
    if len(widths) > 1:
        raise ValueError(f"companions disagree on their column count: {sorted(widths)}")
    if not (flat or stacked):
        return None, False
    # filled one row at a time: a 1-D boolean assignment is several
    # times faster than numpy's 2-D out[:, mask] on thousands of factors
    kind = np.repeat(kind, sizes)
    out = np.zeros((max(widths, default=1), len(kind)))
    if flat:
        columns, values = kind == 1, np.concatenate(flat, axis=None)
        for row in out:
            row[columns] = values
    if stacked:
        columns = kind == 2
        for row, values in zip(out, np.concatenate(stacked, axis=1)):
            row[columns] = values
    return out, bool(stacked)


def _defined_under_zeros(factors, sizes, out: np.ndarray) -> np.ndarray:
    """The (k, total) companions with their undefined entries set to 0,
    in a new array if there are any; raises ValueError, naming the
    factor, for an undefined entry under a nonzero value."""
    undefined = ~np.isfinite(out)
    if not undefined.any():
        return out
    # the table value each undefined entry pairs with must be zero
    columns = np.flatnonzero(undefined.any(axis=0))
    nonzero = columns[np.concatenate([f.values for f in factors])[columns] != 0.0]
    if nonzero.size:
        j = int(np.searchsorted(np.cumsum(sizes), nonzero[0], "right"))
        raise ValueError(f"factor {factors[j].id!r}: companion must be"
                         " finite wherever the value is nonzero")
    return np.where(undefined, 0.0, out)


def _zh_mantissas(wg: WeightedGraph, root: str | None) -> tuple[list, int]:
    """The single entropy-semiring pass: its Z and H mantissas, Z in
    [1, 2) or 0, and the exponent E; the true totals are the mantissas
    times 2^E."""
    marginals, _ = run(wg.graph, ENTROPY, root=root, tables=wg.carrier_tables(ENTROPY))
    return product_of_totals(ENTROPY, marginals)


def _folded_result(wg: WeightedGraph, mantissas: list, exponent: int,
                   bits: float | None = None) -> EntropyResult:
    (z, *h), exponent = fold_exponent(mantissas, exponent)
    return EntropyResult(Z=z, H=np.array(h) if wg.stacked else h[0], entropy_bits=bits,
                         exponent=exponent)


def compute_zh(wg: WeightedGraph, root: str | None = None) -> EntropyResult:
    """Z and H of a weighted graph in a single entropy-semiring pass.

    On forests the per-component pairs are combined with the semiring
    product (scores multiply; aux terms follow the product rule), which is
    the joint (Z, H) of the independent components. With (k, n)
    companions ``H`` holds the k totals, from the same one pass. Z and H
    are the totals, with ``exponent`` 0, if all are finite normal floats,
    else mantissas (:func:`fginfer.propagation.fold_exponent`).
    """
    return _folded_result(wg, *_zh_mantissas(wg, root))


def posterior_entropy(wg: WeightedGraph, root: str | None = None,
                      rescale: bool = True) -> EntropyResult:
    """Entropy in bits of the distribution defined by a weighted graph.

    Requires nonnegative tables whose companions are the base-2 logs of the
    values (undefined at zeros). Z and H are reported as by
    :func:`compute_zh`; the bits, -H/Z + log2(Z) + E, come from the pass's
    mantissas, Z in [1, 2), so ZeroEvidence means no assignment has
    weight, never that Z underflows. Raises NonFiniteTotal, with no
    floating-point warning before it, when table entries near the float
    maximum overflow one factor's sum. Tiny negative outcomes from
    roundoff (>= -1e-9) are clamped to exactly 0. ``rescale`` has no
    effect: the benchmark still passes it, and ROADMAP item 1 removes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mantissas, exponent = _zh_mantissas(wg, root)
    bits = entropy_from_zh(mantissas[0], mantissas[1], exponent).entropy_bits
    return _folded_result(wg, mantissas, exponent, bits)


def entropy_from_zh(z: float, h: float, exponent: int) -> EntropyResult:
    """The entropy result of a run's (Z, H) mantissas and exponent E.

    Applies the rules :func:`posterior_entropy` documents: ZeroEvidence for
    Z <= 0 or Z < 1e-300, NonFiniteTotal for a Z or H that is not finite,
    bits = -H/Z + log2(Z) + E, and roundoff negatives down to -1e-9
    clamped to 0.
    """
    if z <= 0.0:
        raise ZeroEvidence(f"total weight Z = {z}; no assignment has positive weight")
    if z < _Z_FLOOR:
        raise ZeroEvidence(f"total weight {z} is below 1e-300")
    if not (math.isfinite(z) and math.isfinite(h)):
        raise NonFiniteTotal(f"totals Z = {z}, H = {h}: table entries are too large for"
                             " a factor's sum to stay in float range; scale them down")
    bits = -h / z + math.log2(z) + exponent
    if -1e-9 <= bits < 0.0:
        bits = 0.0
    return EntropyResult(z, h, bits, exponent)


def entropy_in_base(bits: float, base: str) -> float:
    """Convert an entropy in bits to the requested unit ("2" or "e")."""
    if base == "2":
        return bits
    if base == "e":
        return bits * _LN2
    raise ValueError(f"unsupported entropy base {base!r}; use '2' or 'e'")


def derive_log2_companions(graph: FactorGraph) -> list:
    """Base-2 log companions for every factor table (0 where the value is 0).

    The tables must be nonnegative; this is the g = log2(f) choice that
    makes :func:`posterior_entropy` applicable to a plain graph. One sign
    check and one log run over all tables at once; the result is split
    back into one view per factor.
    """
    values = np.concatenate([f.values for f in graph.factors])
    ends = np.cumsum([f.values.size for f in graph.factors]).tolist()
    negative = values < 0.0
    if negative.any():
        k = int(np.searchsorted(ends, negative.argmax(), "right"))
        raise OutOfDomain(
            f"factor {graph.factors[k].id!r}: log companions need nonnegative values"
        )
    logs = log2_or_zero(values)
    return [logs[a:b] for a, b in zip([0] + ends, ends)]


def log2_or_zero(values: np.ndarray) -> np.ndarray:
    """Elementwise base-2 log of nonnegative values, 0 where a value is 0."""
    with np.errstate(divide="ignore"):
        return np.where(values > 0.0, np.log2(np.where(values > 0.0, values, 1.0)), 0.0)
