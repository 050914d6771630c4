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

Companions are laid out like the graph's tables, side by side in one
array. A (k, total) array gives k totals H_1 ... H_k from the same single
pass, H_c with g = the c-th row; :mod:`fginfer.learning` runs its
gradient and EM companions this way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteTotal, OutOfDomain, ZeroEvidence
from .graph import FactorGraph, validate
from .propagation import fold_exponent, product_of_totals, run
from .semiring import ENTROPY, Semiring

_LN2 = math.log(2.0)


@dataclass
class EntropyResult:
    """The (Z, H) pair of a run, with its scale and derived entropy.

    The true totals are Z * 2^exponent and H * 2^exponent, and
    ``log_scale`` is exponent * ln 2. ``H`` is a float, or a length-k
    array when the companions had k columns. ``entropy_bits`` is filled in
    by :func:`entropy_from_zh`, which every entropy pass returns through,
    and is None from :func:`compute_zh`.
    """

    Z: float
    H: float | np.ndarray
    entropy_bits: float | None = None
    exponent: int = 0

    @property
    def log_scale(self) -> float:
        return self.exponent * _LN2

    def log2_z(self) -> float:
        if self.Z <= 0.0:
            raise ZeroEvidence("total weight is zero; log2(Z) undefined")
        return math.log2(self.Z) + self.exponent


class WeightedGraph:
    """A validated factor graph plus companion tables: the one input of
    :func:`compute_zh` and :func:`posterior_entropy`.

    The companions come in the graph's layout, as one (total,) array,
    which makes H a float, or one (k, total) array of k companion columns,
    which makes H a length-k array, even for k = 1. A per-factor list of
    tables, each of its factor's length or None (g = 0), is laid out by
    :meth:`~fginfer.graph.FactorGraph.lay_out`; one None per factor is no
    companions. Entries may be undefined (NaN or infinite) only where the
    paired value is zero; they become 0, which encodes the
    0 * log(0) = 0 convention. ``companions`` holds the result, or None;
    :meth:`carrier_tables` lifts the graph's ``values`` with them on every
    call.
    """

    def __init__(self, graph: FactorGraph, companions=None):
        g = self.graph = validate(graph)
        if (isinstance(companions, list | tuple) and len(companions) == len(g.factor_ids)
                and all(c is None for c in companions)):
            companions = None
        if companions is not None:
            rows = len(companions) if getattr(companions, "ndim", 1) == 2 else None
            companions = _defined_under_zeros(g, g.lay_out(companions, "companion", rows))
        self.companions = companions

    def carrier_tables(self, s: Semiring) -> np.ndarray:
        return s.lift_table(self.graph.values, self.companions)


def _defined_under_zeros(g: FactorGraph, out: np.ndarray) -> np.ndarray:
    """The companions with their undefined entries set to 0, in a new
    array if there are any; raises ValueError, naming the factor, for an
    undefined entry under a nonzero value."""
    undefined = ~np.isfinite(out)
    if not undefined.any():
        return out
    # the table value each undefined entry pairs with must be zero
    columns = np.flatnonzero(undefined.reshape(-1, g.values.size).any(axis=0))
    nonzero = columns[g.values[columns] != 0.0]
    if nonzero.size:
        raise ValueError(f"factor {g.factor_at(nonzero[0])!r}: companion must be"
                         " finite wherever the value is nonzero")
    return np.where(undefined, 0.0, out)


def _zh_mantissas(wg: WeightedGraph, root: str | None) -> tuple[list, int]:
    """The single entropy-semiring pass: its Z and H mantissas, Z in
    [1, 2) or 0, and the exponent E; the true totals are the mantissas
    times 2^E."""
    marginals, _ = run(wg.graph, ENTROPY, root=root, tables=wg.carrier_tables(ENTROPY))
    return product_of_totals(ENTROPY, marginals)


def compute_zh(wg: WeightedGraph, root: str | None = None) -> EntropyResult:
    """Z and H of a weighted graph in a single entropy-semiring pass.

    On forests the per-component pairs are combined with the semiring
    product (scores multiply; aux terms follow the product rule), which is
    the joint (Z, H) of the independent components. With (k, total)
    companions ``H`` holds the k totals, from the same one pass. Z and H
    are the totals, with ``exponent`` 0, if all are finite normal floats,
    else mantissas (:func:`fginfer.propagation.fold_exponent`).
    """
    (z, *h), exponent = fold_exponent(*_zh_mantissas(wg, root))
    columns = wg.companions is not None and wg.companions.ndim == 2
    return EntropyResult(Z=z, H=np.array(h) if columns else h[0], exponent=exponent)


def posterior_entropy(wg: WeightedGraph, root: str | None = None,
                      rescale: bool = True) -> EntropyResult:
    """Entropy in bits of the distribution defined by a weighted graph.

    Requires nonnegative tables whose companions are the base-2 logs of the
    values (undefined at zeros), one column of them, else ValueError. Returns
    :func:`entropy_from_zh` of the pass's mantissas, so ZeroEvidence means
    no assignment has weight, never that Z underflows. Raises
    NonFiniteTotal, with no floating-point warning before it, when table
    entries near the float maximum overflow one factor's sum. ``rescale``
    has no effect: the benchmark still passes it, and ROADMAP item 1
    removes it.
    """
    if wg.companions is not None and wg.companions.shape[:-1] not in ((), (1,)):
        raise ValueError(f"companions of shape {wg.companions.shape}: expected one column")
    with np.errstate(over="ignore", invalid="ignore"):
        (z, h), exponent = _zh_mantissas(wg, root)
    return entropy_from_zh(z, h, exponent)


def entropy_from_zh(z: float, h: float, exponent: int) -> EntropyResult:
    """The entropy result of a pass's (Z, H) mantissas and exponent E: the
    one exit of every entropy pass.

    Raises ZeroEvidence for Z <= 0 and NonFiniteTotal for a Z or H that is
    not finite. The bits, -H/Z + log2(Z) + E, come from the mantissas, and
    roundoff negatives down to -1e-9 are clamped to 0. Z and H are then
    reported as :func:`fginfer.propagation.fold_exponent` gives them: the
    totals, with ``exponent`` 0, if both are finite normal floats or 0,
    else the mantissas with E.
    """
    if z <= 0.0:
        raise ZeroEvidence(f"total weight Z = {z}; no assignment has positive weight")
    if not (math.isfinite(z) and math.isfinite(h)):
        raise NonFiniteTotal(f"totals Z = {z}, H = {h}: table entries are too large for"
                             " a factor's sum to stay in float range; scale them down")
    bits = -h / z + math.log2(z) + exponent
    if -1e-9 <= bits < 0.0:
        bits = 0.0
    (z, h), exponent = fold_exponent((z, h), exponent)
    return EntropyResult(z, h, bits, exponent)


def entropy_in_base(bits: float, base: str) -> float:
    """Convert an entropy in bits to the requested unit ("2" or "e")."""
    if base == "2":
        return bits
    if base == "e":
        return bits * _LN2
    raise ValueError(f"unsupported entropy base {base!r}; use '2' or 'e'")


def derive_log2_companions(graph: FactorGraph) -> np.ndarray:
    """Base-2 log companions of the graph's tables, 0 where a value is 0,
    as one (total,) array in the graph's layout; validates the graph.

    The tables must be nonnegative; this is the g = log2(f) choice that
    makes :func:`posterior_entropy` applicable to a plain graph.
    """
    values = validate(graph).values
    negative = values < 0.0
    if negative.any():
        raise OutOfDomain(f"factor {graph.factor_at(negative.argmax())!r}:"
                          " log companions need nonnegative values")
    return log2_or_zero(values)


def log2_or_zero(values: np.ndarray) -> np.ndarray:
    """Elementwise base-2 log of nonnegative values, 0 where a value is 0."""
    with np.errstate(divide="ignore"):
        return np.where(values > 0.0, np.log2(np.where(values > 0.0, values, 1.0)), 0.0)
