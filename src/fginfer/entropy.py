"""Partition/entropy runs: factor graphs whose tables carry companions.

A weighted factor pairs a nonnegative table f with a companion table g of
the same shape; running the engine over the entropy semiring on the lifted
pairs (f, f*g) returns, in one pass, the pair

    Z = sum_x prod_m f_m(x_m)
    H = sum_x prod_m f_m(x_m) * sum_m g_m(x_m)

When every companion is the base-2 log of its table, those two numbers
give the entropy of the distribution the graph defines:

    H(X) = -H/Z + log2(Z)   [bits]

which is exactly the posterior entropy of a model conditioned on observed
evidence once the evidence has been folded into the tables. Rescaled
runs report (Z, H) as mantissas times 2^E: H/Z ignores the factor and
log2(Z) adds E, so the formula stays finite far past float range.

Companions of shape (k, n) give k totals H_1 ... H_k from the same single
pass, H_c with g = the c-th row; :mod:`fginfer.learning` stacks its
gradient and EM companions this way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteTotal, OutOfDomain, ZeroEvidence
from .graph import FactorGraph, FactorTable, validate
from .propagation import lift_tables, run, scale_exponents
from .semiring import ENTROPY, Semiring

_LN2 = math.log(2.0)
_Z_FLOOR = 1e-300


@dataclass
class WeightedFactor:
    """A factor table and an optional companion table of equal length.

    Companion entries may be undefined (None or non-finite) only where the
    paired value is zero; those entries are normalized to 0 on lifting,
    which encodes the 0 * log(0) = 0 convention.
    """

    table: FactorTable
    companion: np.ndarray | None = None


@dataclass
class EntropyResult:
    """The (Z, H) pair of a run, with its scale and derived entropy.

    When rescaling was on, ``Z`` and ``H`` are mantissas: the true totals
    are Z * 2^exponent and H * 2^exponent, and ``log_scale`` is
    exponent * ln 2. ``H`` is a float, or a length-k array when the
    companions had k columns. ``entropy_bits`` is filled in by
    :func:`entropy_from_zh` and is None otherwise.
    """

    Z: float
    H: float | np.ndarray
    log_scale: float = 0.0
    entropy_bits: float | None = None
    exponent: int = 0

    def scaled_h(self) -> float:
        return self.H * math.exp(self.log_scale)

    def log2_z(self) -> float:
        if self.Z <= 0.0:
            raise ZeroEvidence("total weight is zero; log2(Z) undefined")
        return (math.log(self.Z) + self.log_scale) / _LN2


class WeightedGraph:
    """A validated factor graph plus per-factor companion tables.

    A companion is a table of the factor's length (any shape of that size
    is flattened), or a (k, n) array of k companion columns for a length-n
    table; every (k, n) companion of one graph has the same k. Lifted
    carrier tables (:func:`fginfer.propagation.lift_tables`) are cached per
    semiring so repeated runs skip the lift. ``stacked`` tells whether the
    companions came as (k, n) columns, for which H is an array even when
    k = 1.
    """

    def __init__(self, graph: FactorGraph, companions=None):
        self.graph = validate(graph)
        if companions is None:
            companions = [None] * len(graph.factors)
        if len(companions) != len(graph.factors):
            raise ValueError(
                f"{len(companions)} companion tables for {len(graph.factors)} factors"
            )
        self.companions = _check_companions(graph.factors, companions)
        self.stacked = any(c is not None and c.ndim == 2 for c in self.companions)
        self._table_cache: dict[str, np.ndarray] = {}

    def carrier_tables(self, s: Semiring) -> np.ndarray:
        cached = self._table_cache.get(s.name)
        if cached is None:
            cached = lift_tables(s, self.graph.factors, self.companions)
            self._table_cache[s.name] = cached
        return cached


def _check_companions(factors, companions) -> list:
    """Companions as float arrays, shapes checked per factor and finiteness
    checked once over all of them."""
    out = []
    widths = set()
    for f, c in zip(factors, companions):
        if c is not None:
            c = np.asarray(c, dtype=float)
            n = f.values.size
            if c.ndim == 2 and c.shape[1] == n:
                widths.add(c.shape[0])
            elif c.size == n:
                c = c.ravel()
            else:
                raise ValueError(
                    f"factor {f.id!r}: companion length {c.size} != table length {n}"
                )
        out.append(c)
    if len(widths) > 1:
        raise ValueError(f"companions disagree on their column count: {sorted(widths)}")
    present = [c.ravel() for c in out if c is not None]
    if present and not np.isfinite(np.concatenate(present)).all():
        out = [c if c is None else _check_companion(f, c) for f, c in zip(factors, out)]
    return out


def _check_companion(factor: FactorTable, companion: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(companion) & (factor.values != 0.0)
    if bad.any():
        raise ValueError(
            f"factor {factor.id!r}: companion must be finite wherever the value is nonzero"
        )
    # normalize undefined entries under zero values to 0
    if not np.isfinite(companion).all():
        companion = np.where(factor.values == 0.0, 0.0, companion)
    return companion


def lift_graph(factors, variables) -> WeightedGraph:
    """Assemble weighted factors and variable declarations into a graph.

    Accepts an iterable of :class:`WeightedFactor` (or bare
    :class:`FactorTable`, treated as companion-free). Validates structure
    and companions; the actual pair lifting happens lazily per semiring.
    """
    tables = []
    companions = []
    for wf in factors:
        if isinstance(wf, FactorTable):
            tables.append(wf)
            companions.append(None)
        else:
            tables.append(wf.table)
            companions.append(wf.companion)
    return WeightedGraph(FactorGraph(variables, tables), companions)


def _as_weighted(g) -> WeightedGraph:
    if isinstance(g, WeightedGraph):
        return g
    return WeightedGraph(g)


def compute_zh(wg, root: str | None = None, rescale: bool = False) -> EntropyResult:
    """Z and H of a weighted graph in a single entropy-semiring pass.

    On forests the per-component pairs are combined with the semiring
    product (scores multiply; aux terms follow the product rule), which is
    the joint (Z, H) of the independent components. With (k, n)
    companions ``H`` holds the k totals, from the same one pass.
    """
    wg = _as_weighted(wg)
    marginals, store = run(
        wg.graph, ENTROPY, root=root, two_pass=False, rescale=rescale,
        tables=wg.carrier_tables(ENTROPY),
    )
    z, h, exponent = 1.0, 0.0, 0
    for marg in marginals.values():
        w = ENTROPY.reduce_msg(marg.msg)
        z, h = z * w.score, z * w.aux + w.score * h
        # rescaled, so that many components cannot overflow the product
        e = int(scale_exponents(z)) if rescale else 0
        if e:
            z = math.ldexp(z, -e)
            h = math.ldexp(h, -e) if type(h) is float else np.ldexp(h, -e)
        exponent += marg.exponent + e
    if wg.stacked:
        h = np.atleast_1d(h)
    return EntropyResult(Z=z, H=h, log_scale=exponent * _LN2, exponent=exponent)


def posterior_entropy(wg, root: str | None = None, rescale: bool = False) -> EntropyResult:
    """Entropy in bits of the distribution defined by a weighted graph.

    Requires nonnegative tables whose companions are the base-2 logs of the
    values (undefined at zeros). The result combines the run's pair as
    -H/Z + log2(Z), reconstructing log2(Z) from the exponent.
    Raises ZeroEvidence when the weight the run holds is numerically zero
    (below 1e-300): without rescaling that is the full total, with rescaling
    it is the order-one mantissa, so long chains whose true evidence only
    underflows in the unscaled representation still get an entropy.
    Raises NonFiniteTotal when Z or H left float range, which only an
    unrescaled run can do. Tiny negative outcomes from roundoff (>= -1e-9)
    are clamped to exactly 0.
    """
    res = compute_zh(wg, root=root, rescale=rescale)
    return entropy_from_zh(res.Z, res.H, res.exponent)


def entropy_from_zh(z: float, h: float, exponent: int) -> EntropyResult:
    """The entropy result of a run's (Z, H) mantissas and exponent E.

    Applies the rules :func:`posterior_entropy` documents: ZeroEvidence for
    Z <= 0 or Z < 1e-300, NonFiniteTotal for a Z or H that left float
    range, bits = -H/Z + log2(Z) + E, and roundoff negatives down to -1e-9
    clamped to 0.
    """
    if z <= 0.0:
        raise ZeroEvidence(f"total weight Z = {z}; no assignment has positive weight")
    if z < _Z_FLOOR:
        raise ZeroEvidence(f"total weight {z} is below 1e-300")
    if not (math.isfinite(z) and math.isfinite(h)):
        raise NonFiniteTotal(
            f"totals Z = {z}, H = {h} left float range; run with rescale=True"
        )
    bits = -h / z + (math.log(z) + exponent * _LN2) / _LN2
    if -1e-9 <= bits < 0.0:
        bits = 0.0
    return EntropyResult(z, h, exponent * _LN2, bits, exponent)


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
    makes :func:`posterior_entropy` applicable to a plain graph.
    """
    out = []
    for f in graph.factors:
        if (f.values < 0).any():
            raise OutOfDomain(
                f"factor {f.id!r}: log companions need nonnegative values"
            )
        out.append(log2_or_zero(f.values))
    return out


def log2_or_zero(values: np.ndarray) -> np.ndarray:
    """Elementwise base-2 log of nonnegative values, 0 where a value is 0."""
    with np.errstate(divide="ignore"):
        return np.where(values > 0.0, np.log2(np.where(values > 0.0, values, 1.0)), 0.0)
