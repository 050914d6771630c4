"""Hidden Markov models as weighted chain graphs.

An HMM with S states, an alphabet of O symbols, and an observation sequence
y of length T becomes a chain of T state variables x1..xT (cardinality S)
with T factors:

    f1(x1)        = pi(x1) * B(x1, y1)
    ft(x_{t-1},xt) = A(x_{t-1}, xt) * B(xt, yt)      for t = 2..T

so the product over a state path is exactly the joint probability of the
path and the observations, and the total weight is the evidence P(y).
Companions are the base-2 logs of the tables, which makes the chain a
posterior-entropy input: the entropy of the state posterior given y.

:func:`hmm_entropy` does not build that graph. Each chain step acts on an
entropy-semiring pair [v; gv] as the dual-number block [[F, 0], [G, F]]
with G = F * log2 F. One reduction applies them: level 0 is the steps,
each folded into [v; gv] by 3 S^2 multiply-adds, and level n + 1 the
distinct pairs of level n's blocks, each one array [F; G], with a block
code per position. A level is built only while counts say that it costs
less than the positions it removes. A block that lost entries is applied
as its halves from the level below. The tests hold it to the generic
engine on :func:`hmm_to_weighted_graph` at a relative tolerance, and long
reducible chains to their exact values.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    EntropyResult,
    WeightedGraph,
    derive_log2_companions,
    entropy_from_zh,
    log2_or_zero,
)
from .entropy import posterior_entropy  # noqa: F401  (the benchmark's tracer patches this name)
from .errors import OutOfDomain, ZeroEvidence
from .graph import FactorGraph

_ROW_TOL = 1e-9
_LONG_CHAIN = 1000
# Products of blocks scaled to sum to at most 1 lose only terms below the
# smallest normal double, at most S of them per entry, S * 2^-1073 in all.
# That is under S * 2^-113 of an entry above _TINY (62 bits above the
# smallest normal), and under S * 2^-1021 of a vector whose sum stays above
# _LOW: about the level where the engine's own rescaled messages turn
# subnormal.
_TINY = 2.0 ** -960
_LOW = 2.0 ** -52
# The cut of the reduction, in multiply-adds: a level costs _LEVEL_COST beside
# its products, 3 S^3 each, and a block it removes _STEP_COST beside its 3 S^2.
# Measured on a shared 2-vCPU machine: 45-60 us a level, 6-7 us a block, 3-3.8
# us a folded step, and a 22-state product 2.4 us in cache, 14 us in a level of
# 1e4. So level 1 saves little but its 3 S^2 and the levels it lets be built:
# _FOLD_COST, its price of a folded step, is fitted to the chains in README.md.
_LEVEL_COST = 1.5e5
_STEP_COST = 2e4
_FOLD_COST = 4e3


@dataclass
class HmmSpec:
    """A validated HMM: initial law pi, transitions A, emissions B, and y.

    pi has shape (S,), A is (S, S) row stochastic, B is (S, O) row
    stochastic, observations are symbol indices in [0, O). Rows must sum
    to 1 within 1e-9 and all entries must be finite and nonnegative.
    """

    pi: np.ndarray
    transition: np.ndarray
    emission: np.ndarray
    observations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float).ravel()
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        raw = self.observations
        observations = np.asarray(raw).ravel()
        s = self.pi.size
        if s < 1:
            raise ValueError("pi must have at least one state")
        if self.transition.shape != (s, s):
            raise ValueError(
                f"transition matrix shape {self.transition.shape} does not match {s} states"
            )
        if self.emission.ndim != 2 or self.emission.shape[0] != s:
            raise ValueError(
                f"emission matrix shape {self.emission.shape} does not match {s} states"
            )
        if self.emission.shape[1] < 1:
            raise ValueError("emission alphabet must have at least one symbol")
        # NaN fails every comparison below, so it must be caught here
        for name, arr in (("pi", self.pi), ("transition", self.transition),
                          ("emission", self.emission)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} probabilities must be finite")
        if (self.pi < 0).any() or (self.transition < 0).any() or (self.emission < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(self.pi.sum() - 1.0) > _ROW_TOL:
            raise ValueError(f"pi sums to {self.pi.sum()!r}, expected 1 within {_ROW_TOL}")
        for name, arr in (("transition", self.transition), ("emission", self.emission)):
            rows = arr.sum(axis=1)
            if (np.abs(rows - 1.0) > _ROW_TOL).any():
                bad = int(np.argmax(np.abs(rows - 1.0)))
                raise ValueError(f"{name} row {bad} sums to {rows[bad]!r},"
                                 f" expected 1 within {_ROW_TOL}")
        if observations.size < 1:
            raise ValueError("observation sequence must not be empty")
        # numpy reads bools as 0 or 1 and ints past int64 inexactly: read those one by one
        kinds = set(map(type, raw)) if isinstance(raw, list | tuple) else set()
        kind = observations.dtype.kind
        with np.errstate(invalid="ignore"):  # NaN, inf and floats past int64 are no index
            if kinds & {bool, np.bool_} or kind not in "if" or kind == "f" and int in kinds:
                observations = np.asarray(raw, dtype=object).ravel()
                bad = [i for i, x in enumerate(observations) if isinstance(x, bool | np.bool_)
                       or not isinstance(x, numbers.Real) or x % 1 != 0]
            else:
                bad = np.flatnonzero(observations.astype(int, copy=False) != observations).tolist()
        if bad:
            raise ValueError(f"observation at position {bad[0]} is {observations[bad[0]]},"
                             " not a symbol index")
        o = self.emission.shape[1]
        if observations.min() < 0 or observations.max() >= o:
            bad = int(np.argmax((observations < 0) | (observations >= o)))
            raise OutOfDomain(f"observation at position {bad} is {int(observations[bad])},"
                              f" outside the alphabet [0, {o})")
        self.observations = observations.astype(int, copy=False)

    @property
    def num_states(self) -> int:
        return self.pi.size

    @property
    def num_symbols(self) -> int:
        return self.emission.shape[1]

    @property
    def num_steps(self) -> int:
        return self.observations.size


def hmm_to_weighted_graph(h: HmmSpec) -> WeightedGraph:
    """Build the weighted chain for an observation sequence.

    Variables are named x1..xT, factors f1..fT, companions the base-2 logs
    of the tables. The graph is validated like any other; it is the
    reference that the tests check :func:`hmm_entropy` against.
    """
    s, y = h.num_states, h.observations
    tables = h.transition[None, :, :] * h.emission[:, y[1:]].T[:, None, :]  # A[i, j] B[j, y_t]
    later = range(2, h.num_steps + 1)
    graph = FactorGraph.from_arrays(
        [f"x{t}" for t in range(1, h.num_steps + 1)], np.full(h.num_steps, s),
        ["f1"] + [f"f{t}" for t in later],
        [("x1",)] + [(f"x{t - 1}", f"x{t}") for t in later],
        np.concatenate((h.pi * h.emission[:, y[0]], tables.ravel())), [s] + [s * s] * len(later))
    return WeightedGraph(graph, derive_log2_companions(graph))


def _normalised(fg: np.ndarray):
    """Scale each stacked block fg[n] = [F; G] in place by 2^-k[n], k[n] the
    frexp exponent of the sum of its F half, so that sum lands in [0.5, 1);
    returns the scaled stack and the integer exponents k."""
    k = np.frexp(np.einsum("nij->n", fg[:, :fg.shape[2]]))[1]
    return np.ldexp(fg, -k[:, None, None], out=fg), k


def _inexact(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flags, per stacked product c = a @ b of nonnegative blocks, whether
    an entry that the supports of a and b make positive is below _TINY:
    only such an entry can have lost terms that fell below the float
    range, and it may even read 0."""
    if c.min() >= _TINY:
        return np.zeros(len(c), dtype=bool)
    return ((c < _TINY) & np.matmul(a > 0, b > 0)).any(axis=(1, 2))


def _distinct(keys: np.ndarray, d: int, n_codes: int):
    """A level's distinct pair keys c1 * d + c2 and each key's index among them: the keys
    if every code is used once, else sorted, by a bool table over [0, d^2) or np.unique."""
    if d == n_codes:
        return keys, np.arange(len(keys))
    if d * d <= keys.nbytes:
        seen = np.zeros(d * d, dtype=bool)
        seen[keys] = True
        return np.flatnonzero(seen), (np.cumsum(seen) - 1).take(keys)
    return np.unique(keys, return_inverse=True)


def _levels(h: HmmSpec):
    """The symbols seen in y_2..y_T, and the pairwise reduction of the steps
    per level: (FG, exponents, exact flags) of its distinct blocks
    FG = [F; G] and a block code per position, built while it pays
    (_LEVEL_COST). Level 0 codes step t by y_t's index among the symbols,
    its tables None unless level 1 is built; level n + 1 holds the distinct
    pairs (:func:`_distinct`) of level n's codes, plus an odd last block."""
    s, y = h.num_states, h.observations
    symbols = np.flatnonzero(np.bincount(y[1:], minlength=h.num_symbols))
    index = np.zeros(h.num_symbols, dtype=np.intp)
    index[symbols] = np.arange(symbols.size)
    d, codes = len(symbols), index.take(y[1:])
    levels = [(None, None, None, codes)]
    while len(codes) > 1:
        m = len(codes) // 2 * 2
        pairs, up = _distinct(codes[:m:2] * d + codes[1:m:2], d, len(codes))
        step = _FOLD_COST if len(levels) == 1 else _STEP_COST
        if len(pairs) * 3 * s ** 3 + _LEVEL_COST >= m // 2 * (3 * s * s + step):
            break
        if len(levels) == 1:
            tables = h.transition[None, :, :] * h.emission[:, symbols].T[:, None, :]
            fg, k = _normalised(np.concatenate((tables, tables * log2_or_zero(tables)), axis=1))
            # int64 sums; np.ldexp is far faster on the int32 exponents of _normalised
            levels[0] = (fg, k.astype(np.int64), np.ones(d, dtype=bool), codes)
        fg, k, exact, _ = levels[-1]
        a, b, odd = pairs // d, pairs % d, codes[m:]
        fg1, fg2 = fg[a], fg[b]
        nxt = np.empty((len(pairs) + len(odd), 2 * s, s))  # the products, then the odd block
        product = np.matmul(fg1, fg2[:, :s], out=nxt[:len(pairs)])  # [F1 F2; G1 F2]
        product[:, s:] += fg1[:, :s] @ fg2[:, s:]  # G1 F2 + F1 G2
        nxt[len(pairs):] = fg[odd]
        paired = exact[a] & exact[b] & ~_inexact(product[:, :s], fg1[:, :s], fg2[:, :s])
        del fg1, fg2  # the gathered pairs are freed before the next level's copies
        fg, k_level = _normalised(nxt)
        k = np.concatenate((k[a] + k[b], k[odd])) + k_level
        codes, d = np.concatenate((up, np.arange(len(pairs), len(nxt)))), len(nxt)
        levels.append((fg, k, np.concatenate((paired, exact[odd])), codes))
    return symbols, levels


def hmm_entropy(h: HmmSpec, rescale: bool | None = None) -> EntropyResult:
    """Posterior state-sequence entropy H(X | Y = y) in bits.

    Step t = 2..T acts on the pair x = [v; gv] as the block [[F, 0], [G, F]],
    F = A diag(b) its transition-emission table, b = B[:, y_t], and
    G = F * log2 F (0 where F is 0). The steps, each one array [F; G], are
    reduced pairwise, [F1; G1][F2; G2] = [F1 F2; G1 F2 + F1 G2] batched over
    a level's distinct pairs, up to the first level whose products would
    cost more than the positions it removes (:func:`_levels`): none when
    pairs seldom repeat over many states. Inward from x_T = [ones; zeros],
    the top level's positions act on x: a block as [F v; G v + F gv], a
    step folded as w = [b v; b gv + b log2 b v], x = [A w_v; [A * log2 A, A] w],
    with v's sum from the same mat-vec as v, [1'A; A] w_v. f1's pair
    [u; u * log2 u] is folded in last. The result, bracketed otherwise,
    matches ``posterior_entropy(hmm_to_weighted_graph(h))`` to roundoff.

    The pass scales u, every table, every product and x after every applied
    block by 2^-k, k the frexp exponent of the sum of its F or v half, and
    u . v into [1, 2), keeping the integer sum E of the exponents. Folded
    steps scale x by 2^(63 - k) only when v's sum leaves [1, 2^63), and end
    their range scaled as a block is. That is exact away from subnormals,
    and x never falls below the x of scaling every step, so a subnormal
    u . v, too few bits of P(y), raises ZeroEvidence. A block scaled as a
    whole still drops entries more than the float range below its largest,
    which a long reducible chain can need later. So a product with a
    positive entry below 2^-960 is marked inexact and not applied: its two
    halves are, in turn, read from the level below, and so are the halves
    of a block that sends v's sum below 2^-52. At level 0 they are folded
    steps.

    The result is :func:`~fginfer.entropy.entropy_from_zh` of the
    mantissas, Z in [1, 2), and E: (Z, H) are P(y) and its H with
    ``exponent`` 0 when both are normal floats, else the mantissas with E.
    ``rescale`` changes neither: when false, a result left as mantissas
    raises ZeroEvidence instead. ``rescale=None`` is true for sequences
    longer than 1000 steps. Raises ZeroEvidence when y has zero probability.
    """
    if rescale is None:
        rescale = h.num_steps > _LONG_CHAIN
    s, exponent = h.num_states, 0
    symbols, levels = _levels(h)
    a, b, steps = h.transition, h.emission.T[symbols], levels[0][3]
    ga_a, sum_a = np.hstack((a * log2_or_zero(a), a)), np.vstack((a.sum(axis=0), a))
    bb, gb = np.tile(b, 2), b * log2_or_zero(b)  # the rows [b; b] and b log2 b
    x = np.concatenate(([s], np.ones(s), np.zeros(s)))  # [sum v; v; gv] at x_T
    w, gw = np.empty(2 * s), np.empty(s)  # a position writes into arrays made once
    sv, vg, v, gv, w_v, w_g = x[:s + 1], x[1:], x[1:s + 1], x[s + 1:], w[:s], w[s:]
    # inward from x_T, ranges (level, lo, hi) of positions from the last; a
    # block that lost entries, or sends the sum of v below _LOW, is applied
    # as its two halves, pushed after the rest of its range so they act first
    todo = [(len(levels) - 1, 0, len(levels[-1][3]))]
    while todo:
        n, lo, hi = todo.pop()
        if not n:  # folded steps: v's sum, from [1'A; A], kept in [1, 2^63)
            for o in steps[lo:hi][::-1].tolist():
                np.multiply(bb[o], vg, out=w)  # [b v; b gv]
                w_g += np.multiply(gb[o], v, out=gw)
                np.dot(sum_a, w_v, out=sv)  # [sum v; v]
                np.dot(ga_a, w, out=gv)
                k_x = math.frexp(x[0])[1]
                if not 0 < k_x < 64:
                    if not x[0]:  # P(y) = 0
                        break
                    np.ldexp(x, 63 - k_x, out=x)
                    exponent += k_x - 63
            k_x = math.frexp(x[0])[1]  # and left in [0.5, 1), as a block leaves it
            np.ldexp(x, -k_x, out=x)
            exponent += k_x
            continue
        fg, k, exact, codes = levels[n]
        for i in range(hi - 1, lo - 1, -1):
            c = codes[i]
            np.dot(fg[c], v, out=w)  # [F v; G v], then G v + F gv
            if not exact[c] or w_v.sum() < _LOW:
                if v.any():  # else P(y) = 0 already
                    todo += [(n, lo, i), (n - 1, 2 * i, min(2 * i + 2, len(levels[n - 1][3])))]
                break
            w_g += fg[c, :s] @ gv
            k_x = math.frexp(w_v.sum())[1]
            np.ldexp(w, -k_x, out=vg)
            exponent += int(k[c]) + k_x
    unary = h.pi * h.emission[:, h.observations[0]]
    k_u = math.frexp(unary.sum())[1]
    u = np.ldexp(np.concatenate((unary, unary * log2_or_zero(unary))), -k_u)
    z, hz = float(u[:s] @ v), float(u[s:] @ v + u[:s] @ gv)
    if 0.0 < z < 2.0 ** -1022:
        raise ZeroEvidence(f"u . v = {z} is subnormal: the pass kept too few bits of P(y)")
    e_z = math.frexp(z)[1] - 1  # the engine's mantissa convention, Z in [1, 2)
    res = entropy_from_zh(math.ldexp(z, -e_z), math.ldexp(hz, -e_z), exponent + k_u + e_z)
    if res.exponent and not rescale:
        raise ZeroEvidence(f"P(y) = {res.Z} * 2^{res.exponent} is not a normal float;"
                           " pass rescale=True")
    return res
