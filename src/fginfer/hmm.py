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

:func:`hmm_entropy` runs the entropy-semiring pass directly along the chain
with the semiring kernels, making the same kernel calls in the same order
as the generic engine on :func:`hmm_to_weighted_graph` rooted at x1, so the
two agree bit for bit; the tests hold the pass to that.
"""

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
from .errors import OutOfDomain
from .graph import FactorGraph, FactorTable, VariableDecl
from .propagation import rescale_message
from .semiring import ENTROPY

_ROW_TOL = 1e-9
_LONG_CHAIN = 1000


@dataclass
class HmmSpec:
    """A validated HMM: initial law pi, transitions A, emissions B, and y.

    pi has shape (S,), A is (S, S) row stochastic, B is (S, O) row
    stochastic, observations are symbol indices in [0, O). Rows must sum
    to 1 within 1e-9 and all entries must be nonnegative.
    """

    pi: np.ndarray
    transition: np.ndarray
    emission: np.ndarray
    observations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float).ravel()
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        self.observations = np.asarray(self.observations, dtype=int).ravel()
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
        if (self.pi < 0).any() or (self.transition < 0).any() or (self.emission < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(self.pi.sum() - 1.0) > _ROW_TOL:
            raise ValueError(f"pi sums to {self.pi.sum()!r}, expected 1 within {_ROW_TOL}")
        rows = self.transition.sum(axis=1)
        if (np.abs(rows - 1.0) > _ROW_TOL).any():
            bad = int(np.argmax(np.abs(rows - 1.0)))
            raise ValueError(
                f"transition row {bad} sums to {rows[bad]!r}, expected 1 within {_ROW_TOL}"
            )
        rows = self.emission.sum(axis=1)
        if (np.abs(rows - 1.0) > _ROW_TOL).any():
            bad = int(np.argmax(np.abs(rows - 1.0)))
            raise ValueError(
                f"emission row {bad} sums to {rows[bad]!r}, expected 1 within {_ROW_TOL}"
            )
        if self.observations.size < 1:
            raise ValueError("observation sequence must not be empty")
        o = self.emission.shape[1]
        if (self.observations < 0).any() or (self.observations >= o).any():
            bad = int(np.argmax((self.observations < 0) | (self.observations >= o)))
            raise OutOfDomain(
                f"observation at position {bad} is {self.observations[bad]},"
                f" outside the alphabet [0, {o})"
            )

    @property
    def num_states(self) -> int:
        return self.pi.size

    @property
    def num_symbols(self) -> int:
        return self.emission.shape[1]

    @property
    def num_steps(self) -> int:
        return self.observations.size


def _chain_tables(h: HmmSpec):
    # unary[i] = pi[i] * B[i, y_1]; pair[t - 2][i, j] = A[i, j] * B[j, y_t]
    y = h.observations
    unary = h.pi * h.emission[:, y[0]]
    pair = h.transition[None, :, :] * h.emission[:, y[1:]].T[:, None, :]
    return unary, pair.reshape(h.num_steps - 1, h.num_states ** 2)


def hmm_to_weighted_graph(h: HmmSpec) -> WeightedGraph:
    """Build the weighted chain for an observation sequence.

    Variables are named x1..xT, factors f1..fT, companions the base-2 logs
    of the tables. The graph is validated like any other; it is the
    reference that :func:`hmm_entropy` is checked against bit for bit.
    """
    s = h.num_states
    unary, pair = _chain_tables(h)
    variables = [VariableDecl(f"x{t}", s) for t in range(1, h.num_steps + 1)]
    factors = [FactorTable("f1", ("x1",), unary)]
    factors += [
        FactorTable(f"f{t}", (f"x{t - 1}", f"x{t}"), pair[t - 2])
        for t in range(2, h.num_steps + 1)
    ]
    graph = FactorGraph(variables, factors)
    return WeightedGraph(graph, derive_log2_companions(graph))


def hmm_entropy(h: HmmSpec, rescale: bool | None = None) -> EntropyResult:
    """Posterior state-sequence entropy H(X | Y = y) in bits.

    One entropy-semiring pass inward along the chain from the leaf x_T to
    the root x1, with f1 last. The result is bit-identical to
    ``posterior_entropy(hmm_to_weighted_graph(h), rescale=rescale)``.

    ``rescale=None`` turns per-message rescaling on automatically for
    sequences longer than 1000 steps, where the evidence would underflow.
    Raises ZeroEvidence when the observation sequence has zero probability.
    """
    if rescale is None:
        rescale = h.num_steps > _LONG_CHAIN
    s = h.num_states
    unary, pair = _chain_tables(h)
    unary_table = ENTROPY.lift_table(unary, log2_or_zero(unary))
    pair_f, pair_aux = ENTROPY.lift_table(pair, log2_or_zero(pair))

    # inward from the leaf x_T: x_{k+2} sends f_{k+2} the product of what
    # reached it from beyond, then f_{k+2} sends x_{k+1} its contraction
    msgs = []
    scale = 0.0
    for k in range(h.num_steps - 2, -1, -1):
        msg = ENTROPY.combine(msgs, s)
        # only the leaf's ones vector is fresh; a single input is aliased
        if rescale and not msgs:
            scale = rescale_message(ENTROPY, msg, scale)
        msg = ENTROPY.contract((pair_f[k], pair_aux[k]), [s, s], [(1, msg)], 0)
        if rescale:
            scale = rescale_message(ENTROPY, msg, scale)
        msgs = [msg]

    # f1 last; the root marginal at x1 combines f1's message, then f2's
    root = ENTROPY.contract(unary_table, [s], [], 0)
    log_scale = rescale_message(ENTROPY, root, 0.0) if rescale else 0.0
    total = ENTROPY.reduce_msg(ENTROPY.combine([root] + msgs, s))
    return entropy_from_zh(total.score, total.aux, log_scale + scale)
