"""Independent correctness references, written in numpy only.

Nothing here calls into fginfer: the references share no code with the
message-passing engine, so agreement between the two is evidence, not an
echo. Each function is run once per input, outside the timed region.
"""

import math

import numpy as np

LN2 = math.log(2.0)


def _forward(f0: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized forward vectors of a chain and the log of its total.

    alpha[0] = f0 and alpha[k + 1] = alpha[k] @ m[k], each row rescaled
    to sum 1; the second result is log(sum of the unscaled alpha[n]).
    Work is blocked: the chain is cut into about sqrt(n) blocks of about
    sqrt(n) steps, block transfer matrices are formed with batched
    matmuls across blocks, one sequential pass links the blocks, and a
    last pass batched across blocks fills in every step. That keeps the
    Python loop at O(sqrt(n)) numpy calls for chains of 1e5 steps.
    """
    n, s, _ = m.shape
    steps = max(1, math.isqrt(n))
    blocks = -(-n // steps)
    pad = blocks * steps - n
    if pad:
        m = np.concatenate([m, np.broadcast_to(np.eye(s), (pad, s, s))])
    m = m.reshape(blocks, steps, s, s)

    transfer = np.broadcast_to(np.eye(s), (blocks, s, s))
    for k in range(steps):
        transfer = np.matmul(transfer, m[:, k])
        transfer /= transfer.max(axis=(1, 2))[:, None, None]

    starts = np.empty((blocks, s))
    a = f0 / f0.sum()
    log_total = math.log(f0.sum())
    for b in range(blocks):
        starts[b] = a
        # only directions are linked here: the log total comes from the
        # per-step norms below, each block starting where the last ended
        a = a @ transfer[b]
        a /= a.sum()

    alpha = np.empty((blocks, steps + 1, s))
    alpha[:, 0] = starts
    cur = starts
    log_steps = np.zeros(blocks)
    for k in range(steps):
        cur = np.einsum("bi,bij->bj", cur, m[:, k])
        norm = cur.sum(axis=1)
        cur /= norm[:, None]
        log_steps += np.log(norm)
        alpha[:, k + 1] = cur
    log_total += float(log_steps.sum())
    out = np.empty((n + 1, s))
    out[:n] = alpha[:, :steps].reshape(blocks * steps, s)[:n]
    out[n] = alpha[-1, steps - pad]
    return out, log_total


def hmm_reference(pi, transition, emission, observations) -> tuple[float, float]:
    """(log P(y), H(X | y)) of an HMM with strictly positive parameters.

    Forward-backward over the chain factors f0 = pi * B[:, y0] and
    M_t[i, j] = A[i, j] * B[j, y_t], with the evidence carried in log
    space. Returns natural-log evidence and the posterior state-sequence
    entropy in bits, as

        H(X | y) = log P(y) - E[log p(x, y) | y].
    """
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(transition, dtype=float)
    b = np.asarray(emission, dtype=float)
    y = np.asarray(observations)
    f0 = pi * b[:, y[0]]
    if len(y) == 1:
        z = f0.sum()
        p = f0 / z
        return float(math.log(z)), float(-(p * np.log(p)).sum() / LN2)
    m = a[None, :, :] * b[:, y[1:]].T[:, None, :]  # (T-1, S, S)
    alpha, log_p = _forward(f0, m)
    # backward vectors are forward vectors of the reversed, transposed chain
    beta, _ = _forward(np.ones(len(pi)), m[::-1].transpose(0, 2, 1))
    beta = beta[::-1]

    gamma0 = f0 * beta[0]
    gamma0 /= gamma0.sum()
    xi = alpha[:-1, :, None] * m * beta[1:, None, :]
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    expected = float((gamma0 * np.log(f0)).sum() + (xi * np.log(m)).sum())
    return float(log_p), float((log_p - expected) / LN2)


class TreeModel:
    """A rooted tree of cardinality-K variables with one CPT per edge.

    Variable 0 is the root and carries the prior; every other variable i
    carries a (K, K) table over (x_parent[i], x_i), first index the
    parent. ``log_z(tables)`` eliminates leaves upward one depth level at
    a time, vectorized across each level, with per-message rescaling.
    """

    def __init__(self, parent: np.ndarray, card: int):
        self.parent = np.asarray(parent)
        self.card = card
        n = len(self.parent)
        depth = np.zeros(n, dtype=int)
        for i in range(1, n):
            depth[i] = depth[self.parent[i]] + 1
        self.levels = [np.flatnonzero(depth == d) for d in range(1, depth.max() + 1)]

    def log_z(self, prior: np.ndarray, cpts: np.ndarray) -> float:
        """Natural log of Z = sum_x prior(x_0) prod_i cpts[i][x_parent(i), x_i]."""
        n = len(self.parent)
        msg = np.ones((n, self.card))
        logs = np.zeros(n)
        for idx in reversed(self.levels):
            up = np.einsum("nij,nj->ni", cpts[idx], msg[idx])
            mx = up.max(axis=1)
            up /= mx[:, None]
            par = self.parent[idx]
            np.multiply.at(msg, par, up)
            np.add.at(logs, par, logs[idx] + np.log(mx))
            # renormalize parents that just received messages
            touched = np.unique(par)
            pm = msg[touched].max(axis=1)
            msg[touched] /= pm[:, None]
            logs[touched] += np.log(pm)
        return float(math.log(prior @ msg[0]) + logs[0])


def central_difference(fn, h: float) -> float:
    """(fn(+h) - fn(-h)) / (2h) for a scalar function of a scalar."""
    return (fn(h) - fn(-h)) / (2.0 * h)
