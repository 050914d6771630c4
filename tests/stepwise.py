"""The per-edge step API: one message per call, the level plan's reference.

:func:`fginfer.run` computes every message of a level with one kernel
call. The functions here compute one message per call with the same
kernels, in the same sum order, and rescale it by the same rule, so every
message of a run must equal theirs bit for bit. :func:`spread` reads a
run's messages through its :class:`~fginfer.RunMessages` accessor into
the same four dicts, for comparison.
"""

from typing import NamedTuple

import numpy as np
from conftest import adjacency

from fginfer import MarginalResult, MissingDependency, make_schedule, run
from fginfer.propagation import (
    _LN2,
    _contraction_index,
    _factor_shapes,
    _rescale,
)


class MessageStore:
    """Holds the directed messages of one step-by-step run plus their
    exponents.

    ``q`` maps (variable index, factor index) to variable-to-factor
    messages; ``r`` maps (factor index, variable index) to factor-to-
    variable messages. The parallel ``q_scale`` / ``r_scale`` dicts carry
    the integer exponent E of each message, its scale 2^E. ``tables``
    holds every factor's carrier table side by side in factor order, as
    :meth:`fginfer.WeightedGraph.carrier_tables` returns them; by default
    the graph's own ``values``, lifted. ``factor_vars`` and
    ``var_factors`` are the graph's :func:`~conftest.adjacency` lists.
    """

    def __init__(self, graph, semiring, tables=None):
        graph.ensure_checked()
        self.graph = graph
        self.semiring = semiring
        self.tables = semiring.lift_table(graph.values) if tables is None else tables
        self.shapes = _factor_shapes(graph)
        self.factor_vars, self.var_factors = adjacency(graph)
        self.q, self.r, self.q_scale, self.r_scale = {}, {}, {}, {}

    def message_count(self) -> int:
        return len(self.q) + len(self.r)


class Spread(NamedTuple):
    """A run's messages in a step store's four dicts."""

    q: dict
    r: dict
    q_scale: dict
    r_scale: dict


def spread(g, messages) -> Spread:
    """Every message a run computed, read one by one through its
    accessor; the messages it did not compute are left out."""
    out = Spread({}, {}, {}, {})
    for fi, scope in enumerate(adjacency(g)[0]):
        for vi in scope:
            for to_factor, msgs, scales, key in ((True, out.q, out.q_scale, (vi, fi)),
                                                 (False, out.r, out.r_scale, (fi, vi))):
                try:
                    msgs[key], scales[key] = messages.message(to_factor, vi, fi)
                except MissingDependency:
                    pass
    return out


def run_spread(g, s, **kwargs):
    """:func:`fginfer.run`, with its messages spread into dicts."""
    marginals, messages = run(g, s, **kwargs)
    return marginals, spread(g, messages)


def _send_v2f(store: MessageStore, vi: int, fi: int):
    g = store.graph
    s = store.semiring
    msgs = []
    acc = 0
    for f2 in store.var_factors[vi]:
        if f2 != fi:
            key = (f2, vi)
            m = store.r.get(key)
            if m is None:
                raise MissingDependency(
                    f"message {g.factors[f2].id!r} -> {g.variables[vi].id!r} not computed yet"
                )
            msgs.append(m)
            acc += store.r_scale.get(key, 0)
    card = g.variables[vi].cardinality
    if not msgs:
        msg = np.zeros((len(store.tables), card))
        msg[0] = 1.0
    elif len(msgs) == 1:
        # aliased, already scaled by induction
        msg = msgs[0]
    else:
        msg = s.combine(msgs)
        acc += int(_rescale(s, msg, [0], 0)[0])
    store.q[(vi, fi)] = msg
    store.q_scale[(vi, fi)] = acc
    return msg


def _send_f2v(store: MessageStore, fi: int, vi: int):
    g = store.graph
    s = store.semiring
    incoming = []
    acc = 0
    tpos = -1
    for pos, v2 in enumerate(store.factor_vars[fi]):
        if v2 == vi:
            tpos = pos
            continue
        key = (v2, fi)
        m = store.q.get(key)
        if m is None:
            raise MissingDependency(
                f"message {g.variables[v2].id!r} -> {g.factors[fi].id!r} not computed yet"
            )
        incoming.append(m)
        acc += store.q_scale.get(key, 0)
    if tpos < 0:
        raise MissingDependency(
            f"variable {g.variables[vi].id!r} is not in the scope of factor {g.factors[fi].id!r}"
        )
    cards, steps, sizes = store.shapes[:3]
    (table,), (out,) = _contraction_index(store.shapes, np.array([fi]), np.array([tpos]),
                                          [0, 1])
    within = np.arange(sizes[fi])
    digits = [within // steps[fi, p] % cards[fi, p]
              for p in range(len(store.factor_vars[fi])) if p != tpos]
    msg = s.contract(store.tables[:, table], [m[:, d] for m, d in zip(incoming, digits)], out,
                     int(cards[fi, tpos]))
    acc += int(_rescale(s, msg, [0], 0)[0])
    store.r[(fi, vi)] = msg
    store.r_scale[(fi, vi)] = acc
    return msg


def variable_to_factor(store: MessageStore, n: str, m: str):
    """Compute, store, and return the message from variable n to factor m."""
    g = store.graph
    vi = g.variable_position(n)
    fi = _factor_position(g, m)
    if (vi, fi) in store.q:
        raise ValueError(f"message {n!r} -> {m!r} was already written this pass")
    return _send_v2f(store, vi, fi)


def factor_to_variable(store: MessageStore, m: str, n: str):
    """Compute, store, and return the message from factor m to variable n."""
    g = store.graph
    vi = g.variable_position(n)
    fi = _factor_position(g, m)
    if (fi, vi) in store.r:
        raise ValueError(f"message {m!r} -> {n!r} was already written this pass")
    return _send_f2v(store, fi, vi)


def init_leaf_messages(store: MessageStore) -> MessageStore:
    """Populate the messages leaving every leaf node of the graph.

    Leaf variables send the all-ones vector toward their only factor; unary
    factors send their lifted table. Running the two kernels on those edges
    produces exactly that, so this is a convenience wrapper, not a separate
    rule.
    """
    for vi, touching in enumerate(store.var_factors):
        if len(touching) == 1 and (vi, touching[0]) not in store.q:
            _send_v2f(store, vi, touching[0])
    for fi, fvars in enumerate(store.factor_vars):
        if len(fvars) == 1 and (fi, fvars[0]) not in store.r:
            _send_f2v(store, fi, fvars[0])
    return store


def _factor_position(g, factor_id: str) -> int:
    for fi, f in enumerate(g.factors):
        if f.id == factor_id:
            return fi
    raise KeyError(f"unknown factor {factor_id!r}")


def marginal_at(store: MessageStore, var_id: str) -> MarginalResult:
    """Combine all factor-to-variable messages at one variable.

    Needs every incoming message, so after a one-pass run only the
    component roots qualify.
    """
    g = store.graph
    vi = g.variable_position(var_id)
    msgs = []
    acc = 0
    for fi in store.var_factors[vi]:
        key = (fi, vi)
        m = store.r.get(key)
        if m is None:
            raise MissingDependency(
                f"marginal at {var_id!r} needs message from factor {g.factors[fi].id!r};"
                " run with two_pass=True for non-root variables"
            )
        msgs.append(m)
        acc += store.r_scale.get(key, 0)
    if len(msgs) == 1:
        msg = msgs[0]
    else:
        msg = store.semiring.combine(msgs)
        acc += int(_rescale(store.semiring, msg, [0], 0)[0])
    return MarginalResult(msg, acc * _LN2, acc)


def step_reference(g, s, root, two_pass, tables) -> MessageStore:
    """The store of the per-edge step API driven along make_schedule."""
    store = MessageStore(g, s, tables=tables)
    for to_factor, vi, fi in make_schedule(g, root=root, two_pass=two_pass).edges.tolist():
        v, f = g.variables[vi].id, g.factors[fi].id
        if to_factor:
            variable_to_factor(store, v, f)
        else:
            factor_to_variable(store, f, v)
    return store
