"""Message passing on acyclic factor graphs, generic over the semiring.

Two message kinds, both vectors over a variable's domain:

- variable to factor: the pointwise product of the factor-to-variable
  messages arriving from every OTHER neighboring factor,
- factor to variable: the semiring sum, over the factor's other scope
  variables, of the factor table times the incoming variable messages.

Leaves fall out of the same two rules: a leaf variable sends the all-ones
vector (empty product) and a unary factor sends its own lifted table (empty
sum). A schedule from :func:`fginfer.graph.make_schedule` lists directed
edges so that every feeding message exists before it is needed; one pass
yields the root marginal, a second pass yields every marginal.

Optional per-message rescaling multiplies a fresh message by 2^-e, which
puts its largest score magnitude in [1, 2), and adds the integer e to a
per-edge total E, so long chains neither underflow nor overflow. Powers
of two are exact away from subnormals: a rescaled message times 2^E is
the unrescaled one bit for bit. Boolean messages never scale. Quantities
that are ratios of message components do not feel the scaling at all.

Everything here is single threaded; stores must not be shared across
threads while messages are still being written.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingDependency
from .graph import FactorGraph, Schedule, make_schedule
from .semiring import Semiring

_LN2 = math.log(2.0)


class MessageStore:
    """Holds the directed messages of one run plus their log scales.

    ``q`` maps (variable index, factor index) to variable-to-factor
    messages; ``r`` maps (factor index, variable index) to factor-to-
    variable messages. The parallel ``q_scale`` / ``r_scale`` dicts carry
    the integer exponent E of each message, its scale 2^E (all zero when
    rescaling is off). Message vectors are owned by the store and must be
    treated as immutable by callers.
    """

    def __init__(self, graph: FactorGraph, semiring: Semiring, rescale: bool = False,
                 companions=None, tables=None):
        graph.ensure_checked()
        self.graph = graph
        self.semiring = semiring
        self.rescale = bool(rescale)
        if tables is None:
            tables = lift_tables(semiring, graph.factors, companions)
        self.tables = tables
        self.q: dict = {}
        self.r: dict = {}
        self.q_scale: dict = {}
        self.r_scale: dict = {}

    def message_count(self) -> int:
        return len(self.q) + len(self.r)


def lift_tables(s: Semiring, factors, companions=None) -> list:
    """Every factor's carrier table, from one ``lift_table`` call over the
    concatenated tables.

    Companions are None or one per factor (None, a table of the factor's
    length, or a (k, n) array). When any has k columns, the others are
    widened to k equal columns, which is what a width-1 aux means in a
    width-k product anyway.
    """
    if not factors:
        return []
    sizes = [f.values.size for f in factors]
    values = np.concatenate([f.values for f in factors])
    if companions is None or all(c is None for c in companions):
        lifted = s.lift_table(values)
    else:
        comps = []
        for c, n in zip(companions, sizes):
            c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
            comps.append(c if c.ndim == 2 and c.shape[1] == n else c.reshape(n))
        k = max((len(c) for c in comps if c.ndim == 2), default=0)
        if k:
            comps = [c if c.ndim == 2 else np.broadcast_to(c, (k, c.size)) for c in comps]
        lifted = s.lift_table(values, np.concatenate(comps, axis=-1))
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends, ends))
    if isinstance(lifted, np.ndarray):
        return [lifted[:, a:b] for a, b in spans]
    if isinstance(lifted, tuple):
        return [(lifted[0][a:b], lifted[1][a:b]) for a, b in spans]
    return [lifted[a:b] for a, b in spans]


def scale_exponent(x: float) -> int:
    """The e with |x| 2^-e in [1, 2), 0 for x = 0; at least -1021, so 2^-e is finite."""
    return max(math.frexp(x)[1] - 1, -1021) if x else 0


def fold_exponent(mantissas, exponent: int) -> tuple[list, int]:
    """(mantissas * 2^exponent, 0) if those products are all finite
    normal floats or 0, else (mantissas, exponent) unchanged."""
    # x * 2^E is normal iff its frexp exponent k + E is in [-1021, 1024]
    if all(x == 0.0 or -1021 <= math.frexp(x)[1] + exponent <= 1024 for x in mantissas):
        return [math.ldexp(x, exponent) for x in mantissas], 0
    return list(mantissas), exponent


def rescale_message(s: Semiring, msg, exponent: int) -> int:
    """Multiply a fresh message in place by 2^-e, e the
    :func:`scale_exponent` of its largest score magnitude; returns
    ``exponent + e``."""
    e = scale_exponent(s.max_abs_score(msg))
    if e:
        s.scale_msg_inplace(msg, math.ldexp(1.0, -e))
    return exponent + e


def _send_v2f(store: MessageStore, vi: int, fi: int):
    g = store.graph
    s = store.semiring
    msgs = []
    acc = 0
    r = store.r
    r_scale = store.r_scale
    for f2 in g.var_factors[vi]:
        if f2 != fi:
            key = (f2, vi)
            m = r.get(key)
            if m is None:
                raise MissingDependency(
                    f"message {g.factors[f2].id!r} -> {g.variables[vi].id!r} not computed yet"
                )
            msgs.append(m)
            # a message with no recorded scale was never rescaled
            acc += r_scale.get(key, 0)
    msg = s.combine(msgs, g.variables[vi].cardinality)
    # single-input messages are aliased, already scaled by induction
    if store.rescale and len(msgs) != 1:
        acc = rescale_message(s, msg, acc)
    store.q[(vi, fi)] = msg
    store.q_scale[(vi, fi)] = acc
    return msg


def _send_f2v(store: MessageStore, fi: int, vi: int):
    g = store.graph
    s = store.semiring
    q = store.q
    q_scale = store.q_scale
    incoming = []
    acc = 0
    tpos = -1
    for pos, v2 in enumerate(g.factor_vars[fi]):
        if v2 == vi:
            tpos = pos
            continue
        key = (v2, fi)
        m = q.get(key)
        if m is None:
            raise MissingDependency(
                f"message {g.variables[v2].id!r} -> {g.factors[fi].id!r} not computed yet"
            )
        incoming.append((pos, m))
        acc += q_scale.get(key, 0)
    if tpos < 0:
        raise MissingDependency(
            f"variable {g.variables[vi].id!r} is not in the scope of factor {g.factors[fi].id!r}"
        )
    msg = s.contract(store.tables[fi], g.factor_cards[fi], incoming, tpos)
    if store.rescale:
        acc = rescale_message(s, msg, acc)
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
    g = store.graph
    for vi, touching in enumerate(g.var_factors):
        if len(touching) == 1 and (vi, touching[0]) not in store.q:
            _send_v2f(store, vi, touching[0])
    for fi, fvars in enumerate(g.factor_vars):
        if len(fvars) == 1 and (fi, fvars[0]) not in store.r:
            _send_f2v(store, fi, fvars[0])
    return store


def _factor_position(g: FactorGraph, factor_id: str) -> int:
    for fi, f in enumerate(g.factors):
        if f.id == factor_id:
            return fi
    raise KeyError(f"unknown factor {factor_id!r}")


@dataclass
class MarginalResult:
    """An unnormalized marginal: ``msg`` times 2^``exponent``, with
    ``log_scale`` = ``exponent`` ln 2."""

    variable: str
    msg: object
    log_scale: float
    semiring: Semiring = field(repr=False)
    exponent: int = 0

    def scores(self) -> list:
        """Score components, one per domain value (the raw vector for
        real semirings)."""
        return self.semiring.scores(self.msg)


def _execute(store: MessageStore, schedule: Schedule) -> None:
    send_v2f = _send_v2f
    send_f2v = _send_f2v
    for to_factor, vi, fi in schedule.edges:
        if to_factor:
            send_v2f(store, vi, fi)
        else:
            send_f2v(store, fi, vi)


def marginal_at(store: MessageStore, var_id: str) -> MarginalResult:
    """Combine all factor-to-variable messages at one variable.

    Needs every incoming message, so after a one-pass run only the
    component roots qualify.
    """
    g = store.graph
    s = store.semiring
    vi = g.variable_position(var_id)
    msgs = []
    acc = 0
    for fi in g.var_factors[vi]:
        key = (fi, vi)
        m = store.r.get(key)
        if m is None:
            raise MissingDependency(
                f"marginal at {var_id!r} needs message from factor {g.factors[fi].id!r};"
                " run with two_pass=True for non-root variables"
            )
        msgs.append(m)
        acc += store.r_scale.get(key, 0)
    msg = s.combine(msgs, g.variables[vi].cardinality)
    return MarginalResult(variable=var_id, msg=msg, log_scale=acc * _LN2, semiring=s,
                          exponent=acc)


def run(g: FactorGraph, s: Semiring, root: str | None = None, two_pass: bool = False,
        rescale: bool = False, companions=None, tables=None):
    """Run message passing to completion; returns (marginals, store).

    One pass computes the marginal at the root (and at each extra
    component's local root on forests); ``two_pass=True`` computes the
    marginal of every variable. ``companions`` optionally pairs each factor
    table with a companion table for semirings that lift pairs; ``tables``
    optionally supplies pre-lifted carrier tables and overrides both.
    """
    g.ensure_checked()
    schedule = make_schedule(g, root=root, two_pass=two_pass)
    store = MessageStore(g, s, rescale=rescale, companions=companions, tables=tables)
    _execute(store, schedule)
    if two_pass:
        targets = range(len(g.variables))
    else:
        targets = schedule.component_roots
    marginals = {}
    for vi in targets:
        vid = g.variables[vi].id
        marginals[vid] = marginal_at(store, vid)
    return marginals, store


def total_sum(marginal: MarginalResult, s: Semiring | None = None, apply_scale: bool = True):
    """Semiring sum of a marginal vector: the per-component total weight.

    With ``apply_scale`` the exponent is folded back in exactly, as
    ldexp(total, exponent), so a rescaled run's total equals the
    unrescaled run's bit for bit; a total past float range reads inf.
    Without it the total is the mantissa, to be kept with ``exponent``.
    """
    s = s or marginal.semiring
    w = s.reduce_msg(marginal.msg)
    if apply_scale and marginal.exponent:
        with np.errstate(over="ignore"):
            if isinstance(w, tuple):
                w = type(w)(*(_ldexp(x, marginal.exponent) for x in w))
            else:
                w = _ldexp(w, marginal.exponent)
    return w


def _ldexp(x, exponent: int):
    y = np.ldexp(x, exponent)
    return float(y) if np.ndim(y) == 0 else y
