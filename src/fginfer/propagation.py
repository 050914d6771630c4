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

Every message is one (k + 1, card) float array (see
:mod:`fginfer.semiring`), and a variable-to-factor message with a single
input is that input, aliased. :func:`run` compiles the graph, once per
root, into a level plan that it caches with the graph. A message's level
is one more than the highest level among the messages it reads, so the
messages of one level can be computed together: per level, one group of
variable-to-factor products and one group of contractions, each sorted
by input count so that each sibling rank covers a prefix of the group;
short sums are padded by zeros, which are added, never multiplied. The
second pass gets its own levels, after the first. The plan holds index arrays only, no table
values, and runs each group with one call of each kernel, looked up on
the semiring at call time. The per-edge step API (:class:`MessageStore`,
:func:`variable_to_factor`, :func:`factor_to_variable`,
:func:`init_leaf_messages`, :func:`marginal_at`) computes one message per
call with the same kernels and is the plan's reference in the tests:
every message of a run equals its message bit for bit.

Optional per-message rescaling multiplies a fresh message by 2^-e, which
puts its largest score magnitude in [1, 2), and adds the integer e to a
per-edge total E, so long chains neither underflow nor overflow. Powers
of two are exact away from subnormals: a rescaled message times 2^E is
the unrescaled one bit for bit. Boolean messages never scale. Quantities
that are ratios of message components do not feel the scaling at all.

Everything here is single threaded; stores must not be shared across
threads while messages are still being written.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MissingDependency
from .graph import FactorGraph, make_schedule
from .semiring import Semiring

_LN2 = math.log(2.0)


class MessageStore:
    """Holds the directed messages of one run plus their log scales.

    ``q`` maps (variable index, factor index) to variable-to-factor
    messages; ``r`` maps (factor index, variable index) to factor-to-
    variable messages. The parallel ``q_scale`` / ``r_scale`` dicts carry
    the integer exponent E of each message, its scale 2^E (all zero when
    rescaling is off). ``tables`` holds every factor's carrier table side
    by side in factor order, as :func:`lift_tables` returns them; by
    default the graph's own tables, lifted. Message vectors are owned by
    the store and must be treated as immutable by callers.
    """

    def __init__(self, graph: FactorGraph, semiring: Semiring, rescale: bool = False,
                 tables=None):
        graph.ensure_checked()
        self.graph = graph
        self.semiring = semiring
        self.rescale = bool(rescale)
        self.tables = lift_tables(semiring, graph.factors) if tables is None else tables
        # set by a level plan's run to build the four dicts on first use
        self.spread = None

    def __getattr__(self, name):
        if name not in ("q", "r", "q_scale", "r_scale"):
            raise AttributeError(name)
        self.q, self.r, self.q_scale, self.r_scale = (
            self.spread() if self.spread else ({}, {}, {}, {}))
        return getattr(self, name)

    @cached_property
    def shapes(self):
        return _factor_shapes(self.graph)

    def message_count(self) -> int:
        return len(self.q) + len(self.r)


def lift_tables(s: Semiring, factors, companions=None) -> np.ndarray:
    """Every factor's carrier table, side by side in factor order, from
    one ``lift_table`` call over the concatenated tables.

    Companions are None or one per factor (None, a flat table of the
    factor's length, or a (k, n) array). When any has k columns, the
    others are widened to k equal columns, which is what a width-1 aux
    means in a width-k product anyway.
    """
    values = np.concatenate([f.values for f in factors])
    if companions is None or all(c is None for c in companions):
        return s.lift_table(values)
    comps = [np.zeros(f.values.size) if c is None else np.asarray(c, dtype=float)
             for f, c in zip(factors, companions)]
    k = max((len(c) for c in comps if c.ndim == 2), default=0)
    if k:
        comps = [c if c.ndim == 2 else np.broadcast_to(c, (k, c.size)) for c in comps]
    return s.lift_table(values, np.concatenate(comps, axis=-1))


def scale_exponents(mx: np.ndarray) -> np.ndarray:
    """The e with |x| 2^-e in [1, 2) for each x of ``mx``, 0 for x = 0; at
    least -1021, so 2^-e is finite."""
    return np.where(mx == 0.0, 0, np.maximum(np.frexp(mx)[1] - 1, -1021))


def fold_exponent(mantissas, exponent: int) -> tuple[list, int]:
    """(mantissas * 2^exponent, 0) if those products are all finite
    normal floats or 0, else (mantissas, exponent) unchanged."""
    # x * 2^E is normal iff its frexp exponent k + E is in [-1021, 1024]
    if all(x == 0.0 or -1021 <= math.frexp(x)[1] + exponent <= 1024 for x in mantissas):
        return [math.ldexp(x, exponent) for x in mantissas], 0
    return list(mantissas), exponent


def _rescale(s: Semiring, msgs: np.ndarray, starts: np.ndarray, member: np.ndarray):
    """Multiply each fresh message of a batch in place by 2^-e, e the
    :func:`scale_exponents` of its largest score magnitude; returns the
    e per message. Message i starts at entry ``starts[i]``; ``member``
    names the message of every entry (0 for a single message)."""
    e = scale_exponents(s.max_abs_score(msgs, starts))
    s.scale_msg_inplace(msgs, np.ldexp(1.0, -e)[member])
    return e


def _entries(lengths: np.ndarray):
    """(start, member, within) of a batch of messages laid side by side:
    each message's first entry, and each entry's message and position
    in it."""
    start = np.cumsum(lengths) - lengths
    member = np.repeat(np.arange(len(lengths)), lengths)
    return start, member, np.arange(len(member)) - start[member]


def _factor_shapes(g: FactorGraph):
    """Every factor's cards and index steps, padded to the largest arity
    with cardinality 1, whose digit is always 0; its table size and first
    entry in the lifted tables; and per target position, the others."""
    arity = max(len(c) for c in g.factor_cards)
    cards = np.array([c + [1] * (arity - len(c)) for c in g.factor_cards], dtype=int)
    steps = np.ones_like(cards)
    steps[:, :-1] = np.cumprod(cards[:, :0:-1], axis=1)[:, ::-1]
    sizes = cards.prod(axis=1)
    others = np.array([[p for p in range(arity) if p != t] for t in range(arity)], dtype=int)
    return cards, steps, sizes, np.cumsum(sizes) - sizes, others


def _contraction_index(shapes, fi: np.ndarray, tpos: np.ndarray):
    """Entry indices of a batch of factor-to-variable messages, from
    factors ``fi`` to their scope positions ``tpos``.

    Returns (member, digits, table, terms): the message of each table
    entry of the batch; ``digits[j]``, the entry of incoming message j,
    in scope order, that each table entry multiplies; each table entry's
    column in the lifted tables; and ``terms`` as
    :meth:`~fginfer.semiring.Semiring.contract` takes them.
    """
    cards, steps, sizes, starts, others = shapes
    size, tcard, tstep, other = sizes[fi], cards[fi, tpos], steps[fi, tpos], others[tpos]
    start, member, within = _entries(size)
    digits = [within // steps[fi, other[:, j]][member] % cards[fi, other[:, j]][member]
              for j in range(other.shape[1])]
    # output entry x of message i sums, in table order, the entries
    # hi * tcard * tstep + x * tstep + lo, the n-th with hi, lo = divmod(n, tstep)
    _, out_member, x = _entries(tcard)
    width = (size // tcard)[out_member][:, None]
    step = tstep[out_member][:, None]
    n = np.arange(width.max())
    terms = (start[out_member][:, None] + n // step * (tcard[out_member][:, None] * step)
             + x[:, None] * step + n % step)
    terms[n >= width] = -1
    return member, digits, starts[fi][member] + within, terms


def _send_v2f(store: MessageStore, vi: int, fi: int):
    g = store.graph
    s = store.semiring
    msgs = []
    acc = 0
    for f2 in g.var_factors[vi]:
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
        if store.rescale:
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
    for pos, v2 in enumerate(g.factor_vars[fi]):
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
    _, digits, table, terms = _contraction_index(store.shapes, np.array([fi]), np.array([tpos]))
    msg = s.contract(store.tables[:, table], [m[:, d] for m, d in zip(incoming, digits)],
                     terms)
    if store.rescale:
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
        """Score components, one float per domain value."""
        return self.semiring.scores(self.msg)


def marginal_at(store: MessageStore, var_id: str) -> MarginalResult:
    """Combine all factor-to-variable messages at one variable.

    Needs every incoming message, so after a one-pass run only the
    component roots qualify.
    """
    g = store.graph
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
    msg = msgs[0] if len(msgs) == 1 else store.semiring.combine(msgs)
    return MarginalResult(variable=var_id, msg=msg, log_scale=acc * _LN2,
                          semiring=store.semiring, exponent=acc)


@dataclass
class _Group:
    """Messages of one level, computed by one kernel call.

    The outputs fill entries ``lo:hi`` of the run's message buffer and
    ``slots`` of its exponent array. ``gathers[j]`` indexes the buffer
    entries of the outputs' j-th inputs, ``exp_in[j]`` the slots of
    those inputs; both cover a prefix of the group, whose messages come
    in decreasing input count. Contractions also gather their ``table``
    entries and sum them by ``terms``.
    """

    lo: int
    hi: int
    slots: slice
    gathers: list
    exp_in: list
    starts: np.ndarray
    member: np.ndarray
    table: np.ndarray | None = None
    terms: np.ndarray | None = None
    rescaled: bool = True


class LevelPlan:
    """A run on one graph and root, compiled: everything but the tables.

    Built from the one- or two-pass schedule; a one-pass run executes the
    groups of the first pass only. Messages live in one buffer, one slot of
    entries per computed or all-ones message; an aliased message shares
    its input's slot.
    """

    def __init__(self, g: FactorGraph, root: str | None, two_pass: bool):
        schedule = make_schedule(g, root=root, two_pass=two_pass)
        edges = schedule.edges
        n_up = schedule.n_edges
        ident = {e: m for m, e in enumerate(edges)}
        cards = [v.cardinality for v in g.variables]
        # per message (schedule edges, then marginals): its card and its
        # inputs, each resolved to the message whose slot it uses
        card = [cards[vi] for _, vi, _ in edges]
        inputs, level, ones = [], [], []
        source = list(range(len(edges)))
        groups = defaultdict(list)
        for m, (to_factor, vi, fi) in enumerate(edges):
            if m == n_up:
                # the first pass is complete before the second starts
                level[:] = [-1] * n_up
            if to_factor:
                ins = [source[ident[(False, vi, f2)]] for f2 in g.var_factors[vi] if f2 != fi]
            else:
                ins = [source[ident[(True, v2, fi)]] for v2 in g.factor_vars[fi] if v2 != vi]
            inputs.append(ins)
            lv = 1 + max(map(level.__getitem__, ins), default=-1)
            if not to_factor or len(ins) > 1:
                groups[(m >= n_up, lv, not to_factor)].append(m)
            elif ins:
                source[m] = ins[0]
            else:
                ones.append(m)
                lv = -1
            level.append(lv)
        # marginals: component roots after one pass, every variable after two
        marginals = []
        for both in range(1 + two_pass):
            ids, ms = [], []
            for vi in range(len(g.variables)) if both else schedule.component_roots:
                ins = [source[ident[(False, vi, fi)]] for fi in g.var_factors[vi]]
                if len(ins) > 1:
                    ms.append(len(inputs))
                    inputs.append(ins)
                    card.append(cards[vi])
                ids.append((g.variables[vi].id, ms[-1] if len(ins) > 1 else ins[0]))
            marginals.append((ids, ms))

        keys = sorted(groups)
        members = [sorted(groups[k], key=lambda m: -len(inputs[m])) for k in keys]
        marginal_members = [sorted(ms, key=lambda m: -len(inputs[m])) for _, ms in marginals]
        # slots in execution order, the all-ones messages first
        order = ones + [m for ms in members + marginal_members for m in ms]
        slot = np.zeros(len(inputs), dtype=int)
        slot[order] = np.arange(len(order))
        lengths = np.array([card[m] for m in order], dtype=int)
        self.spans = np.cumsum(lengths) - lengths
        self.n_entries = int(lengths.sum())
        self.n_ones = sum(card[m] for m in ones)

        shapes = _factor_shapes(g)

        def contractions(ms):
            member, digits, table, terms = _contraction_index(
                shapes, np.array([edges[m][2] for m in ms]),
                np.array([g.factor_vars[edges[m][2]].index(edges[m][1]) for m in ms]))
            return self._group(ms, inputs, slot, card, member, digits, table=table, terms=terms)

        def products(ms, rescaled=True):
            _, member, within = _entries(np.array([card[m] for m in ms], dtype=int))
            return self._group(ms, inputs, slot, card, member, [within] * len(inputs[ms[0]]),
                               rescaled=rescaled)

        self.passes: tuple[list, list] = ([], [])
        for (down, _, contraction), ms in zip(keys, members):
            self.passes[down].append(contractions(ms) if contraction else products(ms))
        self.marginals = [([vid for vid, _ in ids], slot[[m for _, m in ids]].tolist(),
                           products(ms, rescaled=False) if ms else None)
                          for (ids, _), ms in zip(marginals, marginal_members)]
        # every edge's (to_factor, variable, factor, slot), by pass
        self.edges = np.column_stack((np.array(edges, dtype=int), slot[source]))
        self.n_up = n_up

    def _group(self, ms, inputs, slot, card, member, digits, **kw) -> _Group:
        """The group of messages ``ms``, which come in decreasing input
        count. Entry e of the batch belongs to message ``member[e]`` and
        multiplies entry ``digits[j][e]`` of that message's j-th input."""
        rows = [inputs[m] for m in ms]
        lens = np.array([len(r) for r in rows], dtype=int)
        flat = slot[np.fromiter(itertools.chain.from_iterable(rows), dtype=int,
                                count=lens.sum())]
        firsts = np.cumsum(lens) - lens
        gathers, exp_in = [], []
        for j in range(lens[0]):
            n = int(np.count_nonzero(lens > j))
            src = flat[firsts[:n] + j]
            end = np.searchsorted(member, n)
            gathers.append(self.spans[src][member[:end]] + digits[j][:end])
            exp_in.append(src)
        s0 = int(slot[ms[0]])
        start, out_member, _ = _entries(np.array([card[m] for m in ms], dtype=int))
        lo = int(self.spans[s0])
        return _Group(lo, lo + len(out_member), slice(s0, s0 + len(ms)), gathers, exp_in,
                      start, out_member, **kw)

    def execute(self, store: MessageStore, two_pass: bool) -> dict:
        """Run the passes into ``store``; returns the marginals."""
        s, tables, rescale = store.semiring, store.tables, store.rescale
        buf = np.zeros((len(tables), self.n_entries))
        buf[0, :self.n_ones] = 1.0
        exps = np.zeros(len(self.spans), dtype=np.int64)
        ids, slots, marginal_group = self.marginals[two_pass]
        groups = self.passes[0] + self.passes[1] if two_pass else self.passes[0]
        # an unrescaled pass past float range reads inf, as documented
        with np.errstate(over="ignore"):
            for group in groups + ([marginal_group] if marginal_group else []):
                ins = [buf[:, i] for i in group.gathers]
                if group.terms is None:
                    out = s.combine(ins)
                else:
                    out = s.contract(tables[:, group.table], ins, group.terms)
                if rescale:
                    e = np.zeros(len(group.starts), dtype=np.int64)
                    for x in group.exp_in:
                        e[:len(x)] += exps[x]
                    if group.rescaled:
                        e += _rescale(s, out, group.starts, group.member)
                    exps[group.slots] = e
                buf[:, group.lo:group.hi] = out
        spans = self.spans.tolist() + [self.n_entries]
        views = [buf[:, a:b] for a, b in zip(spans, spans[1:])]
        ex = exps.tolist()

        def spread():
            q, r, q_scale, r_scale = {}, {}, {}, {}
            edges = self.edges[:None if two_pass else self.n_up].tolist()
            for to_factor, vi, fi, sl in edges:
                if to_factor:
                    q[(vi, fi)], q_scale[(vi, fi)] = views[sl], ex[sl]
                else:
                    r[(fi, vi)], r_scale[(fi, vi)] = views[sl], ex[sl]
            return q, r, q_scale, r_scale

        store.spread = spread
        return {vid: MarginalResult(variable=vid, msg=views[sl], log_scale=ex[sl] * _LN2,
                                    semiring=s, exponent=ex[sl])
                for vid, sl in zip(ids, slots)}


def level_plan(g: FactorGraph, root: str | None = None, two_pass: bool = False) -> LevelPlan:
    """The graph's level plan for a root (default: the first variable),
    compiled on first use and cached with the graph. A two-pass plan
    serves one-pass runs as well."""
    key = g.variable_position(root) if root is not None else 0
    plan = g.plans.get((key, True)) or g.plans.get((key, two_pass))
    if plan is None:
        plan = g.plans[(key, two_pass)] = LevelPlan(g, root, two_pass)
    return plan


def run(g: FactorGraph, s: Semiring, root: str | None = None, two_pass: bool = False,
        rescale: bool = False, tables=None):
    """Run message passing to completion; returns (marginals, store).

    One pass computes the marginal at the root (and at each extra
    component's local root on forests); ``two_pass=True`` computes the
    marginal of every variable. ``tables`` optionally supplies the lifted
    carrier tables, as :func:`lift_tables` or
    :meth:`fginfer.entropy.WeightedGraph.carrier_tables` return them;
    by default the graph's tables are lifted without companions.
    """
    store = MessageStore(g, s, rescale=rescale, tables=tables)
    return level_plan(g, root, two_pass).execute(store, two_pass), store


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
