"""Message passing on acyclic factor graphs, generic over the semiring.

Two message kinds, both vectors over a variable's domain:

- variable to factor: the pointwise product of the factor-to-variable
  messages arriving from every OTHER neighboring factor,
- factor to variable: the semiring sum, over the factor's other scope
  variables, of the factor table times the incoming variable messages.

Leaves fall out of the same two rules: a leaf variable sends the all-ones
vector (empty product) and a unary factor sends its own lifted table (empty
sum). :func:`fginfer.graph.make_schedule` gives every node's depth below
its component's root; by depth, every feeding message exists before it is
needed. One pass yields the root marginal, a second pass every marginal.

Every message is one (k + 1, card) float array (see
:mod:`fginfer.semiring`), and a variable-to-factor message with a single
input is that input, aliased. :func:`run` compiles the graph, once per
root, into a level plan that it caches with the graph. In the first pass
a message's level is the maximum depth minus its sender's depth, in the
second pass (after the first) its sender's depth, so every message reads
messages of earlier levels only. Component roots are variables, so one
level holds either variable-to-factor products or contractions; each
level is one group, sorted by falling input count, so that each input
rank covers a prefix of the group. A contraction gives each table entry
one output index in its group, which the semiring's reduction folds it
into, left to right in table order. The plan holds index arrays only, no
table values, and runs each group with one call of each kernel, looked
up on the semiring at call time. A run keeps its messages in one buffer:
it returns views of the marginals only, and a :class:`RunMessages`
record that reads any one message on request. The tests drive the same
kernels one message at a time, along the schedule, as the plan's
reference: every message of a run equals theirs bit for bit.

Every fresh message is multiplied by 2^-e, which puts its largest score
magnitude in [1, 2), and e is added to its integer exponent E, so long
chains neither underflow nor overflow. Powers of two are exact away from
subnormals: tables times 2^j leave every mantissa as it was, bit for
bit, and add the j to E. Boolean messages never scale. Quantities that
are ratios of message components do not feel the scaling at all.

Everything here is single threaded. A run writes only a buffer of its
own, and nothing writes that buffer once the run has returned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingDependency
from .graph import FactorGraph, make_schedule
from .semiring import Semiring

_LN2 = math.log(2.0)


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


def _entries(lengths: np.ndarray, base=0):
    """(start, within) of a batch of messages laid side by side: each
    message's first entry, and each entry's position in its message plus
    its message's ``base``."""
    start = np.cumsum(lengths) - lengths
    within = np.arange(int(lengths.sum()))
    within -= np.repeat(start - base, lengths)
    return start, within


def _member(lengths: np.ndarray) -> np.ndarray:
    """The message of each entry of a batch laid side by side."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _factor_shapes(g: FactorGraph):
    """Every factor's cards and index steps, padded to the largest arity
    with cardinality 1; its table size and first entry in the lifted
    tables; and where its scope position p starts (``axes[f, p]``) in the
    digit table: each table entry's digit on each axis of each shape of
    factor, after the digits of a message's own entries."""
    arity = np.diff(g.scope_offsets)
    rows, cols = _member(arity), _entries(arity)[1]
    cards = np.ones((len(arity), arity.max()), dtype=int)
    cards[rows, cols] = g.cards[g.scope_vars]
    steps = np.ones_like(cards)
    steps[:, :-1] = np.cumprod(cards[:, :0:-1], axis=1)[:, ::-1]
    sizes = cards.prod(axis=1)
    shape = arity
    for col in cards.T:
        shape = np.unique(shape * (col.max() + 1) + col, return_inverse=True)[1]
    rep = np.zeros(shape.max() + 1, dtype=int)
    rep[shape] = np.arange(len(arity))
    fa, pa = rep[_member(arity[rep])], _entries(arity[rep])[1]
    step, card = np.append(1, steps[fa, pa]), np.append(g.cards.max(), cards[fa, pa])
    size = np.append(card[0], sizes[fa])
    start, k = _entries(size)
    axes = np.zeros_like(cards)
    axes[rows, cols] = start[1 + (np.cumsum(arity[rep]) - arity[rep])[shape][rows] + cols]
    return (cards, steps, sizes, np.cumsum(sizes) - sizes, axes,
            k // np.repeat(step, size) % np.repeat(card, size))


def _order(*keys) -> np.ndarray:
    """Indices that sort by nonnegative integer ``keys``, the first most
    significant, ties in any order: one argsort of a combined key, or a
    lexsort where that key would pass int64."""
    spans = [int(k.max()) + 1 for k in keys]
    if math.prod(spans) >= 2 ** 63:
        return np.lexsort(keys[::-1])
    combined = 0
    for k, span in zip(keys, spans):
        combined = combined * span + k
    return np.argsort(combined)


def _split(x: np.ndarray, cuts: list) -> list:
    return [x[a:b] for a, b in zip(cuts, cuts[1:])]


def _contraction_index(shapes, fi: np.ndarray, tpos: np.ndarray, bounds) -> tuple[list, list]:
    """Entry indices of a batch of factor-to-variable messages, from
    factors ``fi`` to their scope positions ``tpos``, in groups: group g
    holds messages ``bounds[g]:bounds[g + 1]``.

    Returns (table, out), one of each per group: the column in the lifted
    tables of each of the group's table entries, message by message in
    table order, and the output each entry sums into: its digit on the
    target axis plus its message's first output within the group.
    """
    cards, _, sizes, starts, axes, digits = shapes
    size, tcard = sizes[fi], cards[fi, tpos]
    bounds = np.asarray(bounds)
    heads, group = bounds[:-1], _member(np.diff(bounds))
    first, at = _entries(size, axes[fi, tpos])
    out_start = np.cumsum(tcard) - tcard
    out = digits.take(at) + np.repeat(out_start - out_start[heads][group], size)
    table = _entries(size, starts[fi])[1]
    cuts = np.append(first[heads], len(table)).tolist()
    return _split(table, cuts), _split(out, cuts)


@dataclass
class MarginalResult:
    """An unnormalized marginal: ``msg`` times 2^``exponent``, with
    ``log_scale`` = ``exponent`` ln 2. The run's dict keys it by variable
    id; :func:`product_of_totals` reads the run's total from that dict."""

    msg: np.ndarray
    log_scale: float
    exponent: int = 0

    def scores(self) -> list:
        """Score components, one float per domain value."""
        return self.msg[0].tolist()


@dataclass
class _Group:
    """Messages of one level, computed by one kernel call.

    The outputs fill entries ``lo:hi`` of the run's message buffer and
    ``slots`` of its exponent array. ``gathers[j]`` indexes the buffer
    entries of the outputs' j-th inputs, ``exp_in[j]`` the slots of
    those inputs; both cover a prefix of the group, whose messages come
    in falling input count. Contractions also gather their ``table``
    entries and sum each into its output, entry ``out`` of the group.
    """

    lo: int
    hi: int
    slots: slice
    gathers: list
    exp_in: list
    starts: np.ndarray
    member: np.ndarray
    table: np.ndarray | None = None
    out: np.ndarray | None = None


class LevelPlan:
    """A run on one graph and root, compiled: everything but the tables.

    Built from the schedule's depths and component roots; a one-pass run
    executes the groups of the first pass only. Messages live in one
    buffer, one slot of entries per computed or all-ones message; an
    aliased message shares its input's slot. Message p * |edges| + e is
    edge e's message of pass p, edges in the order of the graph's
    ``scope_vars``; the first pass sends it from the edge's deeper end.
    The compile is whole-graph array operations, with one sort of the
    messages by one integer key and a Python loop once per group only.
    """

    def __init__(self, g: FactorGraph, root: str | None, two_pass: bool):
        # the plan reads the schedule's depths and roots, never its edges
        schedule = make_schedule(g, root=root, two_pass=two_pass)
        depth, component_roots = schedule.depth, schedule.component_roots
        arity = np.diff(g.scope_offsets)
        first, pos = _entries(arity)
        var, fac = g.scope_vars, _member(arity)
        _, _, sizes, _, axes, digits = shapes = _factor_shapes(g)
        n_var, n_edges = len(g.var_ids), len(var)
        degree = np.diff(g.var_offsets)
        # the edges variable by variable, each in factor order
        by_var = g.var_edges
        var_first, var_rank = _entries(degree)
        var_rank[by_var] = var_rank.copy()
        var_depth, fac_depth = depth[var], depth[n_var + fac]
        up_to_factor = var_depth > fac_depth

        # per message, the passes' edge messages first and then the
        # marginals (the component roots', and after two passes every
        # variable's): whether it reads factor-to-variable messages, its
        # variable and factor, its input count, where its inputs start
        # among the edges by variable (or by factor), its own rank there,
        # and its pass and level
        e = np.tile(np.arange(n_edges), 1 + two_pass)
        down = np.arange(len(e)) >= n_edges
        to_factor = up_to_factor[e] != down
        roots = [component_roots] + [np.arange(n_var)] * two_pass
        mvar = np.concatenate(roots)
        reads_r = np.concatenate((to_factor, np.ones(len(mvar), dtype=bool)))
        v = np.concatenate((var[e], mvar))
        f = np.concatenate((fac[e], np.zeros(len(mvar), dtype=int)))
        count = np.concatenate((np.where(to_factor, degree[var[e]], arity[fac[e]]) - 1,
                                degree[mvar]))
        base = np.concatenate((np.where(to_factor, var_first[var[e]], first[fac[e]]),
                               var_first[mvar]))
        rank = np.concatenate((np.where(to_factor, var_rank[e], pos[e]), degree[mvar]))
        sender_depth = np.where(to_factor, var_depth[e], fac_depth[e])
        pass_key = np.concatenate((down, np.repeat(2 + np.arange(len(roots)),
                                                   list(map(len, roots)))))
        level = np.concatenate((np.where(down, sender_depth, depth.max() - sender_depth),
                                np.zeros(len(mvar), dtype=int)))
        group_key = pass_key * (level.max() + 1) + level
        card = g.cards[v]

        def inputs(m, j):
            """Input j of messages m, and its scope position in m's factor."""
            at = base[m] + j + (j >= rank[m])
            edge = np.where(reads_r[m], by_var[at], at)
            return edge + n_edges * (up_to_factor[edge] == reads_r[m]), pos[edge]

        # a variable-to-factor message or marginal of one input is that
        # input, a computed message; one of no input is all ones
        source = np.arange(len(v))
        alias = np.flatnonzero(reads_r & (count == 1))
        source[alias] = inputs(alias, 0)[0]
        ones = np.flatnonzero(reads_r & (count == 0))
        computed = np.flatnonzero(~reads_r | (count > 1))
        # by pass and level, then falling input count
        computed = computed[_order(group_key[computed], count.max() - count[computed])]
        # slots in execution order, the all-ones messages first
        order = np.concatenate((ones, computed))
        slot = np.zeros(len(v), dtype=int)
        slot[order] = np.arange(len(order))
        lengths = card[order]
        self.spans = np.cumsum(lengths) - lengths
        self.n_entries = int(lengths.sum())
        self.n_ones = int(card[ones].sum())

        # groups: runs of one pass and level
        heads = np.flatnonzero(np.diff(group_key[computed], prepend=-1))
        bounds = np.append(heads, len(computed))
        group = _member(np.diff(bounds))
        contracts = ~reads_r[computed]
        tables, outs = _contraction_index(
            shapes, f[computed[contracts]], rank[computed[contracts]],
            np.append(0, np.cumsum(np.diff(bounds)[contracts[heads]])))
        # every input of every group, ordered by group, then rank j, then
        # message: the messages with a j-th input are a prefix of the group.
        # Each is gathered entry by entry, by the digit that the entry's
        # position in a product (or in the factor's table) gives it
        n_in = count[computed]
        member, j = _member(n_in), _entries(n_in)[1]
        group_ranks = np.append(0, np.cumsum(n_in[heads]))
        col = group_ranks[group[member]] + j
        rank_ends = np.append(0, np.cumsum(np.bincount(col)))
        by_rank = np.empty_like(member)
        by_rank[rank_ends[col] + member - bounds[group[member]]] = np.arange(len(member))
        m, j = computed[member[by_rank]], j[by_rank]
        src, at = inputs(m, j)
        src = slot[source[src]]
        size = np.where(reads_r[m], card[m], sizes[f[m]])
        gathers = digits.take(_entries(size, np.where(reads_r[m], 0, axes[f[m], at]))[1])
        gathers += np.repeat(self.spans[src], size)
        gathers = _split(gathers, np.append(0, np.cumsum(size))[rank_ends].tolist())
        exp_in, group_ranks = _split(src, rank_ends.tolist()), group_ranks.tolist()

        out_start = self.spans[len(ones):] - self.n_ones
        starts = out_start - out_start[heads][group]
        out_member = np.repeat(np.arange(len(computed)) - heads[group], card[computed])
        out_bounds = np.append(out_start[heads], len(out_member)).tolist()
        self.passes: tuple[list, list] = ([], [])
        marginal_groups = [None, None]
        contraction = iter(zip(tables, outs))
        for k, (m0, m1) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
            r0, r1 = group_ranks[k], group_ranks[k + 1]
            o0, o1 = out_bounds[k], out_bounds[k + 1]
            grp = _Group(self.n_ones + o0, self.n_ones + o1,
                         slice(len(ones) + m0, len(ones) + m1), gathers[r0:r1], exp_in[r0:r1],
                         starts[m0:m1], out_member[o0:o1],
                         *(next(contraction) if contracts[m0] else ()))
            key = int(pass_key[computed[m0]])
            if key < 2:
                self.passes[key].append(grp)
            else:
                marginal_groups[key - 2] = grp
        # after one pass and after two: the marginals' variables, slots,
        # entry bounds and group
        first = len(e)
        self.marginals = []
        for r, out in zip(roots, marginal_groups):
            at = slot[source[first:first + len(r)]]
            lo = self.spans[at]
            self.marginals.append((list(map(g.var_ids.__getitem__, r.tolist())), at, lo.tolist(),
                                   (lo + g.cards[r]).tolist(), out))
            first += len(r)
        # every edge's (to_factor, variable, factor, slot), by pass
        self.edges = np.column_stack((to_factor, var[e], fac[e], slot[source[:len(e)]]))
        self.n_up = n_edges

    def execute(self, s: Semiring, tables: np.ndarray, two_pass: bool):
        """Run the passes over the lifted ``tables``; returns the
        marginals, the message buffer and every slot's exponent."""
        buf = np.zeros((len(tables), self.n_entries))
        buf[0, :self.n_ones] = 1.0
        exps = np.zeros(len(self.spans), dtype=np.int64)
        ids, slots, lo, hi, marginal_group = self.marginals[two_pass]
        groups = self.passes[0] + self.passes[1] if two_pass else self.passes[0]
        for group in groups + ([marginal_group] if marginal_group else []):
            ins = [buf.take(i, axis=1) for i in group.gathers]
            if group.table is None:
                out = s.combine(ins)
            else:
                out = s.contract(tables.take(group.table, axis=1), ins, group.out,
                                 group.hi - group.lo)
            e = _rescale(s, out, group.starts, group.member).astype(np.int64)
            for x in group.exp_in:
                e[:len(x)] += exps[x]
            exps[group.slots] = e
            buf[:, group.lo:group.hi] = out
        marginals = {vid: MarginalResult(buf[:, a:b], x * _LN2, x)
                     for vid, a, b, x in zip(ids, lo, hi, exps[slots].tolist())}
        return marginals, buf, exps


class RunMessages:
    """The edge messages of one run, read from the run's one buffer.

    ``count`` is the number of edge messages the run computed, |edges|
    per pass. :meth:`message` reads one of them as a view; nothing is
    copied or collected ahead of the call.
    """

    __slots__ = ("_graph", "_plan", "_buf", "_exps", "_two_pass")

    def __init__(self, graph: FactorGraph, plan: LevelPlan, buf: np.ndarray, exps: np.ndarray,
                 two_pass: bool):
        self._graph, self._plan, self._buf, self._exps = graph, plan, buf, exps
        self._two_pass = two_pass

    @property
    def count(self) -> int:
        return self._plan.n_up * (1 + self._two_pass)

    def message(self, to_factor: bool, vi: int, fi: int) -> tuple[np.ndarray, int]:
        """The message between variable ``vi`` and factor ``fi``, toward
        the factor if ``to_factor`` and toward the variable otherwise: a
        read-only (k + 1, card) view and its exponent E. Raises
        MissingDependency for a message the run did not compute: after
        one pass, those toward the leaves, and KeyError for a factor
        outside the graph or a variable outside the factor's scope."""
        g, plan = self._graph, self._plan
        if not 0 <= fi < len(g.scope_offsets) - 1:
            raise KeyError(f"factor {fi} is not in the graph")
        lo, hi = g.scope_offsets[fi:fi + 2].tolist()
        at = np.flatnonzero(g.scope_vars[lo:hi] == vi)
        if not at.size:
            raise KeyError(f"variable {vi} is not in the scope of factor {fi}")
        e = lo + int(at[0])
        row = e if bool(plan.edges[e, 0]) == bool(to_factor) else e + plan.n_up
        if row >= self.count:
            ends = (g.var_ids[vi], g.factor_ids[fi])
            raise MissingDependency("message {!r} -> {!r} was not computed; run with"
                                    " two_pass=True".format(*(ends if to_factor else ends[::-1])))
        slot = int(plan.edges[row, 3])
        start = int(plan.spans[slot])
        msg = self._buf[:, start:start + int(g.cards[vi])]
        msg.flags.writeable = False
        return msg, int(self._exps[slot])


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
        rescale: bool = True, tables=None):
    """Run message passing to completion; returns (marginals, messages).

    One pass computes the marginal at the root (and at each extra
    component's local root on forests); ``two_pass=True`` computes the
    marginal of every variable, as a mantissa times 2^``exponent``.
    ``tables`` optionally supplies the lifted carrier tables in the
    graph's layout, as :meth:`fginfer.entropy.WeightedGraph.carrier_tables`
    returns them; by default the graph's ``values`` are lifted without
    companions. ``messages`` is a :class:`RunMessages` over the run's one
    buffer, which reads any one edge message the run computed and counts
    them. ``rescale`` has no effect: the benchmark still passes
    it, and ROADMAP item 1 removes it.
    """
    g.ensure_checked()
    if tables is None:
        tables = s.lift_table(g.values)
    plan = level_plan(g, root, two_pass)
    marginals, buf, exps = plan.execute(s, tables, two_pass)
    return marginals, RunMessages(g, plan, buf, exps, two_pass)


def product_of_totals(s: Semiring, marginals: dict) -> tuple[list, int]:
    """The semiring product of the totals of a run's component marginals:
    its k + 1 mantissas, score first, and the exponent E. It is rescaled
    after every component, so that many components cannot overflow it."""
    acc, exponent = None, 0
    for marg in marginals.values():
        total = s.reduce_msg(marg.msg)
        if acc is None:
            acc = total
        else:
            s.mul_entries(acc, total)
        e = int(scale_exponents(acc[0]))
        acc = np.ldexp(acc, -e)
        exponent += marg.exponent + e
    return acc.tolist(), exponent
