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
root, into a level plan that it caches with the graph. Levels come from
the schedule's breadth-first depths: in the first pass a message's level
is the maximum depth minus its sender's depth, in the second pass (after
the first) its sender's depth, so every message reads messages of
earlier levels only. Component roots are variables, so one level holds
either variable-to-factor products or contractions; each level is one
group, sorted by input count so that each sibling rank covers a prefix
of the group; short sums are padded by zeros, which are added, never
multiplied. The compile is whole-graph array operations over the graph's
structure arrays, whose CSR pair of scopes lists one entry per edge, with
a Python loop once per group only. The plan holds index arrays only, no
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
from dataclasses import dataclass, field

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


def _entries(lengths: np.ndarray):
    """(start, within) of a batch of messages laid side by side: each
    message's first entry, and each entry's position in its message."""
    start = np.cumsum(lengths) - lengths
    within = np.arange(int(lengths.sum()))
    within -= np.repeat(start, lengths)
    return start, within


def _member(lengths: np.ndarray) -> np.ndarray:
    """The message of each entry of a batch laid side by side."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _run_heads(*keys) -> np.ndarray:
    """Where each run of equal entries of the keys, taken together, starts."""
    change = np.zeros(len(keys[0]), dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def _factor_shapes(g: FactorGraph):
    """Every factor's cards and index steps, padded to the largest arity
    with cardinality 1, whose digit is always 0; and its table size and
    first entry in the lifted tables."""
    arity = np.diff(g.scope_offsets)
    cards = np.ones((len(arity), arity.max()), dtype=int)
    cards[_member(arity), _entries(arity)[1]] = g.cards[g.scope_vars]
    steps = np.ones_like(cards)
    steps[:, :-1] = np.cumprod(cards[:, :0:-1], axis=1)[:, ::-1]
    sizes = cards.prod(axis=1)
    return cards, steps, sizes, np.cumsum(sizes) - sizes


def _contraction_index(shapes, fi: np.ndarray, tpos: np.ndarray, bounds) -> tuple[list, list]:
    """Entry indices of a batch of factor-to-variable messages, from
    factors ``fi`` to their scope positions ``tpos``, in groups: group g
    holds messages ``bounds[g]:bounds[g + 1]``.

    Returns (table, terms), one array of each per group: the column in
    the lifted tables of each of the group's table entries, message by
    message in table order; and ``terms`` as
    :meth:`~fginfer.semiring.Semiring.contract` takes them, indexing the
    group's entries and padded to the group's widest row.
    """
    cards, steps, sizes, starts = shapes
    size, tcard, tstep = sizes[fi], cards[fi, tpos], steps[fi, tpos]
    bounds = np.asarray(bounds)
    heads = bounds[:-1]
    group = _member(np.diff(bounds))
    width = np.maximum.reduceat(size // tcard, heads)
    block = np.add.reduceat(tcard, heads) * width
    # each group's terms are one (outputs, width) block; per message, the
    # cell of its first output's first term
    out_start = np.cumsum(tcard) - tcard
    row0 = (np.cumsum(block) - block)[group] + (out_start - out_start[heads][group]) * width[group]
    first, within = _entries(size)
    terms = np.full(int(block.sum()), -1)
    # table entry hi * tcard * tstep + x * tstep + lo is term n = hi * tstep + lo
    # of output entry x; with q = hi * tcard + x, n = within - (q - hi) * tstep.
    # In-place steps keep the batch's temporary entry arrays few
    ts, tc = np.repeat(tstep, size), np.repeat(tcard, size)
    q = within // ts
    cell = q // tc
    cell -= q
    cell *= ts
    cell += within
    q %= tc
    q *= np.repeat(width[group], size)
    cell += q
    cell += np.repeat(row0, size)
    del ts, tc, q
    terms[cell] = within + np.repeat(first - first[heads][group], size)
    del cell
    table = within
    table += np.repeat(starts[fi], size)
    t = np.append(first[heads], len(table)).tolist()
    b = np.append(0, np.cumsum(block)).tolist()
    return ([table[lo:hi] for lo, hi in zip(t, t[1:])],
            [terms[lo:hi].reshape(-1, w) for lo, hi, w in zip(b, b[1:], width.tolist())])


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


class LevelPlan:
    """A run on one graph and root, compiled: everything but the tables.

    Built from the one- or two-pass schedule; a one-pass run executes the
    groups of the first pass only. Messages live in one buffer, one slot of
    entries per computed or all-ones message; an aliased message shares
    its input's slot.

    Message p * |edges| + e is edge e's message of pass p, edges in the
    order of the graph's ``scope_vars``; the first pass sends it from the
    edge's deeper end. A message's level is the maximum depth minus its
    sender's depth in the first pass and its sender's depth in the second,
    so every level holds one kind of message: a component root is a
    variable. The compile runs whole-graph array operations, and a Python
    loop only once per group.
    """

    def __init__(self, g: FactorGraph, root: str | None, two_pass: bool):
        # only the depths and roots are kept, not the schedule's edge list
        schedule = make_schedule(g, root=root, two_pass=two_pass)
        depth, component_roots = schedule.depth, schedule.component_roots
        del schedule
        arity = np.diff(g.scope_offsets)
        first, pos = _entries(arity)
        var, fac = g.scope_vars, _member(arity)
        cards, steps, sizes, _ = shapes = _factor_shapes(g)
        n_var, n_edges = len(g.variables), len(var)
        degree = np.bincount(var, minlength=n_var)
        # the edges variable by variable, each in factor order
        by_var = np.argsort(var, kind="stable")
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
        roots = [np.array(component_roots)] + [np.arange(n_var)] * two_pass
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
        computed = computed[np.lexsort((-count[computed], level[computed], pass_key[computed]))]
        # slots in execution order, the all-ones messages first
        order = np.concatenate((ones, computed))
        slot = np.zeros(len(v), dtype=int)
        slot[order] = np.arange(len(order))
        lengths = card[order]
        self.spans = np.cumsum(lengths) - lengths
        self.n_entries = int(lengths.sum())
        self.n_ones = int(card[ones].sum())

        # groups: runs of one pass and level, by decreasing input count
        heads = _run_heads(pass_key[computed], level[computed])
        bounds = np.append(heads, len(computed))
        group = _member(np.diff(bounds))
        contracts = ~reads_r[computed]
        tables, terms = _contraction_index(
            shapes, f[computed[contracts]], rank[computed[contracts]],
            np.append(0, np.cumsum(np.diff(bounds)[contracts[heads]])))
        # every input of every group, ordered by group, then rank j, then
        # message: the messages with a j-th input are a prefix of the group.
        # Each is gathered entry by entry, by the digit that the entry's
        # position in a product (or in the factor's table) gives it
        member, j = _member(count[computed]), _entries(count[computed])[1]
        m, grp = computed[member], group[member]
        src, at = inputs(m, j)
        src = slot[source[src]]
        size = np.where(reads_r[m], card[m], sizes[f[m]])
        step = np.where(reads_r[m], 1, steps[f[m], at])
        radix = np.where(reads_r[m], card[m], cards[f[m], at])
        by_rank = np.lexsort((j, grp))
        src, j, grp, size, step, radix = (x[by_rank] for x in (src, j, grp, size, step, radix))
        del member, m, at, by_rank
        gathers = _entries(size)[1]
        gathers //= np.repeat(step, size)
        gathers %= np.repeat(radix, size)
        gathers += np.repeat(self.spans[src], size)
        ranks = _run_heads(grp, j)
        rank_bounds = np.append(ranks, len(j)).tolist()
        entry_bounds = np.append((np.cumsum(size) - size)[ranks], len(gathers)).tolist()
        group_ranks = np.searchsorted(grp[ranks], np.arange(len(bounds))).tolist()

        out_start = self.spans[len(ones):] - self.n_ones
        starts = out_start - out_start[heads][group]
        out_member = _member(card[computed])
        out_member -= heads[group][out_member]
        out_bounds = np.append(out_start[heads], len(out_member)).tolist()
        self.passes: tuple[list, list] = ([], [])
        marginal_groups = [None, None]
        contraction = iter(zip(tables, terms))
        for k, (m0, m1) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
            r0, r1 = group_ranks[k], group_ranks[k + 1]
            o0, o1 = out_bounds[k], out_bounds[k + 1]
            ins = zip(entry_bounds[r0:r1], entry_bounds[r0 + 1:r1 + 1])
            exp_in = zip(rank_bounds[r0:r1], rank_bounds[r0 + 1:r1 + 1])
            out = _Group(self.n_ones + o0, self.n_ones + o1,
                         slice(len(ones) + m0, len(ones) + m1),
                         [gathers[a:b] for a, b in ins], [src[a:b] for a, b in exp_in],
                         starts[m0:m1], out_member[o0:o1],
                         *(next(contraction) if contracts[m0] else ()))
            key = int(pass_key[computed[m0]])
            if key < 2:
                self.passes[key].append(out)
            else:
                marginal_groups[key - 2] = out
        # after one pass and after two: the marginals' variables, slots,
        # entry bounds and group
        names = list(g.var_index)
        first = len(e)
        self.marginals = []
        for r, out in zip(roots, marginal_groups):
            at = slot[source[first:first + len(r)]]
            lo = self.spans[at]
            self.marginals.append((list(map(names.__getitem__, r.tolist())), at, lo.tolist(),
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
            ins = [buf[:, i] for i in group.gathers]
            if group.terms is None:
                out = s.combine(ins)
            else:
                out = s.contract(tables[:, group.table], ins, group.terms)
            e = _rescale(s, out, group.starts, group.member).astype(np.int64)
            for x in group.exp_in:
                e[:len(x)] += exps[x]
            exps[group.slots] = e
            buf[:, group.lo:group.hi] = out
        marginals = {vid: MarginalResult(variable=vid, msg=buf[:, a:b], log_scale=x * _LN2,
                                         semiring=s, exponent=x)
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
            ends = (g.variables[vi].id, g.factors[fi].id)
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
        total = s.reduce_terms(marg.msg, np.arange(marg.msg.shape[1])[None, :])
        if acc is None:
            acc = total
        else:
            s.mul_entries(acc, total)
        e = int(scale_exponents(acc[0, 0]))
        acc = np.ldexp(acc, -e)
        exponent += marg.exponent + e
    return acc[:, 0].tolist(), exponent


def total_sum(marginal: MarginalResult, s: Semiring | None = None):
    """Semiring sum of a marginal vector: the per-component total weight.

    The exponent is folded back in exactly, as ldexp(total, exponent); a
    total past float range reads inf. ``s.reduce_msg(marginal.msg)`` is
    the mantissa, to be kept with ``exponent``.
    """
    s = s or marginal.semiring
    w = s.reduce_msg(marginal.msg)
    if marginal.exponent:
        with np.errstate(over="ignore"):
            if isinstance(w, tuple):
                w = type(w)(*(_ldexp(x, marginal.exponent) for x in w))
            else:
                w = _ldexp(w, marginal.exponent)
    return w


def _ldexp(x, exponent: int):
    y = np.ldexp(x, exponent)
    return float(y) if np.ndim(y) == 0 else y
