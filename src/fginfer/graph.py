"""Discrete factor graphs: declarations, validation, schedules, indexing.

A factor graph is a bipartite graph between variables with finite domains
and factors with dense tables over ordered scopes. Tables are flat,
row major in the mixed-radix sense: the FIRST scope variable is the MOST
significant digit of the table index. That ordering is normative for the
on-disk format as well (see docs/file-formats.md).

A validated graph holds its structure and its tables once, as arrays that
every layer reads: one cardinality per variable, the scopes as one CSR
pair (every edge's variable, factor by factor in scope order, plus
per-factor offsets), and every table side by side in one values array
with per-factor offsets. Companions and gradients come in the tables'
layout. ``FactorGraph.factors`` is a view of those arrays for API users.

Only trees and forests are accepted by the engine. :func:`validate` checks
the acyclic criterion |edges| = |nodes| - |components| with array
operations over the edges, and names the first edge that closes a cycle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleDetected,
    OutOfDomain,
    ScopeMismatch,
    UncoveredVariable,
    UnknownVariable,
)


@dataclass(frozen=True, slots=True)
class VariableDecl:
    """A named variable with a finite domain {0, ..., cardinality - 1}."""

    id: str
    cardinality: int

    def __post_init__(self):
        if not isinstance(self.cardinality, int) or self.cardinality < 1:
            raise ValueError(f"variable {self.id!r}: cardinality must be an integer >= 1")


@dataclass(slots=True)
class FactorTable:
    """A dense factor: an ordered scope and one value per joint assignment."""

    id: str
    scope: tuple
    values: np.ndarray

    def __post_init__(self):
        self.scope = tuple(self.scope)
        if len(self.scope) == 0:
            raise ScopeMismatch(f"factor {self.id!r}: scope must name at least one variable")
        if len(set(self.scope)) != len(self.scope):
            raise ScopeMismatch(f"factor {self.id!r}: scope repeats a variable")
        self.values = np.asarray(self.values, dtype=float).ravel()


class FactorGraph:
    """Variables plus factors; the structure arrays are built by :func:`validate`.

    Construction is cheap and defers semantic checks. ``validate`` resolves
    scopes, checks coverage, table lengths and entries, rejects cycles, and
    fills in the arrays every layer reads:

    - ``cards[v]``: variable v's cardinality
    - ``scope_vars``, ``scope_offsets``: the scopes as one CSR pair;
      ``scope_vars[scope_offsets[f]:scope_offsets[f + 1]]`` holds the
      variable indices of factor f's scope, in order, one entry per edge
    - ``values``: every table side by side in factor order, one array;
      factor f's table is ``values[offsets[f]:offsets[f + 1]]``

    ``factors`` lists the declared tables, which are never modified, until
    the graph is validated; then :class:`FactorTable` views of ``values``,
    built on first read and cached with the ``values`` they view.

    ``plans`` caches the engine's level plans by root and pass count (see
    :func:`fginfer.propagation.level_plan`), which depend on the structure
    only. Instances are not thread safe during validation or while a plan
    is compiled; afterwards they are read only and safe to share.
    """

    def __init__(self, variables, factors):
        self.variables = list(variables)
        self._declared = list(factors)
        self.var_index: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            if v.id in self.var_index:
                raise ValueError(f"duplicate variable id {v.id!r}")
            self.var_index[v.id] = i
        seen = set()
        for f in self._declared:
            if f.id in seen:
                raise ValueError(f"duplicate factor id {f.id!r}")
            seen.add(f.id)
        self.checked = False
        # the arrays that validate sets
        self.cards = self.scope_vars = self.scope_offsets = self.values = self.offsets = None
        self.n_edges = 0
        self.plans: dict = {}
        self._views: tuple = (None, [])

    @property
    def factors(self) -> list:
        if not self.checked:
            return self._declared
        if self._views[0] is not self.values:
            ends = self.offsets.tolist()
            self._views = (self.values, [FactorTable(f.id, f.scope, self.values[a:b])
                                         for f, a, b in zip(self._declared, ends, ends[1:])])
        return self._views[1]

    @property
    def factor_cards(self) -> list[list[int]]:
        """Every factor's scope cardinalities, as lists of ints. It exists
        for the benchmark's tracer only, which counts entries with it."""
        ends = self.scope_offsets.tolist()
        cards = self.cards[self.scope_vars].tolist()
        return [cards[a:b] for a, b in zip(ends, ends[1:])]

    def variable_position(self, var_id: str) -> int:
        try:
            return self.var_index[var_id]
        except KeyError:
            raise UnknownVariable(f"unknown variable {var_id!r}") from None

    def ensure_checked(self):
        return validate(self)

    def lay_out(self, tables, what: str = "value", rows: int | None = None) -> np.ndarray:
        """Tables in this graph's layout, by the ``offsets`` that
        :func:`validate` sets: one (total,) float array, or (rows, total)
        with ``rows``, every factor's table side by side in factor order.
        An array of the layout's rank is taken as a layout array, as it is;
        otherwise ``tables`` holds one table per factor, of its factor's
        length n (shaped (rows, n) with ``rows``) or None for zeros. Raises
        ScopeMismatch for a layout array of another shape, and, naming the
        factor, for a wrong count or length."""
        total = int(self.offsets[-1])
        shape = (total,) if rows is None else (rows, total)
        if isinstance(tables, np.ndarray) and tables.ndim == len(shape):
            if tables.shape != shape:
                raise ScopeMismatch(f"{what} array of shape {tables.shape}, but the graph's"
                                    f" layout is {shape}")
            return tables.astype(float, copy=False)
        declared = self._declared
        if len(tables) != len(declared):
            missing = (f": factor {declared[len(tables)].id!r} has none"
                       if len(tables) < len(declared) else "")
            raise ScopeMismatch(f"{len(tables)} {what} tables for {len(declared)}"
                                f" factors{missing}")
        count, sizes = rows or 1, np.diff(self.offsets).tolist()
        out = [np.zeros((count, n)) if t is None else np.asarray(t, dtype=float)
               for t, n in zip(tables, sizes)]
        for f, t, n in zip(declared, out, sizes):
            if t.size != count * n or rows and t.shape[-1:] != (n,):
                need = n if rows is None else f"{rows} x {n}"
                raise ScopeMismatch(f"factor {f.id!r}: {what} table length {t.size},"
                                    f" but its scope needs {need}")
        if rows is None:
            return np.concatenate(out, axis=None)
        return np.concatenate([t.reshape(rows, -1) for t in out], axis=1)

    def factor_at(self, entry: int) -> FactorTable:
        """The factor whose table holds entry ``entry`` of ``values``."""
        return self.factors[int(np.searchsorted(self.offsets, entry, "right")) - 1]


def _is_forest(n_nodes: int, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the edges (a[i], b[i]) join ``n_nodes`` nodes into a forest:
    |edges| = |nodes| - |components|. Each round hooks every component's
    root onto the least root across its edges, then jumps pointers until
    each node points at its root (Shiloach and Vishkin, J. Algorithms 1982)."""
    label = np.arange(n_nodes)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            return len(a) == n_nodes - np.count_nonzero(label == np.arange(n_nodes))
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while (label[label] != label).any():
            label = label[label]


def validate(g: FactorGraph) -> FactorGraph:
    """Check a factor graph and build its arrays; returns the graph.

    Raises UnknownVariable or CycleDetected, whichever comes in the earlier
    factor (an unknown name first within a factor), then UncoveredVariable,
    ScopeMismatch for a table's length, and OutOfDomain for an entry that
    is not finite. Forests (several connected components) are accepted.
    """
    if g.checked:
        return g
    if not g.variables:
        raise UncoveredVariable("graph declares no variables")
    declared, index = g._declared, g.var_index
    n_var, n_fac = len(g.variables), len(declared)
    cards = np.array([v.cardinality for v in g.variables])
    arity = np.fromiter((len(f.scope) for f in declared), dtype=int, count=n_fac)
    scope_offsets = np.append(0, np.cumsum(arity))
    names = [name for f in declared for name in f.scope]
    scope_vars = np.fromiter((index.get(name, -1) for name in names), dtype=int,
                             count=len(names))
    fac = np.repeat(np.arange(n_fac), arity)

    # the first edge that closes a cycle ends the shortest prefix of the
    # edges that is not a forest. Factor f is node n_var + f; the edges
    # before the factor that names the first unknown variable come first
    unknown = np.flatnonzero(scope_vars < 0)
    known = int(scope_offsets[fac[unknown[0]]]) if unknown.size else len(names)

    def cyclic(k):
        return not _is_forest(n_var + n_fac, scope_vars[:k], n_var + fac[:k])

    if cyclic(known):
        acyclic = 0
        while known - acyclic > 1:
            mid = (acyclic + known) // 2
            acyclic, known = (acyclic, mid) if cyclic(mid) else (mid, known)
        raise CycleDetected(f"factor {declared[fac[known - 1]].id!r}: edge to"
                            f" {g.variables[scope_vars[known - 1]].id!r} closes a cycle")
    if unknown.size:
        raise UnknownVariable(f"factor {declared[fac[unknown[0]]].id!r}: unknown variable"
                              f" {names[unknown[0]]!r}")
    degree = np.bincount(scope_vars, minlength=n_var)
    if not degree.all():
        raise UncoveredVariable(f"variable {g.variables[degree.argmin()].id!r} appears in"
                                " no factor")

    # table sizes as products of Python ints, which never wrap
    sizes = np.multiply.reduceat(cards[scope_vars].astype(object), scope_offsets[:-1])
    lengths = np.fromiter((f.values.size for f in declared), dtype=int, count=n_fac)
    wrong = np.flatnonzero(lengths != sizes)
    if wrong.size:
        raise ScopeMismatch(f"factor {declared[wrong[0]].id!r}: value table length"
                            f" {lengths[wrong[0]]}, but its scope needs {sizes[wrong[0]]}")
    offsets = np.append(0, np.cumsum(sizes)).astype(int)
    values = np.concatenate([f.values for f in declared], axis=None)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        fi = int(np.searchsorted(offsets, bad[0], "right")) - 1
        raise OutOfDomain(f"factor {declared[fi].id!r}: table entry {bad[0] - offsets[fi]}"
                          f" is {values[bad[0]]}, not a finite number")

    g.cards, g.scope_vars, g.scope_offsets = cards, scope_vars, scope_offsets
    g.n_edges = len(scope_vars)
    g.offsets, g.values = offsets, values
    g.checked = True
    return g


@dataclass
class Schedule:
    """An ordered list of directed edges, every feeding edge first.

    Each entry is (to_factor, var_idx, fac_idx): variable-to-factor when
    ``to_factor`` is true, factor-to-variable otherwise. One pass sends
    every edge toward the root once; a two-pass schedule appends the
    root-to-leaf orientations, for 2 * |edges| entries total.

    ``depth`` holds every node's breadth-first distance from its
    component's root, variable v at v and factor f at |variables| + f.
    Every edge joins depths d and d + 1, and the first pass sends each
    edge's message from its deeper end.
    """

    root: int
    component_roots: list[int]
    edges: list[tuple]
    two_pass: bool
    depth: np.ndarray


def make_schedule(g: FactorGraph, root: str | None = None, two_pass: bool = False) -> Schedule:
    """Build a leaf-to-root schedule (plus the return pass if asked).

    The root defaults to the first declared variable. On forests every
    component gets its own local root (the first declared variable not yet
    reached) and the schedule covers all components.
    """
    g.ensure_checked()
    root_idx = g.variable_position(root) if root is not None else 0
    nvar, nfac = len(g.variables), len(g.scope_offsets) - 1
    vvis = bytearray(nvar)
    fvis = bytearray(nfac)
    depth = [0] * (nvar + nfac)
    # the CSR pair of scopes and its transpose, as lists
    scope, scope_ends = g.scope_vars.tolist(), g.scope_offsets.tolist()
    facs = np.repeat(np.arange(nfac), np.diff(g.scope_offsets))
    facs = facs[np.argsort(g.scope_vars, kind="stable")].tolist()
    fac_ends = np.append(0, np.cumsum(np.bincount(g.scope_vars, minlength=nvar))).tolist()

    component_roots = []
    up: list[tuple] = []
    down: list[tuple] = []
    scan = 0  # next declaration-order candidate for a component root
    seed = root_idx
    while True:
        component_roots.append(seed)
        vvis[seed] = 1
        # (is_var, idx, parent_idx) in discovery order, read as the queue
        disc = [(True, seed, -1)]
        for is_var, idx, _ in disc:
            if is_var:
                d = depth[idx] + 1
                for fi in facs[fac_ends[idx]:fac_ends[idx + 1]]:
                    if not fvis[fi]:
                        fvis[fi] = 1
                        depth[nvar + fi] = d
                        disc.append((False, fi, idx))
            else:
                d = depth[nvar + idx] + 1
                for vi in scope[scope_ends[idx]:scope_ends[idx + 1]]:
                    if not vvis[vi]:
                        vvis[vi] = 1
                        depth[vi] = d
                        disc.append((True, vi, idx))
        del disc[0]
        up += [(True, i, p) if v else (False, p, i) for v, i, p in reversed(disc)]
        if two_pass:
            down += [(False, i, p) if v else (True, p, i) for v, i, p in disc]
        while scan < nvar and vvis[scan]:
            scan += 1
        if scan == nvar:
            break
        seed = scan

    return Schedule(root=root_idx, component_roots=component_roots,
                    edges=up + down if two_pass else up, two_pass=two_pass,
                    depth=np.array(depth))


def assignment_index(cards, assignment) -> int:
    """Flat table index of a joint assignment, first variable most significant."""
    if len(cards) != len(assignment):
        raise OutOfDomain(
            f"assignment has {len(assignment)} entries for {len(cards)} variables"
        )
    idx = 0
    for card, a in zip(cards, assignment):
        if not 0 <= a < card:
            raise OutOfDomain(f"assignment value {a} outside domain of size {card}")
        idx = idx * card + a
    return idx


def assignment_from_index(cards, index: int) -> tuple:
    """Inverse of :func:`assignment_index`."""
    total = math.prod(cards)
    if not 0 <= index < total:
        raise OutOfDomain(f"index {index} outside table of size {total}")
    out = [0] * len(cards)
    for p in range(len(cards) - 1, -1, -1):
        out[p] = index % cards[p]
        index //= cards[p]
    return tuple(out)
