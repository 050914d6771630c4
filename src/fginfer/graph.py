"""Discrete factor graphs: declarations, validation, schedules, indexing.

A factor graph is a bipartite graph between variables with finite domains
and factors with dense tables over ordered scopes. Tables are flat,
row major in the mixed-radix sense: the FIRST scope variable is the MOST
significant digit of the table index. That ordering is normative for the
on-disk format as well (see docs/file-formats.md).

A graph holds its structure and tables once, from declaration on, as
arrays that every layer reads (see :class:`FactorGraph`); companions and
gradients come in the tables' layout. Only trees and forests are accepted
by the engine: :func:`validate` checks |edges| = |nodes| - |components|
with array operations and names the first edge that closes a cycle.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import (
    CycleDetected,
    OutOfDomain,
    ScopeMismatch,
    UncoveredVariable,
    UnknownVariable,
)


def _cardinalities(var_ids: list, cards) -> np.ndarray:
    """``cards``, one per variable, as an int64 array (uint64 or of Python
    ints past int64, whose table lengths :func:`validate` reports); raises
    :class:`VariableDecl`'s ValueError for the first that breaks its rule."""
    kinds = {cards.dtype.type} if isinstance(cards, np.ndarray) else set(map(type, cards))
    out = np.array(cards)
    if out.shape != (len(var_ids),):
        raise ValueError(f"cardinalities of shape {out.shape} for {len(var_ids)} variables")
    ints = all(issubclass(t, int | np.integer) and t is not bool for t in kinds)
    if not ints or (out < 1).any():
        list(map(VariableDecl, var_ids, cards))
    return out.astype(np.int64, copy=False) if np.can_cast(out.dtype, np.int64) else out


@dataclass(frozen=True, slots=True)
class VariableDecl:
    """A named variable with a finite domain {0, ..., cardinality - 1}; the
    cardinality is an integer (a numpy one too, never a bool) kept as an int."""

    id: str
    cardinality: int

    def __post_init__(self):
        c = self.cardinality
        if not isinstance(c, int | np.integer) or isinstance(c, bool) or c < 1:
            raise ValueError(f"variable {self.id!r}: cardinality must be an integer >= 1")
        object.__setattr__(self, "cardinality", int(c))


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
    """Variables plus factors, declared as arrays and checked by :func:`validate`.

    Declared (:meth:`from_arrays`) as ``var_ids`` and ``cards`` (one name
    and one cardinality per variable), ``factor_ids``, ``scopes`` (tuples
    of variable names) and one array ``values``, every table side by side
    in factor order: factor f's is ``values[offsets[f]:offsets[f + 1]]``.
    The scopes resolve into one CSR pair: factor f's variable indices are
    ``scope_vars[scope_offsets[f]:scope_offsets[f + 1]]``, an undeclared
    name reading |variables| or more. ``FactorGraph(variables, factors)``
    declares the same from :class:`VariableDecl` and :class:`FactorTable`
    objects. Declaring rejects bad cardinalities, empty scopes, scopes that
    repeat a variable and repeated ids; ``validate`` checks the rest and
    adds the scopes' transpose (variable v's edges, in factor order, are
    ``var_edges[var_offsets[v]:var_offsets[v + 1]]``) and ``component``,
    each variable's component label: the least variable index in it.
    ``variables`` and ``factors`` are views, built on first read and cached.

    ``plans`` caches the engine's level plans by root and pass count (see
    :func:`fginfer.propagation.level_plan`), which depend on the structure
    only. Instances are not thread safe during validation or while a plan
    is compiled; afterwards they are read only and safe to share.
    """

    def __init__(self, variables, factors):
        variables, factors = list(variables), list(factors)
        self._declare([v.id for v in variables], [v.cardinality for v in variables],
                      [f.id for f in factors], [f.scope for f in factors],
                      np.concatenate([np.zeros(0), *(f.values for f in factors)]),
                      [f.values.size for f in factors])

    @classmethod
    def from_arrays(cls, var_ids, cards, factor_ids, scopes, values, lengths) -> "FactorGraph":
        """A graph declared from one id and one cardinality per variable, one
        id and one scope (variable names) per factor, and the tables side by
        side as one array with their lengths."""
        g = cls.__new__(cls)
        g._declare(var_ids, cards, factor_ids, scopes, values, lengths)
        return g

    def _declare(self, var_ids, cards, factor_ids, scopes, values, lengths):
        self.var_ids, self.factor_ids = list(var_ids), list(factor_ids)
        self.cards = _cardinalities(self.var_ids, cards)
        self.scopes = list(map(tuple, scopes))
        self.values = np.asarray(values, dtype=float)
        self.offsets = np.append(0, np.cumsum(lengths, dtype=int))
        if self.values.shape != (self.offsets[-1],):
            raise ValueError(f"values of shape {self.values.shape} for tables of"
                             f" {self.offsets[-1]} entries")
        n_var, n_fac = len(self.var_ids), len(self.factor_ids)
        self.var_index = dict(zip(self.var_ids, range(n_var)))
        arity = np.fromiter(map(len, self.scopes), dtype=int, count=n_fac)
        self.scope_offsets = np.append(0, np.cumsum(arity))
        names = list(chain.from_iterable(self.scopes))
        codes = np.fromiter(map(self.var_index.get, names, repeat(-1)), int, len(names))
        # an undeclared name gets an index of its own, from n_var on
        unknown = np.flatnonzero(codes < 0).tolist()
        extra: dict = {}
        codes[unknown] = [n_var + extra.setdefault(names[k], len(extra)) for k in unknown]
        self.scope_vars, width = codes, n_var + len(extra)
        pairs = np.sort(np.repeat(np.arange(n_fac), arity) * width + codes)
        bad = np.append(np.flatnonzero(arity == 0), pairs[1:][pairs[1:] == pairs[:-1]] // width)
        if bad.size:
            fi = bad.min()
            what = "repeats a variable" if arity[fi] else "must name at least one variable"
            raise ScopeMismatch(f"factor {self.factor_ids[fi]!r}: scope {what}")
        for kind, ids in (("variable", self.var_ids), ("factor", self.factor_ids)):
            if len(set(ids)) < len(ids):
                first: dict = {}
                dup = next(i for k, i in enumerate(ids) if first.setdefault(i, k) != k)
                raise ValueError(f"duplicate {kind} id {dup!r}")
        self.checked = False
        self.var_edges = self.var_offsets = self.component = None
        self.n_edges = 0
        self.plans: dict = {}
        self._views: tuple = (None, [])

    @cached_property
    def variables(self) -> list:
        return list(map(VariableDecl, self.var_ids, self.cards.tolist()))

    @property
    def factors(self) -> list:
        if self._views[0] is not self.values:
            ends = self.offsets.tolist()
            self._views = (self.values, [
                FactorTable(i, s, self.values[a:b])
                for i, s, a, b in zip(self.factor_ids, self.scopes, ends, ends[1:])])
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

    def lay_out(self, tables, what: str = "value", rows: int | None = None, into=None):
        """Tables in this graph's layout, by the ``offsets`` that
        :func:`validate` sets: one (total,) float array, or (rows, total)
        with ``rows``, every factor's table side by side in factor order.
        An array of the layout's rank is taken as a layout array, as it is;
        otherwise ``tables`` holds one table per factor, of its factor's
        length n (shaped (rows, n) with ``rows``) or None for zeros. Raises
        ScopeMismatch for a layout array of another shape, and, naming the
        factor, for a wrong count or length. ``into``, if given, receives the layout."""
        total = int(self.offsets[-1])
        shape = (total,) if rows is None else (rows, total)
        if isinstance(tables, np.ndarray) and tables.ndim == len(shape):
            if tables.shape != shape:
                raise ScopeMismatch(f"{what} array of shape {tables.shape}, but the graph's"
                                    f" layout is {shape}")
            if into is None:
                return tables.astype(float, copy=False)
            into[...] = tables
            return into
        ids = self.factor_ids
        if len(tables) != len(ids):
            missing = f": factor {ids[len(tables)]!r} has none" if len(tables) < len(ids) else ""
            raise ScopeMismatch(f"{len(tables)} {what} tables for {len(ids)} factors{missing}")
        count, sizes = rows or 1, np.diff(self.offsets).tolist()
        out = [np.zeros((count, n)) if t is None else np.asarray(t, dtype=float)
               for t, n in zip(tables, sizes)]
        for fid, t, n in zip(ids, out, sizes):
            if t.size != count * n or rows and t.shape[-1:] != (n,):
                need = n if rows is None else f"{rows} x {n}"
                raise ScopeMismatch(f"factor {fid!r}: {what} table length {t.size},"
                                    f" but its scope needs {need}")
        if rows is None:
            return np.concatenate(out, axis=None, out=into)
        return np.concatenate([t.reshape(rows, -1) for t in out], axis=1, out=into)

    def factor_at(self, entry: int) -> str:
        """The id of the factor whose table holds entry ``entry`` of ``values``."""
        return self.factor_ids[int(np.searchsorted(self.offsets, entry, "right")) - 1]


def _forest_labels(n_nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Every node's component label, the least node index in its
    component, if the edges (a[i], b[i]) join ``n_nodes`` nodes into a
    forest (|edges| = |nodes| - |components|), else None. Each round hooks
    every component's root onto the least root across its edges, then
    jumps pointers until each node points at its root (Shiloach and
    Vishkin, J. Algorithms 1982)."""
    label = np.arange(n_nodes)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            n_components = np.count_nonzero(label == np.arange(n_nodes))
            return label if len(a) == n_nodes - n_components else None
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while (label[label] != label).any():
            label = label[label]


def validate(g: FactorGraph) -> FactorGraph:
    """Check a factor graph and complete its arrays; returns the graph.

    Raises UnknownVariable or CycleDetected, whichever comes in the earlier
    factor (an unknown name first within a factor), then UncoveredVariable,
    ScopeMismatch for a table's length, and OutOfDomain for an entry that
    is not finite. Forests (several connected components) are accepted.
    """
    if g.checked:
        return g
    if not g.var_ids:
        raise UncoveredVariable("graph declares no variables")
    n_var, n_fac, cards = len(g.var_ids), len(g.factor_ids), g.cards
    scope_vars, scope_offsets = g.scope_vars, g.scope_offsets
    fac = np.repeat(np.arange(n_fac), np.diff(scope_offsets))

    # the first edge that closes a cycle ends the shortest prefix of the
    # edges that is not a forest. Factor f is node n_var + f; the edges
    # before the factor that names the first unknown variable come first
    unknown = np.flatnonzero(scope_vars >= n_var)
    known = int(scope_offsets[fac[unknown[0]]]) if unknown.size else len(scope_vars)

    def labels(k):
        return _forest_labels(n_var + n_fac, scope_vars[:k], n_var + fac[:k])

    label = labels(known)
    if label is None:
        acyclic = 0
        while known - acyclic > 1:
            mid = (acyclic + known) // 2
            acyclic, known = (acyclic, mid) if labels(mid) is None else (mid, known)
        raise CycleDetected(f"factor {g.factor_ids[fac[known - 1]]!r}: edge to"
                            f" {g.var_ids[scope_vars[known - 1]]!r} closes a cycle")
    if unknown.size:
        fi, k = fac[unknown[0]], unknown[0]
        raise UnknownVariable(f"factor {g.factor_ids[fi]!r}: unknown variable"
                              f" {g.scopes[fi][k - scope_offsets[fi]]!r}")
    degree = np.bincount(scope_vars, minlength=n_var)
    if not degree.all():
        raise UncoveredVariable(f"variable {g.var_ids[degree.argmin()]!r} appears in"
                                " no factor")
    lengths = np.diff(g.offsets)
    wrong = np.flatnonzero(lengths != table_sizes(cards, scope_vars, scope_offsets))
    if wrong.size:
        fi = wrong[0]
        need = math.prod(cards[scope_vars[scope_offsets[fi]:scope_offsets[fi + 1]]].tolist())
        raise ScopeMismatch(f"factor {g.factor_ids[fi]!r}: value table length {lengths[fi]},"
                            f" but its scope needs {need}")
    check_finite(g)

    # every node's label is a variable's, since no scope is empty
    g.component, g.n_edges = label[:n_var], len(scope_vars)
    g.var_edges = np.argsort(scope_vars, kind="stable")
    g.var_offsets = np.append(0, np.cumsum(degree))
    g.checked = True
    return g


def table_sizes(cards: np.ndarray, scope_vars: np.ndarray,
                scope_offsets: np.ndarray) -> np.ndarray:
    """Every factor's table size as a float, exact below 2**53 and past it
    never equal to a length that fits in memory (a cardinality past 2**53,
    maybe a Python int past float range, counts as 2**53)."""
    clipped = np.minimum(cards[scope_vars], 2 ** 53).astype(float)
    return np.multiply.reduceat(clipped, scope_offsets[:-1])


def check_finite(g: FactorGraph) -> None:
    """Raise OutOfDomain naming the first entry of ``g.values`` that is not finite."""
    finite = np.isfinite(g.values)
    if not finite.all():
        k = int(finite.argmin())
        fi = int(np.searchsorted(g.offsets, k, "right")) - 1
        raise OutOfDomain(f"factor {g.factor_ids[fi]!r}: table entry {k - g.offsets[fi]}"
                          f" is {g.values[k]}, not a finite number")


@dataclass
class Schedule:
    """Every directed edge of a graph, every feeding edge first.

    ``depth`` holds every node's distance from its component's root,
    variable v at v and factor f at |variables| + f. ``edges``, built on
    first read, is an int array of rows (to_factor, var_idx, fac_idx), one
    per message: every edge from its deeper end by falling sender depth,
    then, for two passes, from its shallower end by rising sender depth.
    """

    component_roots: np.ndarray
    depth: np.ndarray
    graph: FactorGraph = field(repr=False)
    two_pass: bool = False

    @cached_property
    def edges(self) -> np.ndarray:
        g = self.graph
        fac = np.repeat(np.arange(len(g.factor_ids)), np.diff(g.scope_offsets))
        v, f = self.depth[g.scope_vars], self.depth[len(g.var_ids) + fac]
        rows = np.column_stack((np.append(v > f, v < f), np.tile((g.scope_vars, fac), 2).T))
        key = np.append(-np.maximum(v, f), len(self.depth) + np.minimum(v, f))
        return rows[np.argsort(key, kind="stable")][:len(fac) * (1 + self.two_pass)]


def make_schedule(g: FactorGraph, root: str | None = None, two_pass: bool = False) -> Schedule:
    """Build a leaf-to-root schedule (plus the return pass if asked).

    The root defaults to the first declared variable. On forests every
    other component is rooted at its first declared variable (its label,
    see :func:`validate`). Depths come from each component's Euler tour,
    ranked by pointer jumping (Tarjan and Vishkin, SIAM J. Comput. 1985)
    in O(log |edges|) array rounds whatever the graph's shape.
    """
    g.ensure_checked()
    root_idx = g.variable_position(root) if root is not None else 0
    n_var, n_edges = len(g.var_ids), g.n_edges
    labels = np.flatnonzero(g.component == np.arange(n_var))
    roots = np.append(root_idx, labels[labels != g.component[root_idx]])
    # arc a < |edges| leaves its variable by edge var_edges[a], arc |edges|
    # + e leaves edge e's factor: each node's arcs are a run in validate's
    # CSR order. A tour leaves a node by the arc after the one it came in
    # by, cyclically, and ends before it would leave its root again
    ends = np.append(g.var_offsets, n_edges + g.scope_offsets[1:])
    twin = np.append(n_edges + g.var_edges, np.argsort(g.var_edges))
    succ = np.arange(1, 2 * n_edges + 1)
    succ[ends[1:] - 1] = ends[:-1]
    succ = succ[twin]
    last = twin[ends[roots + 1] - 1]
    succ[last] = last
    comp = g.component[np.append(g.scope_vars[g.var_edges], g.scope_vars)]
    tour = np.bincount(comp, minlength=n_var)
    dist = (succ != np.arange(2 * n_edges)).astype(int)  # to the tour's end
    for _ in range(int(tour.max() - 1).bit_length()):
        dist += dist[succ]
        succ = succ[succ]
    # the tours side by side: an arc before its twin goes down, and an
    # arc's head is as deep as the down arcs up to it less the up arcs
    at = np.cumsum(tour)[comp] - 1 - dist
    step = np.empty(2 * n_edges, dtype=int)
    step[at] = np.where(dist > dist[twin], 1, -1)
    depth = np.zeros(len(ends) - 1, dtype=int)
    depth[np.repeat(np.arange(len(depth)), np.diff(ends))[twin]] = np.cumsum(step)[at]
    return Schedule(roots, depth, g, two_pass)
