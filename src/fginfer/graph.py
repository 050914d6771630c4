"""Discrete factor graphs: declarations, validation, schedules, indexing.

A factor graph is a bipartite graph between variables with finite domains
and factors with dense tables over ordered scopes. Tables are flat,
row major in the mixed-radix sense: the FIRST scope variable is the MOST
significant digit of the table index. That ordering is normative for the
on-disk format as well (see docs/file-formats.md).

A graph holds its structure and tables once, from declaration on, as
arrays that every layer reads: the scopes as one CSR pair (every edge's
variable, plus per-factor offsets) and every table side by side in one
values array (plus per-factor offsets). Companions and gradients come in
the tables' layout; ``FactorGraph.factors`` is a view for API users.

Only trees and forests are accepted by the engine. :func:`validate` checks
the acyclic criterion |edges| = |nodes| - |components| with array
operations over the edges, and names the first edge that closes a cycle.
"""

import math
from dataclasses import dataclass
from itertools import chain, repeat

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
    """Variables plus factors, declared as arrays and checked by :func:`validate`.

    Declared (:meth:`from_arrays`) as ``factor_ids``, ``scopes`` (tuples of
    variable names) and one array ``values``, every table side by side in
    factor order: factor f's is ``values[offsets[f]:offsets[f + 1]]``. The
    scopes resolve into one CSR pair: factor f's variable indices, one per
    edge, are ``scope_vars[scope_offsets[f]:scope_offsets[f + 1]]``, an
    undeclared name reading |variables| or more. ``FactorGraph(variables,
    factors)`` declares the same from one :class:`FactorTable` per factor.
    Declaring rejects empty scopes, scopes that repeat a variable and
    repeated ids; ``validate`` checks the rest and adds ``cards`` (one per
    variable) and the scopes' transpose: variable v's edges, in factor
    order, are ``var_edges[var_offsets[v]:var_offsets[v + 1]]``.
    ``factors`` lists :class:`FactorTable` views of ``values``, built on
    first read and cached with the ``values`` they view.

    ``plans`` caches the engine's level plans by root and pass count (see
    :func:`fginfer.propagation.level_plan`), which depend on the structure
    only. Instances are not thread safe during validation or while a plan
    is compiled; afterwards they are read only and safe to share.
    """

    def __init__(self, variables, factors):
        factors = list(factors)
        self._declare(variables, [f.id for f in factors], [f.scope for f in factors],
                      np.concatenate([np.zeros(0), *(f.values for f in factors)]),
                      [f.values.size for f in factors])

    @classmethod
    def from_arrays(cls, variables, factor_ids, scopes, values, lengths) -> "FactorGraph":
        """A graph declared from one id and one scope (variable names) per
        factor, its tables side by side as one array and their lengths."""
        g = cls.__new__(cls)
        g._declare(variables, factor_ids, scopes, values, lengths)
        return g

    def _declare(self, variables, factor_ids, scopes, values, lengths):
        self.variables, self.factor_ids = list(variables), list(factor_ids)
        self.scopes = list(map(tuple, scopes))
        self.values = np.asarray(values, dtype=float)
        self.offsets = np.append(0, np.cumsum(lengths, dtype=int))
        if self.values.shape != (self.offsets[-1],):
            raise ValueError(f"values of shape {self.values.shape} for tables of"
                             f" {self.offsets[-1]} entries")
        n_var, n_fac = len(self.variables), len(self.factor_ids)
        self.var_index = dict(zip((v.id for v in self.variables), range(n_var)))
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
        for kind, ids in (("variable", [v.id for v in self.variables]),
                          ("factor", self.factor_ids)):
            if len(set(ids)) < len(ids):
                first: dict = {}
                dup = next(i for k, i in enumerate(ids) if first.setdefault(i, k) != k)
                raise ValueError(f"duplicate {kind} id {dup!r}")
        self.checked = False
        self.cards = self.var_edges = self.var_offsets = None
        self.n_edges = 0
        self.plans: dict = {}
        self._views: tuple = (None, [])

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
    """Check a factor graph and complete its arrays; returns the graph.

    Raises UnknownVariable or CycleDetected, whichever comes in the earlier
    factor (an unknown name first within a factor), then UncoveredVariable,
    ScopeMismatch for a table's length, and OutOfDomain for an entry that
    is not finite. Forests (several connected components) are accepted.
    """
    if g.checked:
        return g
    if not g.variables:
        raise UncoveredVariable("graph declares no variables")
    n_var, n_fac = len(g.variables), len(g.factor_ids)
    cards = np.array([v.cardinality for v in g.variables])
    scope_vars, scope_offsets = g.scope_vars, g.scope_offsets
    fac = np.repeat(np.arange(n_fac), np.diff(scope_offsets))

    # the first edge that closes a cycle ends the shortest prefix of the
    # edges that is not a forest. Factor f is node n_var + f; the edges
    # before the factor that names the first unknown variable come first
    unknown = np.flatnonzero(scope_vars >= n_var)
    known = int(scope_offsets[fac[unknown[0]]]) if unknown.size else len(scope_vars)

    def cyclic(k):
        return not _is_forest(n_var + n_fac, scope_vars[:k], n_var + fac[:k])

    if cyclic(known):
        acyclic = 0
        while known - acyclic > 1:
            mid = (acyclic + known) // 2
            acyclic, known = (acyclic, mid) if cyclic(mid) else (mid, known)
        raise CycleDetected(f"factor {g.factor_ids[fac[known - 1]]!r}: edge to"
                            f" {g.variables[scope_vars[known - 1]].id!r} closes a cycle")
    if unknown.size:
        fi, k = fac[unknown[0]], unknown[0]
        raise UnknownVariable(f"factor {g.factor_ids[fi]!r}: unknown variable"
                              f" {g.scopes[fi][k - scope_offsets[fi]]!r}")
    degree = np.bincount(scope_vars, minlength=n_var)
    if not degree.all():
        raise UncoveredVariable(f"variable {g.variables[degree.argmin()].id!r} appears in"
                                " no factor")
    lengths = np.diff(g.offsets)
    wrong = np.flatnonzero(lengths != table_sizes(cards, scope_vars, scope_offsets))
    if wrong.size:
        fi = wrong[0]
        need = math.prod(cards[scope_vars[scope_offsets[fi]:scope_offsets[fi + 1]]].tolist())
        raise ScopeMismatch(f"factor {g.factor_ids[fi]!r}: value table length {lengths[fi]},"
                            f" but its scope needs {need}")
    check_finite(g)

    g.cards, g.n_edges = cards, len(scope_vars)
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
    facs = np.repeat(np.arange(nfac), np.diff(g.scope_offsets))[g.var_edges].tolist()
    fac_ends = g.var_offsets.tolist()

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
