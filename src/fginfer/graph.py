"""Discrete factor graphs: declarations, validation, schedules, indexing.

A factor graph is a bipartite graph between variables with finite domains
and factors with dense tables over ordered scopes. Tables are flat,
row major in the mixed-radix sense: the FIRST scope variable is the MOST
significant digit of the table index. That ordering is normative for the
on-disk format as well (see docs/file-formats.md).

Only trees and forests are accepted by the engine. Structural checking is
incremental union-find, which enforces exactly the acyclic criterion
|edges| = |nodes| - |components|.
"""

from dataclasses import dataclass, field

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
    """Variables plus factors; adjacency is built by :func:`validate`.

    Construction is cheap and defers semantic checks. ``validate`` resolves
    scopes, checks coverage and table lengths, rejects cycles, and fills in
    the adjacency used by the engine:

    - ``factor_vars[f]``: variable indices of factor f's scope, in order
    - ``factor_cards[f]``: matching cardinalities
    - ``var_factors[v]``: indices of factors touching variable v

    ``plans`` caches the engine's level plans by root and pass count (see
    :func:`fginfer.propagation.level_plan`), which depend on the structure
    only. Instances are not thread safe during validation or while a plan
    is compiled; afterwards they are read only and safe to share.
    """

    def __init__(self, variables, factors):
        self.variables = list(variables)
        self.factors = list(factors)
        self.var_index: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            if v.id in self.var_index:
                raise ValueError(f"duplicate variable id {v.id!r}")
            self.var_index[v.id] = i
        seen = set()
        for f in self.factors:
            if f.id in seen:
                raise ValueError(f"duplicate factor id {f.id!r}")
            seen.add(f.id)
        self.checked = False
        self.factor_vars: list[list[int]] = []
        self.factor_cards: list[list[int]] = []
        self.var_factors: list[list[int]] = []
        self.n_edges = 0
        self.plans: dict = {}

    def cardinality(self, var_id: str) -> int:
        try:
            return self.variables[self.var_index[var_id]].cardinality
        except KeyError:
            raise UnknownVariable(f"unknown variable {var_id!r}") from None

    def variable_position(self, var_id: str) -> int:
        try:
            return self.var_index[var_id]
        except KeyError:
            raise UnknownVariable(f"unknown variable {var_id!r}") from None

    def ensure_checked(self):
        if not self.checked:
            validate(self)
        return self


def validate(g: FactorGraph) -> FactorGraph:
    """Check a factor graph and build its adjacency; returns the graph.

    Raises UnknownVariable, ScopeMismatch, UncoveredVariable, or
    CycleDetected. Forests (several connected components) are accepted.
    """
    if g.checked:
        return g
    if not g.variables:
        raise UncoveredVariable("graph declares no variables")
    nvar = len(g.variables)
    cards = [v.cardinality for v in g.variables]
    var_index = g.var_index

    # union-find over variable and factor nodes; factor f is node nvar + f
    parent = list(range(nvar + len(g.factors)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    factor_vars = []
    factor_cards = []
    var_factors: list[list[int]] = [[] for _ in range(nvar)]
    n_edges = 0
    for fi, f in enumerate(g.factors):
        vids = []
        size = 1
        for name in f.scope:
            vi = var_index.get(name)
            if vi is None:
                raise UnknownVariable(f"factor {f.id!r}: unknown variable {name!r}")
            vids.append(vi)
            size *= cards[vi]
        if len(f.values) != size:
            raise ScopeMismatch(
                f"factor {f.id!r}: table has {len(f.values)} values, scope needs {size}"
            )
        fnode = nvar + fi
        for vi in vids:
            rv = find(vi)
            rf = find(fnode)
            if rv == rf:
                raise CycleDetected(
                    f"factor {f.id!r}: edge to {g.variables[vi].id!r} closes a cycle"
                )
            parent[rv] = rf
            var_factors[vi].append(fi)
        factor_vars.append(vids)
        factor_cards.append([cards[vi] for vi in vids])
        n_edges += len(vids)

    for vi, touching in enumerate(var_factors):
        if not touching:
            raise UncoveredVariable(f"variable {g.variables[vi].id!r} appears in no factor")

    g.factor_vars = factor_vars
    g.factor_cards = factor_cards
    g.var_factors = var_factors
    g.n_edges = n_edges
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
    n_edges: int
    depth: np.ndarray


def make_schedule(g: FactorGraph, root: str | None = None, two_pass: bool = False) -> Schedule:
    """Build a leaf-to-root schedule (plus the return pass if asked).

    The root defaults to the first declared variable. On forests every
    component gets its own local root (the first declared variable not yet
    reached) and the schedule covers all components.
    """
    g.ensure_checked()
    root_idx = g.variable_position(root) if root is not None else 0
    nvar = len(g.variables)
    vvis = bytearray(nvar)
    fvis = bytearray(len(g.factors))
    depth = [0] * (nvar + len(g.factors))
    var_factors = g.var_factors
    factor_vars = g.factor_vars

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
                for fi in var_factors[idx]:
                    if not fvis[fi]:
                        fvis[fi] = 1
                        depth[nvar + fi] = d
                        disc.append((False, fi, idx))
            else:
                d = depth[nvar + idx] + 1
                for vi in factor_vars[idx]:
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

    edges = up + down if two_pass else up
    return Schedule(
        root=root_idx,
        component_roots=component_roots,
        edges=edges,
        two_pass=two_pass,
        n_edges=g.n_edges,
        depth=np.array(depth),
    )


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
    total = 1
    for c in cards:
        total *= c
    if not 0 <= index < total:
        raise OutOfDomain(f"index {index} outside table of size {total}")
    out = [0] * len(cards)
    for p in range(len(cards) - 1, -1, -1):
        out[p] = index % cards[p]
        index //= cards[p]
    return tuple(out)
