"""Shared helpers: random tree generation, tolerance predicates, random
semiring carriers with an independent entropy product, the per-edge
references for a graph's structure, and the references that tests build
on the enumeration oracle (finite differences, satisfiability)."""

import math
import tracemalloc

import numpy as np
import pytest

from fginfer import (
    ENTROPY,
    CycleDetected,
    FactorGraph,
    FactorTable,
    ScopeMismatch,
    UncoveredVariable,
    UnknownVariable,
    VariableDecl,
)
from fginfer.oracle import enumerate_z


def rel_err(a: float, b: float) -> float:
    """|a - b| scaled by max(1, |a|, |b|): relative for big, absolute near 0."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def assert_close(a, b, tol=1e-9, what=""):
    err = rel_err(a, b)
    assert err <= tol, f"{what or 'values'} differ: {a!r} vs {b!r} (err {err:.3e})"


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def bits(x) -> list:
    """IEEE bit patterns of floats, so that comparing them is bit for bit
    (0.0 and -0.0 differ, NaN equals itself)."""
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def traced_peak(fn, *args) -> tuple:
    """The result of ``fn(*args)`` and the peak of the memory that
    tracemalloc saw it allocate, in bytes (numpy reports its arrays)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_carrier(s, n: int, rng, k: int = 1) -> np.ndarray:
    """n random values of semiring s as the columns of one carrier array:
    (k + 1, n) for entropy, (1, n) for the real semirings, drawn where
    their laws hold (nonnegative for max-product, 0/1 for Boolean)."""
    if s.name == "entropy":
        return rng.uniform(-10.0, 10.0, size=(k + 1, n))
    if s.name == "boolean":
        return rng.integers(0, 2, size=(1, n)).astype(float)
    if s.name == "max-product":
        return rng.uniform(0.0, 10.0, size=(1, n))
    return rng.uniform(-10.0, 10.0, size=(1, n))


def entropy_fold(columns: np.ndarray) -> np.ndarray:
    """The entropy product of the columns of a (k + 1, n) carrier as the
    engine forms it: ``ENTROPY.mul_entries`` folded left to right from
    the one column (1, 0, ..., 0)."""
    acc = np.zeros(len(columns))
    acc[0] = 1.0
    for j in range(columns.shape[1]):
        ENTROPY.mul_entries(acc, columns[:, j])
    return acc


def entropy_product_closed_form(columns: np.ndarray) -> np.ndarray:
    """The same product in closed form: the product of the scores, and in
    each aux row the sum over m of aux_m times the product of every other
    score, with no product rule applied."""
    scores = columns[0]
    others = np.where(np.eye(len(scores), dtype=bool), 1.0, scores).prod(axis=1)
    return np.concatenate(([scores.prod()], columns[1:] @ others))


def heap_tree(n=1200, value=1.5, cards=(2,)):
    """A binary-heap tree of n variables, variable i of cardinality
    cards[i % len(cards)], every pairwise table constant: Z = prod of the
    cardinalities * value^(n - 1), past float range at n = 1200."""
    card = [cards[i % len(cards)] for i in range(n)]
    variables = [VariableDecl(f"x{i}", card[i]) for i in range(n)]
    factors = [
        FactorTable(f"f{i}", (f"x{(i - 1) // 2}", f"x{i}"),
                    np.full(card[(i - 1) // 2] * card[i], value))
        for i in range(1, n)
    ]
    return FactorGraph(variables, factors)


def random_tree(rng, max_vars=10, max_card=4, max_scope=3, min_value=0.05,
                max_value=2.0):
    """A random acyclic factor graph covering every variable.

    Grown so that each non-unary factor touches exactly one already-placed
    variable, which keeps the bipartite graph a tree. Tables are positive
    uniform draws, so Z > 0 always. Returns (graph, companions) with
    companion tables drawn uniform in [-3, 3).
    """
    n_vars = int(rng.integers(1, max_vars + 1))
    cards = [int(c) for c in rng.integers(1, max_card + 1, n_vars)]
    variables = [VariableDecl(f"x{i}", cards[i]) for i in range(n_vars)]

    placed = [0]
    pending = list(range(1, n_vars))
    rng.shuffle(pending)
    factors = []

    def table_for(scope):
        size = math.prod(cards[i] for i in scope)
        return rng.uniform(min_value, max_value, size)

    while pending:
        room = min(max_scope - 1, len(pending))
        n_new = int(rng.integers(1, room + 1))
        anchor = int(rng.choice(placed))
        news = [pending.pop() for _ in range(n_new)]
        scope = [anchor] + news
        rng.shuffle(scope)
        factors.append(
            FactorTable(f"f{len(factors)}", tuple(f"x{i}" for i in scope),
                        table_for(scope))
        )
        placed.extend(news)

    # some unary factors for variety; at least one so x0 is always covered
    n_unary = 1 if not factors else int(rng.integers(0, 3))
    for _ in range(n_unary):
        i = int(rng.choice(placed))
        factors.append(FactorTable(f"f{len(factors)}", (f"x{i}",), table_for([i])))

    graph = FactorGraph(variables, factors)
    companions = [rng.uniform(-3.0, 3.0, f.values.size) for f in factors]
    return graph, companions


def random_forest(rng, max_trees=3):
    """The disjoint union of one to max_trees random trees, with their
    companion tables."""
    variables, factors, companions = [], [], []
    for k in range(int(rng.integers(1, max_trees + 1))):
        g, comp = random_tree(rng, max_vars=12)
        variables += [VariableDecl(f"t{k}{v.id}", v.cardinality) for v in g.variables]
        factors += [
            FactorTable(f"t{k}{f.id}", tuple(f"t{k}{n}" for n in f.scope), f.values)
            for f in g.factors
        ]
        companions += comp
    return FactorGraph(variables, factors), companions


def per_factor(g, laid_out) -> list:
    """Views of every factor's table in an array in the layout of the
    validated graph g, along its last axis."""
    ends = g.offsets.tolist()
    return [laid_out[..., a:b] for a, b in zip(ends, ends[1:])]


def adjacency(g) -> tuple[list, list]:
    """The validated graph g's structure as lists: every factor's scope
    as variable indices in order, and every variable's factors in factor
    order."""
    g.ensure_checked()
    ends, scope = g.scope_offsets.tolist(), g.scope_vars.tolist()
    factor_vars = [scope[a:b] for a, b in zip(ends, ends[1:])]
    var_factors = [[] for _ in g.variables]
    for fi, vids in enumerate(factor_vars):
        for vi in vids:
            var_factors[vi].append(fi)
    return factor_vars, var_factors


def reference_check(g) -> None:
    """Raise the error that validating the unvalidated graph g must
    raise, by a per-edge union-find over variable and factor nodes that
    joins the edges in order and stops at the first that closes a cycle;
    return None if g is a valid forest."""
    if not g.variables:
        raise UncoveredVariable("graph declares no variables")
    nvar = len(g.variables)
    cards = [v.cardinality for v in g.variables]
    # factor f is node nvar + f
    parent = list(range(nvar + len(g.factors)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    covered = [False] * nvar
    for fi, f in enumerate(g.factors):
        vids = []
        for name in f.scope:
            vi = g.var_index.get(name)
            if vi is None:
                raise UnknownVariable(f"factor {f.id!r}: unknown variable {name!r}")
            vids.append(vi)
        for vi in vids:
            rv, rf = find(vi), find(nvar + fi)
            if rv == rf:
                raise CycleDetected(
                    f"factor {f.id!r}: edge to {g.variables[vi].id!r} closes a cycle")
            parent[rv] = rf
            covered[vi] = True
    for vi in range(nvar):
        if not covered[vi]:
            raise UncoveredVariable(f"variable {g.variables[vi].id!r} appears in no factor")
    for f in g.factors:
        need = math.prod(cards[g.var_index[name]] for name in f.scope)
        if f.values.size != need:
            raise ScopeMismatch(f"factor {f.id!r}: value table length {f.values.size},"
                                f" but its scope needs {need}")


def fd_gradient(pf, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the brute-force total weight:
    p(theta) = sum over assignments of the product of the parametric
    set's tables, by enumeration, at theta +- h per component."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(theta.size)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (enumerate_z(pf.graph_with(pf.tables_at(up)))
                   - enumerate_z(pf.graph_with(pf.tables_at(dn)))) / (2.0 * h)
    return grad


def boolean_satisfiable(g) -> float:
    """1.0 if some assignment has every factor nonzero, else 0.0: the
    enumerated count of such assignments, over the 0/1 indicator tables
    of g's entries, is exact."""
    g.ensure_checked()
    indicators = FactorGraph.from_arrays(g.var_ids, g.cards, g.factor_ids, g.scopes,
                                         (g.values != 0.0).astype(float), np.diff(g.offsets))
    return 1.0 if enumerate_z(indicators) > 0.0 else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
