"""Shared helpers: random tree generation and tolerance predicates."""

import math

import numpy as np
import pytest

from fginfer import FactorGraph, FactorTable, VariableDecl


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
