import numpy as np
import pytest

from fginfer import ENTROPY, FactorGraph, FactorTable, TooLarge, VariableDecl, ZeroEvidence
from fginfer.oracle import (
    enumerate_entropy,
    enumerate_h,
    enumerate_marginal,
    enumerate_z,
)

from conftest import assert_close, fd_gradient


def unary_graph(values):
    v = np.asarray(values, dtype=float)
    return FactorGraph(
        [VariableDecl("x", v.size)], [FactorTable("f", ("x",), v)]
    )


class TestEnumerateZ:
    def test_unary(self):
        assert enumerate_z(unary_graph([0.25, 0.75])) == 1.0

    def test_all_ones_counts_assignments(self):
        g = FactorGraph(
            [VariableDecl(f"x{i}", 2) for i in range(5)],
            [FactorTable(f"f{i}", (f"x{i}",), np.ones(2)) for i in range(5)],
        )
        assert enumerate_z(g) == 32.0

    def test_guard(self):
        g = FactorGraph(
            [VariableDecl(f"x{i}", 10) for i in range(7)],
            [FactorTable("f", tuple(f"x{i}" for i in range(7)), np.ones(10**7))],
        )
        with pytest.raises(TooLarge, match=r"^about 10\^7\.0 joint assignments exceed the"
                                            r" 1000000 guard$"):
            enumerate_z(g)


class TestEnumerateH:
    def test_single_uniform_factor(self):
        g = unary_graph([0.5, 0.5])
        assert enumerate_h(g, [np.array([-1.0, -1.0])]) == -1.0

    def test_zero_companions(self):
        g = unary_graph([0.3, 0.9])
        assert enumerate_h(g, [np.zeros(2)]) == 0.0

    def test_none_companion_means_zero_table(self):
        g = unary_graph([0.3, 0.9])
        assert enumerate_h(g, [None]) == 0.0

    def test_two_factor_sum(self):
        # H = sum_x f1 f2 (g1 + g2) on a shared binary variable
        g = FactorGraph(
            [VariableDecl("x", 2)],
            [
                FactorTable("a", ("x",), np.array([0.5, 0.25])),
                FactorTable("b", ("x",), np.array([2.0, 4.0])),
            ],
        )
        got = enumerate_h(g, [np.array([1.0, 2.0]), np.array([10.0, 20.0])])
        # x=0: 0.5*2*(1+10) = 11; x=1: 0.25*4*(2+20) = 22
        assert got == 33.0


class TestEnumerateMarginal:
    def test_unary_is_table(self):
        m = enumerate_marginal(unary_graph([0.2, 0.3, 0.5]), "x")
        assert list(m) == [0.2, 0.3, 0.5]

    def test_chain_identity_factor(self):
        g = FactorGraph(
            [VariableDecl("x1", 2), VariableDecl("x2", 2)],
            [
                FactorTable("fa", ("x1",), np.array([0.5, 0.5])),
                FactorTable("fb", ("x1", "x2"), np.array([1.0, 0.0, 0.0, 1.0])),
            ],
        )
        assert list(enumerate_marginal(g, "x2")) == [0.5, 0.5]

    def test_marginal_sums_to_z(self, rng):
        from conftest import random_tree

        for _ in range(10):
            g, _ = random_tree(rng, max_vars=6)
            z = enumerate_z(g)
            for v in g.variables:
                assert_close(float(enumerate_marginal(g, v.id).sum()), z)


class TestEnumerateEntropy:
    def test_uniform_eight(self):
        g = FactorGraph(
            [VariableDecl(f"x{i}", 2) for i in range(3)],
            [FactorTable(f"f{i}", (f"x{i}",), np.ones(2)) for i in range(3)],
        )
        assert enumerate_entropy(g) == 3.0

    def test_deterministic(self):
        assert enumerate_entropy(unary_graph([1.0, 0.0])) == 0.0

    def test_zero_evidence(self):
        with pytest.raises(ZeroEvidence):
            enumerate_entropy(unary_graph([0.0, 0.0]))


class TestFdGradient:
    def test_constant_total(self):
        from fginfer import ParametricFactorSet

        # f = [theta, 1 - theta]: p(theta) = 1 for all theta
        pf = ParametricFactorSet(
            [VariableDecl("x", 2)],
            [("x",)],
            1,
            lambda th: [np.array([th[0], 1.0 - th[0]])],
            lambda th: [np.array([[1.0, -1.0]])],
        )
        grad = fd_gradient(pf, np.array([0.3]))
        assert abs(grad[0]) <= 1e-8

    def test_quadratic(self):
        from fginfer import ParametricFactorSet

        # f = [theta^2, 1]: p(theta) = theta^2 + 1, dp/dtheta at 2 is 4
        pf = ParametricFactorSet(
            [VariableDecl("x", 2)],
            [("x",)],
            1,
            lambda th: [np.array([th[0] ** 2, 1.0])],
            lambda th: [np.array([[2.0 * th[0], 0.0]])],
        )
        grad = fd_gradient(pf, np.array([2.0]))
        assert abs(grad[0] - 4.0) <= 1e-8


def test_enumerate_z_sums_a_two_by_three_table():
    g = FactorGraph(
        [VariableDecl("a", 2), VariableDecl("b", 3)],
        [FactorTable("f", ("a", "b"), np.arange(1.0, 7.0))],
    )
    assert enumerate_z(g) == 21.0


def test_entropy_lifted_first_components_equal_plain_z():
    g = FactorGraph(
        [VariableDecl("a", 2), VariableDecl("b", 2)],
        [
            FactorTable("fa", ("a",), np.array([0.4, 0.6])),
            FactorTable("fab", ("a", "b"), np.array([1.0, 2.0, 3.0, 4.0])),
        ],
    )
    lifted = [
        ENTROPY.lift_table(f.values, np.full(f.values.size, 0.5))
        for f in g.factors
    ]
    score_tables = [np.asarray(scores) for scores, _ in lifted]
    g2 = FactorGraph(
        g.variables,
        [FactorTable(f.id, f.scope, score_tables[i]) for i, f in enumerate(g.factors)],
    )
    assert enumerate_z(g2) == enumerate_z(g)
