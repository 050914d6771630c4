import gc
import math
import weakref

import numpy as np
import pytest

from fginfer import (
    DegenerateMStep,
    FactorTable,
    OutOfDomain,
    ScopeMismatch,
    ParametricFactorSet,
    WeightedGraph,
    compute_zh,
    UndefinedQuotient,
    em_linear_step,
    em_q_gradient,
    gradient_at,
    entropy,
    learning,
)
from fginfer.oracle import enumerate_h
from fginfer.semiring import ENTROPY

from conftest import (
    assert_close,
    bits,
    fd_gradient,
    heap_tree,
    per_factor,
    random_tree,
    traced_peak,
)


def mixture_factor_set():
    # single binary variable, table [theta, 1 - theta]: total is constant 1
    return ParametricFactorSet.affine(
        [("x", 2)], [("x",)], [[0.0, 1.0]], [[[1.0, -1.0]]]
    )


def square_factor_set():
    # table [theta^2, 1]: total theta^2 + 1, gradient 2 theta
    return ParametricFactorSet(
        [("x", 2)],
        [("x",)],
        1,
        lambda th: [np.array([th[0] ** 2, 1.0])],
        lambda th: [np.array([[2.0 * th[0], 0.0]])],
    )


def random_affine_tree(rng, dim):
    g, _ = random_tree(rng, max_vars=6, min_value=0.5, max_value=2.0)
    base = [f.values for f in g.factors]
    coeffs = [rng.uniform(-0.1, 0.1, (dim, t.size)) for t in base]
    return ParametricFactorSet.affine(
        [(v.id, v.cardinality) for v in g.variables],
        [f.scope for f in g.factors],
        base,
        coeffs,
        factor_ids=[f.id for f in g.factors],
    )


def exp_family(rng, dim, n_entries=(2, 4)):
    """One unary plus one pairwise factor with grad log p_k linear in theta:

        p_k(x, theta) = base_k(x) * exp(v_k(x) |theta|^2 / 2 + u_k(x) lam.theta)

    so the surrogate gradient is H_b * theta + H_a * lam and the closed-form
    step lands exactly on its zero.
    """
    base = [rng.uniform(0.5, 1.5, n) for n in n_entries]
    u = [rng.uniform(-1.0, 1.0, n) for n in n_entries]
    v = [rng.uniform(0.2, 1.0, n) for n in n_entries]
    lam = rng.uniform(0.5, 1.5, dim)

    def tables_fn(th):
        th = np.asarray(th, dtype=float)
        q = 0.5 * th @ th
        s = lam @ th
        return [b * np.exp(vk * q + uk * s) for b, uk, vk in zip(base, u, v)]

    def grads_fn(th):
        th = np.asarray(th, dtype=float)
        tables = tables_fn(th)
        return [
            t[None, :] * (vk[None, :] * th[:, None] + uk[None, :] * lam[:, None])
            for t, uk, vk in zip(tables, u, v)
        ]

    return ParametricFactorSet(
        [("x", 2), ("y", 2)],
        [("x",), ("x", "y")],
        dim,
        tables_fn=tables_fn,
        grads_fn=grads_fn,
        u=u,
        v=v,
        lam=lam,
    )


class TestParametricFactorSet:
    def test_affine_tables_and_grads(self):
        pf = mixture_factor_set()
        assert pf.dim == 1
        assert np.allclose(pf.tables_at([0.3]), [0.3, 0.7])
        assert np.allclose(pf.grads_at([0.3]), [[1.0, -1.0]])

    def test_affine_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ParametricFactorSet.affine(
                [("x", 2)],
                [("x",), ("x",)],
                [[1.0, 1.0], [1.0, 1.0]],
                [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
            )

    def test_linear_form_has_no_callables(self):
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[2.0, 4.0]], [[1.0, 1.0]], [1.0]
        )
        assert not pf.has_gradients
        with pytest.raises(ValueError, match="linear-form"):
            pf.tables_at([0.0])

    def test_linear_form_has_no_gradient_tables(self):
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[2.0, 4.0]], [[1.0, 1.0]], [1.0]
        )
        with pytest.raises(ValueError, match="no gradient tables"):
            pf.grads_at([0.0])

    def test_u_and_v_are_the_rows_of_one_array(self, rng):
        # laid out once, as the (2, total) companions of em_linear_step;
        # per-factor tables and layout arrays alike are copied in
        pf = random_affine_tree(rng, 2)
        structure = pf.structure_graph()
        u, v = rng.uniform(-0.5, 1.5, (2, structure.values.size))
        for given in ((per_factor(structure, u), per_factor(structure, v)), (u, v)):
            form = linear_form_of(pf, pf.tables_at(np.zeros(2)), *given, np.ones(2))
            assert form.u.base is form.v.base
            assert form.u.base.shape == (2, structure.values.size)
            assert bits(form.u) == bits(u) and bits(form.v) == bits(v)
        u[0] = 9.0
        assert form.u[0] != 9.0

    def test_default_factor_ids(self):
        # built once per count; every set still owns its list
        sets = [ParametricFactorSet([("x", 2), ("y", 2)], [("x",), ("x", "y")], 1)
                for _ in range(2)]
        assert sets[0].factor_ids == sets[1].factor_ids == ["p0", "p1"]
        sets[0].factor_ids.append("p2")
        assert sets[1].factor_ids == ["p0", "p1"]
        assert sets[0].structure_graph() is sets[1].structure_graph()

    def test_factor_ids_and_scopes_disagree(self):
        with pytest.raises(ValueError, match="disagree in length"):
            ParametricFactorSet([("x", 2)], [("x",)], 1, factor_ids=["a", "b"])

    def test_structure_graph_is_validated_once(self):
        pf = mixture_factor_set()
        assert pf.structure_graph() is pf.structure_graph()

    def test_graph_with_shares_the_structure(self, rng):
        pf = random_affine_tree(rng, 2)
        structure = pf.structure_graph()
        g = pf.graph_with(pf.tables_at(np.zeros(2)))
        assert g.checked and g.scope_vars is structure.scope_vars
        assert g.plans is structure.plans
        gradient_at(pf, np.zeros(2))
        gradient_at(pf, np.ones(2))
        assert len(structure.plans) == 1
        bad = per_factor(structure, pf.tables_at(np.zeros(2)))
        bad[-1] = bad[-1][:-1]
        with pytest.raises(ScopeMismatch, match=f"factor {pf.factor_ids[-1]!r}:.* scope needs"):
            pf.graph_with(bad)
        # the factors keep the structure's validated scopes
        assert all(f.scope is s.scope and f.id == s.id for f, s in zip(g.factors,
                                                                        structure.factors))
        assert [f.values.tolist() for f in g.factors] == [
            t.tolist() for t in per_factor(structure, pf.tables_at(np.zeros(2)))]
        with pytest.raises(ScopeMismatch, match="tables for"):
            pf.graph_with(bad[:-1])

    def test_requests_build_no_factor_tables(self, rng, monkeypatch):
        # a gradient and an EM step over a shared structure read its arrays
        # only: neither builds a per-factor FactorTable view
        pf = random_affine_tree(rng, 2)
        structure = pf.structure_graph()
        u = per_factor(structure, rng.uniform(0.5, 1.5, structure.values.size))
        built = []
        post_init = FactorTable.__post_init__

        def counting(self):
            built.append(self.id)
            post_init(self)

        monkeypatch.setattr(FactorTable, "__post_init__", counting)
        theta = np.full(2, 0.1)
        gradient_at(pf, theta)
        form = ParametricFactorSet.linear_form(pf.variables, pf.scopes, pf.tables_at(theta),
                                               u, u, np.ones(2), factor_ids=pf.factor_ids)
        em_linear_step(form)
        assert built == []

    def test_bad_dim(self):
        with pytest.raises(ValueError, match=">= 1"):
            ParametricFactorSet([("x", 2)], [("x",)], 0)

    @pytest.mark.parametrize("which", ["u", "v", "lam"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_linear_form(self, which, bad):
        # em_linear_step used to return theta_new = [nan] for u = [nan, 1]
        args = {"u": [[2.0, 4.0]], "v": [[1.0, 1.0]], "lam": [1.0]}
        args[which] = [bad] if which == "lam" else [[bad, 1.0]]
        with pytest.raises(ValueError, match="finite"):
            ParametricFactorSet.linear_form(
                [("x", 2)], [("x",)], [[0.5, 0.5]], args["u"], args["v"], args["lam"]
            )


class TestGradientAt:
    def test_constant_total_has_zero_gradient(self):
        assert gradient_at(mixture_factor_set(), [0.3])[0] == pytest.approx(0.0)

    def test_square_plus_one(self):
        assert_close(gradient_at(square_factor_set(), [2.0])[0], 4.0)

    def test_theta_size_checked(self):
        with pytest.raises(ValueError, match="components"):
            gradient_at(mixture_factor_set(), [0.1, 0.2])

    def test_matches_finite_differences(self, rng):
        for _ in range(15):
            dim = int(rng.integers(1, 4))
            pf = random_affine_tree(rng, dim)
            theta = rng.uniform(-0.5, 0.5, dim)
            exact = gradient_at(pf, theta)
            approx = fd_gradient(pf, theta)
            assert np.max(np.abs(exact - approx)) <= 1e-5

    def test_zero_value_nonzero_grad_rejected(self):
        pf = ParametricFactorSet.affine(
            [("x", 2)], [("x",)], [[0.0, 1.0]], [[[1.0, 0.0]]]
        )
        with pytest.raises(UndefinedQuotient):
            gradient_at(pf, [0.0])

    def test_undefined_quotient_names_the_factor(self):
        pf = ParametricFactorSet.affine(
            [("x", 2), ("y", 2)], [("x",), ("y",)], [[1.0, 1.0], [0.0, 1.0]],
            [[[0.0, 0.0]], [[1.0, 0.0]]], factor_ids=["fx", "fy"],
        )
        with pytest.raises(UndefinedQuotient, match="factor 'fy'"):
            gradient_at(pf, [0.0])

    def test_zero_value_zero_grad_allowed(self):
        pf = ParametricFactorSet.affine(
            [("x", 2)], [("x",)], [[0.0, 1.0]], [[[0.0, 1.0]]]
        )
        assert_close(gradient_at(pf, [0.0])[0], 1.0)

    def test_rescaled_run_matches(self, rng):
        # every pass is rescaled; the rescale keyword has no effect
        pf = random_affine_tree(rng, 2)
        theta = rng.uniform(-0.5, 0.5, 2)
        grad = gradient_at(pf, theta)
        for rescale in (False, True):
            assert bits(gradient_at(pf, theta, rescale=rescale)) == bits(grad)


def divided_quotients(f, gt):
    """The g tables written as two `where` arrays around the division; the
    one-allocation quotient must return their bits."""
    zero = f == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zero, 0.0, gt / np.where(zero, 1.0, f))


def one_factor_set(f, gt, f_old=None):
    """A one-factor set whose tables are f, with gradient tables gt, and
    f_old at theta = [1, ...] if it is given."""
    return ParametricFactorSet([("x", f.size)], [("x",)], len(gt),
                               lambda th: f if f_old is None or th[0] == 0.0 else f_old,
                               lambda th: gt)


def lifted(f, g):
    """The entropy lift [f; f * g] with (0, 0) under zero values, written out."""
    return np.vstack([f, np.where(f == 0.0, 0.0, f * g)])


class TestQuotientGraph:
    """The quotients grad / f_i, divided and lifted in one (dim + 1, total)
    carrier, against the divided quotients and the lift written out."""

    def zeros_and_signs(self, rng, n, dim):
        # zeros of either sign under zero values, -0.0 and negative values
        f = rng.uniform(-2.0, 2.0, n)
        f[rng.integers(0, n, 10)] = 0.0
        f[rng.integers(0, n, 5)] = -0.0
        gt = rng.uniform(-3.0, 3.0, (dim, n))
        gt[:, rng.integers(0, n, 6)] = -0.0
        zero = f == 0.0
        gt[:, zero] = rng.choice([0.0, -0.0], size=(dim, int(zero.sum())))
        return f, gt

    def test_bits_equal_the_divided_quotients(self, rng):
        # no warning escapes, and at theta_old the quotients at theta_i are
        # lifted by other values, some of them zero
        n = 60
        for dim in (1, 3, 8):
            f, gt = self.zeros_and_signs(rng, n, dim)
            f_old = rng.uniform(0.5, 2.0, n)
            f_old[rng.integers(0, n, 8)] = rng.choice([0.0, -0.0], 8)
            pf = one_factor_set(f, gt, f_old)
            with np.errstate(all="raise"):
                wg = learning._QuotientGraph(pf, np.zeros(dim), "table")
                at_old = learning._QuotientGraph(pf, np.zeros(dim), "table", np.ones(dim))
            carrier = wg.carrier_tables(ENTROPY)
            assert carrier.shape == (dim + 1, n)
            assert bits(carrier) == bits(lifted(f, divided_quotients(f, gt)))
            assert bits(at_old.carrier_tables(ENTROPY)) == bits(
                lifted(f_old, divided_quotients(f, gt)))
            assert wg.companions.base is carrier

    def test_errors_in_their_order(self, rng):
        f, gt = self.zeros_and_signs(rng, 60, 3)
        nonzero = np.flatnonzero(f != 0.0)
        zero = np.flatnonzero(f == 0.0)

        def raises(f, gt, error, match):
            with np.errstate(all="raise"), pytest.raises(error, match=match):
                learning._QuotientGraph(one_factor_set(f, gt), np.zeros(3), "table")

        # a zero value with a nonzero gradient entry, before an infinite value
        bad = gt.copy()
        bad[1, zero[0]] = 1.0
        inf_f = f.copy()
        inf_f[nonzero[0]] = math.inf
        raises(inf_f, bad, UndefinedQuotient, "^factor 'p0' has a zero table value")
        raises(inf_f, gt, OutOfDomain, "not a finite number$")
        # an infinite gradient entry, and a quotient that overflows
        bad = gt.copy()
        bad[2, nonzero[0]] = -math.inf
        raises(f, bad, ValueError, "^factor 'p0': companion must be finite wherever")
        tiny = f.copy()
        tiny[nonzero[0]] = 1e-300
        bad = gt.copy()
        bad[0, nonzero[0]] = 1e10
        raises(tiny, bad, UndefinedQuotient, "^factor 'p0': the quotient of a gradient entry"
                                             " by its table value overflows$")
        # under a zero of the other point's tables the overflow is lifted to 0
        f_old = np.ones(60)
        f_old[nonzero[0]] = 0.0
        with np.errstate(all="raise"):
            wg = learning._QuotientGraph(one_factor_set(tiny, bad, f_old), np.zeros(3),
                                         "table", np.ones(3))
        assert (wg.carrier_tables(ENTROPY)[1:, nonzero[0]] == 0.0).all()

    def test_allocates_only_its_carrier(self, rng):
        # an 8 x 9000 gradient: the divided quotients peaked at 2.04 times
        # the quotients, their one-allocation division at 1.03, and the
        # quotients divided and lifted in the carrier at 1.05 times the carrier
        f = rng.uniform(0.5, 1.5, 9000)
        f[::7] = 0.0
        gt = rng.uniform(-1.0, 1.0, (8, 9000))
        gt[:, f == 0.0] = 0.0
        pf = one_factor_set(f, gt)
        wg, peak = traced_peak(learning._QuotientGraph, pf, np.zeros(8), "table")
        carrier = wg.carrier_tables(ENTROPY)
        assert carrier.shape == (9, 9000)
        assert peak <= 1.1 * carrier.nbytes


class TestEmLinearStep:
    def test_worked_example(self):
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[2.0, 4.0]], [[1.0, 1.0]], [1.0]
        )
        res = em_linear_step(pf)
        assert res.h_a == pytest.approx(3.0)
        assert res.h_b == pytest.approx(1.0)
        assert_close(res.theta_new[0], -3.0)
        assert res.residual <= 1e-12

    def test_all_ones_returns_minus_lam(self, rng):
        # u = v makes the two totals the same float, so the ratio is exact
        for _ in range(10):
            g, _ = random_tree(rng, max_vars=6)
            ones = [np.ones(f.values.size) for f in g.factors]
            lam = rng.uniform(-2.0, 2.0, int(rng.integers(1, 4)))
            pf = ParametricFactorSet.linear_form(
                [(v.id, v.cardinality) for v in g.variables],
                [f.scope for f in g.factors],
                [f.values for f in g.factors],
                ones,
                ones,
                lam,
                factor_ids=[f.id for f in g.factors],
            )
            res = em_linear_step(pf)
            assert np.max(np.abs(res.theta_new + lam)) <= 1e-12

    def test_totals_match_oracle(self, rng):
        for _ in range(10):
            g, _ = random_tree(rng, max_vars=6)
            u = [rng.uniform(-2.0, 2.0, f.values.size) for f in g.factors]
            v = [rng.uniform(0.2, 1.0, f.values.size) for f in g.factors]
            lam = rng.uniform(0.5, 1.5, 2)
            pf = ParametricFactorSet.linear_form(
                [(vr.id, vr.cardinality) for vr in g.variables],
                [f.scope for f in g.factors],
                [f.values for f in g.factors],
                u,
                v,
                lam,
                factor_ids=[f.id for f in g.factors],
            )
            res = em_linear_step(pf)
            assert_close(res.h_a, enumerate_h(g, u), what="H_a")
            assert_close(res.h_b, enumerate_h(g, v), what="H_b")
            assert np.allclose(res.theta_new, -(res.h_a / res.h_b) * lam)
            assert res.residual <= 1e-9 * max(abs(res.h_a), abs(res.h_b))

    @pytest.mark.parametrize("scale", [1e-290, 1e-305, 1e-320])
    def test_tiny_totals_step(self, scale):
        # the pass scales the totals to normal mantissas, whose ratio keeps
        # its precision; totals between 2^-1022 and 1e-300 once raised
        # DegenerateMStep
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [np.array([scale, scale])], [[1.0, 2.0]], [[1.0, 1.0]], [1.0]
        )
        assert_close(em_linear_step(pf).theta_new[0], -1.5, 1e-15)

    def test_degenerate_denominator(self):
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[2.0, 4.0]], [[0.0, 0.0]], [1.0]
        )
        with pytest.raises(DegenerateMStep):
            em_linear_step(pf)

    def test_degenerate_subnormal_mantissas(self):
        # Z is 1, so the H mantissas are the subnormal totals themselves and
        # their ratio would keep only about a dozen significant bits
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[1e-320, 2e-320]], [[1e-320, 1e-320]], [1.0]
        )
        with pytest.raises(DegenerateMStep, match="subnormal"):
            em_linear_step(pf)

    def test_degenerate_both_zero(self):
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[0.0, 0.0]], [[0.0, 0.0]], [1.0]
        )
        with pytest.raises(DegenerateMStep):
            em_linear_step(pf)

    def test_missing_linear_form_data(self):
        with pytest.raises(ValueError, match="u, v, and lam"):
            em_linear_step(mixture_factor_set())

    def test_callable_tables_need_theta_old(self, rng):
        pf = exp_family(rng, 2)
        with pytest.raises(ValueError, match="theta_old"):
            em_linear_step(pf)

    def test_theta_old_wins_over_base_tables(self):
        # tables [1 + theta, 1]: base tables [1, 1], [6, 1] at theta = 5
        pf = ParametricFactorSet.affine(
            [("x", 2)], [("x",)], [[1.0, 1.0]], [[[1.0, 0.0]]],
            u=[[1.0, 2.0]], v=[[1.0, 1.0]], lam=[1.0],
        )
        assert em_linear_step(pf).theta_new.tolist() == [-1.5]
        assert em_linear_step(pf, theta_old=[5.0]).theta_new.tolist() == [-8.0 / 7.0]
        with pytest.raises(ValueError, match="theta_old has 3 components"):
            em_linear_step(pf, theta_old=[1.0, 2.0, 3.0])

    def test_theta_old_needs_callables(self):
        pf = ParametricFactorSet.linear_form(
            [("x", 2)], [("x",)], [[0.5, 0.5]], [[2.0, 4.0]], [[1.0, 1.0]], [1.0]
        )
        with pytest.raises(ValueError, match="only linear-form data"):
            em_linear_step(pf, theta_old=[1.0])

    def test_uv_length_mismatch(self):
        # checked once, where the set is built
        with pytest.raises(ScopeMismatch, match="factor 'p0': u table length 1"):
            ParametricFactorSet.linear_form(
                [("x", 2)], [("x",)], [[0.5, 0.5]], [[2.0]], [[1.0, 1.0]], [1.0]
            )


class TestEmQGradient:
    def test_same_point_is_plain_gradient(self, rng):
        pf = random_affine_tree(rng, 2)
        theta = rng.uniform(-0.5, 0.5, 2)
        assert np.allclose(
            em_q_gradient(pf, theta, theta), gradient_at(pf, theta)
        )

    def test_point_sizes_checked(self):
        # both points, before numpy meets a mismatched matmul
        pf = mixture_factor_set()
        with pytest.raises(ValueError, match="theta_old has 2 components, model has 1"):
            em_q_gradient(pf, [0.5, 2.0], [0.5])
        with pytest.raises(ValueError, match="theta_i has 2 components, model has 1"):
            em_q_gradient(pf, [0.5], [0.5, 2.0])

    def test_zero_grads_give_zero(self):
        pf = ParametricFactorSet(
            [("x", 2)],
            [("x",)],
            1,
            lambda th: [np.array([0.4, 0.6])],
            lambda th: [np.zeros((1, 2))],
        )
        assert em_q_gradient(pf, [1.0], [2.0])[0] == 0.0

    def test_single_factor_hand_value(self):
        pf = ParametricFactorSet(
            [("x", 2)],
            [("x",)],
            1,
            lambda th: [np.array([th[0] + 1.0, 2.0 * th[0] + 1.0])],
            lambda th: [np.array([[1.0, 2.0]])],
        )
        # f at theta_old=1 is [2, 3]; quotient at theta_i=3 is [1/4, 2/7]
        assert_close(em_q_gradient(pf, [1.0], [3.0])[0], 2.0 / 4.0 + 3.0 * 2.0 / 7.0)

    def test_vanishes_at_closed_form_step(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            pf = exp_family(rng, dim)
            theta_old = rng.uniform(-0.5, 0.5, dim)
            res = em_linear_step(pf, theta_old=theta_old)
            g = em_q_gradient(pf, theta_old, res.theta_new)
            assert np.max(np.abs(g)) <= 1e-6

    def test_brute_force_expectation(self, rng):
        # single pass equals sum_x w_old(x) * sum_k d/dtheta log p_k at theta_i
        pf = exp_family(rng, 2)
        theta_old = np.array([0.2, -0.3])
        theta_i = np.array([0.4, 0.1])
        f_old, f_i, g_i = (per_factor(pf.structure_graph(), t) for t in (
            pf.tables_at(theta_old), pf.tables_at(theta_i), pf.grads_at(theta_i)))
        expected = np.zeros(2)
        for x in range(2):
            for y in range(2):
                idx = [x, x * 2 + y]
                w = f_old[0][idx[0]] * f_old[1][idx[1]]
                for k in (0, 1):
                    expected += w * g_i[k][:, idx[k]] / f_i[k][idx[k]]
        assert np.allclose(em_q_gradient(pf, theta_old, theta_i), expected)


def quotients(values, grads, j):
    """Row j of the g tables grad/value, 0 where the value is 0."""
    zero = values == 0.0
    return np.where(zero, 0.0, grads[j] / np.where(zero, 1.0, values))


def linear_form_of(pf, tables, u, v, lam):
    return ParametricFactorSet.linear_form(
        pf.variables, pf.scopes, tables, u, v, lam, factor_ids=pf.factor_ids
    )


class TestOnePassEqualsPerComponentLoop:
    """The one width-k pass per call against the loop of width-1 passes it
    replaced, one per component (or per EM total), bit for bit."""

    def test_gradient(self, rng):
        for trial in range(12):
            dim = 1 + trial % 4
            pf = random_affine_tree(rng, dim)
            theta = rng.uniform(-0.5, 0.5, dim)
            values, grads = pf.tables_at(theta), pf.grads_at(theta)
            graph = pf.graph_with(values)
            zh = [compute_zh(WeightedGraph(graph, quotients(values, grads, j)))
                  for j in range(dim)]
            loop = [res.H * math.exp(res.log_scale) for res in zh]
            assert bits(gradient_at(pf, theta)) == bits(loop)

    def test_em_linear_step(self, rng):
        for _ in range(12):
            pf = random_affine_tree(rng, int(rng.integers(1, 4)))
            tables = pf.tables_at(rng.uniform(-0.5, 0.5, pf.dim))
            u = [rng.uniform(-0.5, 1.5, t.size) for t in per_factor(pf.structure_graph(), tables)]
            v = [rng.uniform(0.5, 1.5, t.size) for t in per_factor(pf.structure_graph(), tables)]
            form = linear_form_of(pf, tables, u, v, rng.normal(size=pf.dim))
            graph = form.graph_with(tables)
            h_a = compute_zh(WeightedGraph(graph, u)).H
            h_b = compute_zh(WeightedGraph(graph, v)).H
            res = em_linear_step(form)
            assert bits([res.h_a, res.h_b]) == bits([h_a, h_b])
            assert bits(res.theta_new) == bits(-(h_a / h_b) * form.lam)
            assert bits(res.residual) == bits(abs(h_a + h_b * -(h_a / h_b)))
            assert res.exponent == 0

    def test_em_q_gradient(self, rng):
        for trial in range(12):
            dim = 1 + trial % 4
            pf = random_affine_tree(rng, dim)
            theta_old, theta_i = rng.uniform(-0.5, 0.5, (2, dim))
            graph = pf.graph_with(pf.tables_at(theta_old))
            f_i, g_i = pf.tables_at(theta_i), pf.grads_at(theta_i)
            loop = [compute_zh(WeightedGraph(graph, quotients(f_i, g_i, j))).H
                    for j in range(dim)]
            assert bits(em_q_gradient(pf, theta_old, theta_i)) == bits(loop)


def formula_pass(pf, theta_old, theta_i):
    """The pass of gradient_at (theta_old = theta_i) and em_q_gradient as
    it was written before the one-carrier lift: the divided quotients at
    theta_i, a WeightedGraph of the tables at theta_old, then compute_zh."""
    quotients = divided_quotients(pf.tables_at(theta_i), pf.grads_at(theta_i))
    return compute_zh(WeightedGraph(pf.graph_with(pf.tables_at(theta_old)), quotients))


def affine_with_zeros(rng, dim):
    """A random affine tree whose tables hold zeros of either sign, with
    zero gradients of either sign under them, and -0.0 gradient entries."""
    g, _ = random_tree(rng, max_vars=6, min_value=0.5, max_value=2.0)
    base = [f.values.copy() for f in g.factors]
    coeffs = [rng.uniform(-0.1, 0.1, (dim, t.size)) for t in base]
    for b, c in zip(base, coeffs):
        zero = rng.random(b.size) < 0.25
        b[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
        c[:, zero] = rng.choice([0.0, -0.0], (dim, int(zero.sum())))
        c[:, rng.random(b.size) < 0.2] = -0.0
    return ParametricFactorSet.affine([(v.id, v.cardinality) for v in g.variables],
                                      [f.scope for f in g.factors], base, coeffs)


class TestOneCarrierEqualsTheFormula:
    """gradient_at and em_q_gradient, which divide and lift in one carrier,
    against the divided quotients lifted by WeightedGraph, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_gradient(self, rng, dim):
        for trial in range(8):
            pf = (random_affine_tree if trial % 2 else affine_with_zeros)(rng, dim)
            theta = rng.uniform(-0.5, 0.5, dim)
            res = formula_pass(pf, theta, theta)
            assert bits(gradient_at(pf, theta)) == bits(res.H * math.exp(res.log_scale))

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_em_q_gradient(self, rng, dim):
        for trial in range(8):
            pf = (random_affine_tree if trial % 2 else affine_with_zeros)(rng, dim)
            theta_old, theta_i = rng.uniform(-0.5, 0.5, (2, dim))
            res = formula_pass(pf, theta_old, theta_i)
            with np.errstate(over="ignore"):
                expected = np.ldexp(res.H, res.exponent)
            assert bits(em_q_gradient(pf, theta_old, theta_i)) == bits(expected)

    def test_one_pass_per_call(self, rng, monkeypatch):
        # the benchmark's tracer counts passes as calls of learning.compute_zh,
        # and runs as calls of entropy.run
        calls = {"compute_zh": 0, "run": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(learning, "compute_zh", counted("compute_zh", learning.compute_zh))
        monkeypatch.setattr(entropy, "run", counted("run", entropy.run))
        pf = random_affine_tree(rng, 3)
        theta = rng.uniform(-0.5, 0.5, 3)
        tables = pf.tables_at(theta)
        u = [rng.uniform(0.5, 1.5, t.size) for t in per_factor(pf.structure_graph(), tables)]
        form = linear_form_of(pf, tables, u, u, rng.normal(size=3))
        for use in (lambda: gradient_at(pf, theta), lambda: em_linear_step(form),
                    lambda: em_q_gradient(pf, theta, -theta)):
            before = dict(calls)
            use()
            assert calls == {k: n + 1 for k, n in before.items()}


def learn_grad_tree(rng, n=1000, card=3, dim=8):
    """The benchmark's learn-grad shape: a random n-variable tree of a
    prior and n - 1 conditional tables, affine in a dim-component theta,
    each coefficient at most 5% of its entry."""
    parent = [0] + [int(rng.integers(i)) for i in range(1, n)]
    base = [rng.dirichlet(np.ones(card))] + [
        rng.dirichlet(np.ones(card), card).ravel() for _ in range(1, n)]
    return ParametricFactorSet.affine(
        [(f"x{i}", card) for i in range(n)],
        [("x0",)] + [(f"x{parent[i]}", f"x{i}") for i in range(1, n)],
        base, [b * rng.uniform(-0.05, 0.05, (dim, b.size)) for b in base])


def test_learn_grad_gradient_allocates_one_carrier(rng):
    # tracemalloc peaks of gradient_at, once its plans are compiled, over
    # its (9, 8994) carrier on this tree: 3.27 with a copy of the gradient
    # tables and the quotients apart from the carrier, 2.38 with the
    # quotients divided and lifted in it (3.14 and 2.25 on another seed)
    pf = learn_grad_tree(rng)
    theta = rng.uniform(-1.0, 1.0, pf.dim)
    grad = gradient_at(pf, theta)
    carrier = np.empty((pf.dim + 1, pf.structure_graph().values.size))
    _, peak = traced_peak(gradient_at, pf, theta)
    assert peak <= 2.5 * carrier.nbytes
    # the gradient tables grads_at returns are the caller's to write
    pf.grads_at(theta)[...] = 1.0
    assert bits(gradient_at(pf, theta)) == bits(grad)


@pytest.mark.filterwarnings("error")
def test_overflowing_quotient_is_undefined():
    # 1e10 / 1e-300 overflows: a typed error naming the factor, with no
    # floating-point warning before it (was a RuntimeWarning, then a
    # ValueError); the true gradient, 1e10, is representable
    pf = ParametricFactorSet.affine([("x", 2), ("y", 2)], [("x",), ("y",)],
                                    [[1.0, 1.0], [1e-300, 1.0]], [[[0.0, 0.0]], [[1e10, 0.0]]],
                                    factor_ids=["fx", "fy"])
    with pytest.raises(UndefinedQuotient, match="^factor 'fy': the quotient"):
        gradient_at(pf, [0.0])
    with pytest.raises(UndefinedQuotient, match="^factor 'fy': the quotient"):
        em_q_gradient(pf, [0.0], [0.0])


class TestPastFloatRange:
    """The 1200-variable heap tree: log2 Z = 1200 + 1199 log2 1.5 = 1901.4,
    past float range, so totals come back as mantissas with an exponent."""

    n = 1200
    log2_z = 1200 + 1199 * np.log2(1.5)

    def tree_set(self, **kw):
        g = heap_tree(self.n)
        return g, dict(variables=[(v.id, v.cardinality) for v in g.variables],
                       scopes=[f.scope for f in g.factors],
                       factor_ids=[f.id for f in g.factors], **kw)

    def test_em_linear_step(self):
        # u = 2 and v = 1 everywhere: H_a = 2 H_b exactly, theta_new = -2
        g, kw = self.tree_set()
        pf = ParametricFactorSet.linear_form(
            tables=[f.values for f in g.factors],
            u=[np.full(4, 2.0)] * len(g.factors),
            v=[np.ones(4)] * len(g.factors),
            lam=[1.0], **kw,
        )
        res = em_linear_step(pf)
        assert res.theta_new.tolist() == [-2.0]
        assert res.h_a == 2.0 * res.h_b
        assert res.exponent > 1024
        # H_b = (n - 1) Z: every assignment scores n - 1
        log2_h_b = np.log2(res.h_b) + res.exponent
        assert_close(log2_h_b, np.log2(self.n - 1) + self.log2_z, tol=1e-14)
        assert res.residual == 0.0

    def test_em_q_gradient(self):
        # tables 1.5 (1 + eps theta): every quotient is eps at theta = 0, so
        # the surrogate gradient is (n - 1) eps Z, back in float range
        eps = 1e-300
        g, kw = self.tree_set()
        pf = ParametricFactorSet.affine(
            base_tables=[f.values for f in g.factors],
            coeff_tables=[eps * f.values[None, :] for f in g.factors], **kw,
        )
        q = em_q_gradient(pf, [0.0], [0.0])
        expected = np.log2(self.n - 1) + np.log2(eps) + self.log2_z
        assert np.isfinite(q).all()
        assert_close(np.log2(q[0]), expected, tol=1e-14)

    def test_gradient_overflow_is_an_error(self):
        # the gradient (n - 1) Z is past float range too: exp(log_scale) raises
        # OverflowError, where an unrescaled pass returned NaN
        g, kw = self.tree_set()
        pf = ParametricFactorSet.affine(
            base_tables=[f.values for f in g.factors],
            coeff_tables=[f.values[None, :] for f in g.factors], **kw,
        )
        with pytest.raises(OverflowError):
            gradient_at(pf, [0.0])


def two_factor_set(cards=(2, 3), scope=("a", "b"), factor_ids=("f", "g")):
    return ParametricFactorSet(
        [("a", cards[0]), ("b", cards[1])], [("a",), scope], 1, factor_ids=list(factor_ids)
    )


class TestSharedStructure:
    """Sets with equal variables, scopes and factor ids share one validated
    structure and its level plans, for as long as one of them lives."""

    @pytest.mark.parametrize("explicit_ids", [False, True])
    def test_fresh_linear_form_compiles_no_plan(self, rng, explicit_ids):
        # a gradient request, then an EM step on a linear form built fresh
        # over the gradient set's variables and scopes
        g, _ = random_tree(rng, max_vars=6, min_value=0.5, max_value=2.0)
        ids = {"factor_ids": [f.id for f in g.factors]} if explicit_ids else {}
        base = [f.values for f in g.factors]
        pf = ParametricFactorSet.affine(
            [(v.id, v.cardinality) for v in g.variables], [f.scope for f in g.factors],
            base, [rng.uniform(-0.1, 0.1, (3, t.size)) for t in base], **ids,
        )
        theta = rng.uniform(-0.5, 0.5, 3)
        gradient_at(pf, theta)
        structure = pf.structure_graph()
        plans = dict(structure.plans)
        tables = pf.tables_at(theta)
        form = ParametricFactorSet.linear_form(
            pf.variables, pf.scopes, tables, [rng.uniform(-0.5, 1.5, t.size) for t in tables],
            [rng.uniform(0.5, 1.5, t.size) for t in tables], rng.normal(size=3), **ids,
        )
        assert form.structure_graph() is structure
        em_linear_step(form)
        assert structure.plans.keys() == plans.keys()
        assert all(structure.plans[k] is plans[k] for k in plans)

    def test_equal_content_shares(self):
        assert two_factor_set().structure_graph() is two_factor_set().structure_graph()

    @pytest.mark.parametrize("change", [
        {"cards": (2, 2)}, {"scope": ("b", "a")}, {"factor_ids": ("f", "h")},
    ], ids=["cardinality", "scope-order", "factor-ids"])
    def test_differing_content_does_not_share(self, change):
        kept = two_factor_set()
        other = two_factor_set(**change)
        assert other.structure_graph() is not kept.structure_graph()
        assert other.structure_graph().checked

    def test_entry_released_with_the_last_set(self):
        pf = two_factor_set(factor_ids=("released", "too"))
        key = (tuple(v.id for v in pf.variables), tuple(v.cardinality for v in pf.variables),
               tuple(pf.scopes), tuple(pf.factor_ids))
        structure = weakref.ref(pf.structure_graph())
        assert learning._STRUCTURES[key] is structure()
        del pf
        gc.collect()
        assert structure() is None
        assert key not in learning._STRUCTURES


class TestAffineTables:
    def test_tables_and_grads_match_per_factor(self, rng):
        # base + theta @ coeffs over all factors at once sums in another
        # order than one product per factor; measured over 2000 random sets
        # (dim 1-8, 1-5 factors of 1-9 entries) the difference stayed below
        # 1.2 eps times |base_k| + |theta| @ |coeffs_k|, and on the
        # 1000-factor, dim-8 benchmark tree 15-23 of 8994 entries differ,
        # by at most 1 ulp
        eps = np.finfo(float).eps
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            sizes = rng.integers(1, 10, int(rng.integers(1, 6)))
            base = [rng.uniform(0.5, 2.0, n) for n in sizes]
            coeffs = [rng.uniform(-1.0, 1.0, (dim, n)) for n in sizes]
            pf = ParametricFactorSet.affine(
                [(f"x{k}", int(n)) for k, n in enumerate(sizes)],
                [(f"x{k}",) for k in range(len(sizes))], base, coeffs,
            )
            theta = rng.uniform(-1.0, 1.0, dim)
            structure = pf.structure_graph()
            for t, b, c in zip(per_factor(structure, pf.tables_at(theta)), base, coeffs):
                bound = 2 * eps * (np.abs(b) + np.abs(theta) @ np.abs(c))
                assert (np.abs(t - (b + theta @ c)) <= bound).all()
            grads = pf.grads_at(theta)
            assert all(np.array_equal(g, c) for g, c in zip(per_factor(structure, grads), coeffs))
            grads[...] = 0.0
            assert np.array_equal(pf.grads_at(theta), np.concatenate(coeffs, axis=1))


class TestMismatchedTables:
    """Per-factor tables are counted and sized where the set is built, and
    the error names the factor."""

    args = ([("x", 2), ("y", 2)], [("x",), ("y",)], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("count, match", [
        (1, "1 u tables for 2 factors: factor 'p1' has none"),
        (3, "3 u tables for 2 factors"),
    ])
    def test_uv_count(self, count, match):
        # three tables used to be cut to two silently, one to raise IndexError
        with pytest.raises(ScopeMismatch, match=match):
            ParametricFactorSet.linear_form(
                *self.args, [[1.0, 1.0]] * count, [[1.0, 1.0]] * count, [1.0]
            )

    def test_v_length(self):
        with pytest.raises(ScopeMismatch, match="factor 'p1': v table length 3"):
            ParametricFactorSet.linear_form(
                *self.args, [[1.0, 1.0]] * 2, [[1.0, 1.0], [1.0, 1.0, 1.0]], [1.0]
            )

    @pytest.mark.parametrize("count", [1, 3])
    def test_coefficient_count(self, count):
        with pytest.raises(ScopeMismatch, match=f"{count} coefficient tables for 2 factors"):
            ParametricFactorSet.affine(*self.args, [[[1.0, 0.0]]] * count)

    def test_coefficient_length(self):
        with pytest.raises(ScopeMismatch, match="factor 'p0': coefficient table length 3"):
            ParametricFactorSet.affine(*self.args, [[[1.0, 0.0, 0.0]], [[1.0, 0.0]]])

    def test_base_table_length(self):
        with pytest.raises(ScopeMismatch, match="factor 'p1': base table length 1"):
            ParametricFactorSet.affine(self.args[0], self.args[1], [[1.0, 2.0], [3.0]],
                                       [[[1.0, 0.0]]] * 2)

    @pytest.mark.parametrize("shapes, factor", [
        # the lengths sum to the total: once read as [8., 8.] without a check
        (((2, 1), (2, 5)), "p0"),
        # once a bare numpy broadcast error
        (((2, 2), (2, 3)), "p1"),
        # flat tables of dim * n entries are not read as (dim, n)
        (((4,), (8,)), "p0"),
    ])
    def test_gradient_table_length(self, shapes, factor):
        pf = ParametricFactorSet(
            [("a", 2), ("b", 2)], [("a",), ("a", "b")], 2,
            lambda th: [np.ones(2), np.ones(4)],
            lambda th: [np.ones(shape) for shape in shapes],
        )
        with pytest.raises(ScopeMismatch, match=f"factor '{factor}': gradient table length"):
            pf.grads_at(np.zeros(2))
        with pytest.raises(ScopeMismatch, match=f"factor '{factor}'"):
            gradient_at(pf, np.zeros(2))

    def test_lam_needs_dim_components(self):
        # a 1-component lam once gave a 3-dimensional model a 1-component step
        with pytest.raises(ValueError, match="lam has 1 components, model has 3"):
            ParametricFactorSet([("x", 2)], [("x",)], 3, u=[[1.0, 2.0]], v=[[1.0, 1.0]],
                                lam=[1.0], base_tables=[[0.5, 0.5]])


class TestNonFiniteTables:
    """Tables laid out for a pass are checked like validated tables: an
    entry that is not finite raises OutOfDomain naming it."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_affine_base_tables(self, bad):
        # gradient_at once returned [nan] for a base table [1, inf]
        pf = ParametricFactorSet.affine([("x", 2)], [("x",)], [[1.0, bad]], [[[1.0, 0.0]]])
        text = f"^factor 'p0': table entry 1 is {bad}, not a finite number$"
        for use in (lambda: gradient_at(pf, [0.5]),
                    lambda: em_q_gradient(pf, [0.5], [0.25])):
            with pytest.raises(OutOfDomain, match=text):
                use()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_linear_form_tables(self, bad):
        # em_linear_step once returned theta_new = [nan]
        form = ParametricFactorSet.linear_form(
            [("x", 2), ("y", 2)], [("x",), ("x", "y")], [[1.0, 2.0], [1.0, 1.0, bad, 1.0]],
            [[1.0, 2.0], [1.0] * 4], [[1.0, 1.0], [1.0] * 4], [1.0])
        with pytest.raises(OutOfDomain, match=f"^factor 'p1': table entry 2 is {bad},"):
            em_linear_step(form)

    def test_tables_at_the_evaluation_point(self):
        # finite coefficients, but theta carries the table past float range
        pf = ParametricFactorSet.affine([("x", 2)], [("x",)], [[1.0, 1.0]], [[[1e308, 0.0]]])
        with np.errstate(over="ignore"), pytest.raises(OutOfDomain,
                                                       match="^factor 'p0': table entry 0 is inf"):
            gradient_at(pf, [10.0])
