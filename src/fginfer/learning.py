"""Parameter estimation on tree models: closed-form EM steps and gradients.

Both tools ride on the same identity: running the engine with score tables
f and companion tables g returns H = sum_x prod_k f_k(x_k) * sum_k g_k(x_k),
so picking g to be a per-component score turns the pass into an
expectation. Companions with several columns, one (dim, n_k) array per
factor, give every column's H from one pass (the expectation semiring, see
:mod:`fginfer.semiring`), so each call below runs exactly one pass.

Gradient of the total weight p(theta) = sum_x prod_k p_k(x_k, theta):
component j is the H-value with f at theta and g_k = (d p_k / d theta_j) / p_k,
which is exact (the product rule), not a finite-difference estimate.

Closed-form M-step for the linear family: when the gradient of log p_k is
linear in the parameter, grad log p_k = v_k(x_k) * theta + u_k(x_k) * lam
for a fixed direction lam, the stationarity condition of the usual EM
surrogate collapses to a scalar equation with solution

    theta_new = -(H_a / H_b) * lam

where H_a is the H-value with g_k = u_k and H_b the one with g_k = v_k,
both with f at the previous parameter point; one pass with the two
columns [u_k; v_k] gives both. The reported residual substitutes
theta_new back into that scalar equation. Every pass is rescaled (see
:mod:`fginfer.propagation`), so H_a / H_b stays exact when the totals
themselves leave float range.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .entropy import WeightedGraph, compute_zh
from .errors import DegenerateMStep, ScopeMismatch, UndefinedQuotient
from .graph import FactorGraph, FactorTable, VariableDecl
from .propagation import fold_exponent


class ParametricFactorSet:
    """A fixed tree of factors whose tables depend on a parameter vector.

    Two data layers, either or both of which may be present:

    - callables: ``tables_at(theta)`` and ``grads_at(theta)`` evaluate the
      factor tables and their per-component parameter gradients anywhere;
      built from arbitrary functions or from affine coefficient tables.
    - linear form: tables at the previous parameter point plus u, v tables
      and the direction vector lam, feeding :func:`em_linear_step`.
    """

    def __init__(self, variables, scopes, dim, tables_fn=None, grads_fn=None,
                 factor_ids=None, u=None, v=None, lam=None, base_tables=None):
        self.variables = [
            v_ if isinstance(v_, VariableDecl) else VariableDecl(*v_) for v_ in variables
        ]
        self.scopes = [tuple(s) for s in scopes]
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("parameter dimension must be >= 1")
        self.factor_ids = list(factor_ids) if factor_ids else [
            f"p{k}" for k in range(len(self.scopes))
        ]
        if len(self.factor_ids) != len(self.scopes):
            raise ValueError("factor_ids and scopes disagree in length")
        self._tables_fn = tables_fn
        self._grads_fn = grads_fn
        self.u = None if u is None else [np.asarray(t, dtype=float).ravel() for t in u]
        self.v = None if v is None else [np.asarray(t, dtype=float).ravel() for t in v]
        self.lam = None if lam is None else np.asarray(lam, dtype=float).ravel()
        linear = (self.u or []) + (self.v or []) + ([] if lam is None else [self.lam])
        if linear and not np.isfinite(np.concatenate(linear)).all():
            raise ValueError("u, v and lam must be finite")
        self.base_tables = None if base_tables is None else [
            np.asarray(t, dtype=float).ravel() for t in base_tables
        ]
        self._structure: FactorGraph | None = None

    @classmethod
    def from_callables(cls, variables, scopes, dim, tables_fn, grads_fn, **kw):
        return cls(variables, scopes, dim, tables_fn=tables_fn, grads_fn=grads_fn, **kw)

    @classmethod
    def affine(cls, variables, scopes, base_tables, coeff_tables, **kw):
        """Tables affine in theta: table_k(theta) = base_k + theta . coeffs_k.

        ``coeff_tables[k]`` has shape (dim, len(base_k)); the gradient
        tables are the constant coefficients. The base tables are the
        theta = 0 point.
        """
        base = [np.asarray(t, dtype=float).ravel() for t in base_tables]
        coeffs = [np.asarray(c, dtype=float).reshape(-1, base[k].size)
                  for k, c in enumerate(coeff_tables)]
        dims = {c.shape[0] for c in coeffs}
        if len(dims) != 1:
            raise ValueError(f"coefficient tables disagree on dimension: {sorted(dims)}")
        dim = dims.pop()

        def tables_fn(theta):
            theta = np.asarray(theta, dtype=float).ravel()
            return [base[k] + theta @ coeffs[k] for k in range(len(base))]

        def grads_fn(theta):
            return [c.copy() for c in coeffs]

        return cls(variables, scopes, dim, tables_fn=tables_fn, grads_fn=grads_fn,
                   base_tables=base, **kw)

    @classmethod
    def linear_form(cls, variables, scopes, tables, u, v, lam, **kw):
        """Linear-gradient family data: f at the old point plus u, v, lam."""
        return cls(variables, scopes, np.asarray(lam).size, u=u, v=v, lam=lam,
                   base_tables=tables, **kw)

    @property
    def has_gradients(self) -> bool:
        return self._grads_fn is not None

    def tables_at(self, theta) -> list:
        if self._tables_fn is None:
            raise ValueError("this parametric set carries only linear-form data")
        return [np.asarray(t, dtype=float).ravel() for t in self._tables_fn(theta)]

    def grads_at(self, theta) -> list:
        """Per-factor gradient tables, each of shape (dim, table length)."""
        if self._grads_fn is None:
            raise ValueError("this parametric set carries no gradient tables")
        out = []
        for k, gt in enumerate(self._grads_fn(theta)):
            gt = np.asarray(gt, dtype=float)
            if gt.ndim == 1:
                gt = gt[None, :]
            if gt.shape[0] != self.dim:
                raise ValueError(
                    f"factor {self.factor_ids[k]!r}: gradient tables have"
                    f" {gt.shape[0]} components, expected {self.dim}"
                )
            out.append(gt)
        return out

    def structure_graph(self) -> FactorGraph:
        """The underlying validated tree, with placeholder zero tables."""
        if self._structure is None:
            cards = {v.id: v.cardinality for v in self.variables}
            factors = []
            for k, scope in enumerate(self.scopes):
                size = int(np.prod([cards[n] for n in scope]))
                factors.append(FactorTable(self.factor_ids[k], scope, np.zeros(size)))
            self._structure = FactorGraph(self.variables, factors).ensure_checked()
        return self._structure

    def graph_with(self, tables) -> FactorGraph:
        """The structure graph with these tables. It shares the validated
        adjacency and the cached level plans of :meth:`structure_graph`;
        only the table lengths are checked."""
        structure = self.structure_graph()
        if len(tables) != len(structure.factors):
            raise ScopeMismatch(f"{len(tables)} tables for {len(structure.factors)} factors")
        factors = []
        for f, t in zip(structure.factors, tables):
            t = np.asarray(t, dtype=float).ravel()
            if t.size != f.values.size:
                raise ScopeMismatch(
                    f"factor {f.id!r}: table has {t.size} values, scope needs {f.values.size}"
                )
            factors.append(FactorTable(f.id, f.scope, t))
        graph = copy.copy(structure)
        graph.factors = factors
        return graph


@dataclass
class EmStepResult:
    """A closed-form M-step. ``h_a``, ``h_b`` and ``residual`` are
    mantissas of the totals times 2^``exponent``; ``exponent`` is 0
    whenever the totals themselves are finite normal floats."""

    theta_new: np.ndarray
    h_a: float
    h_b: float
    residual: float
    exponent: int = 0


def _split(flat: np.ndarray, sizes: list) -> list:
    """Consecutive column blocks of ``flat``, one per size."""
    ends = np.cumsum(sizes).tolist()
    return [flat[:, a:b] for a, b in zip([0] + ends, ends)]


def _quotient_companions(values: list, grads: list, what: str) -> list:
    """Stacked g tables grad/value, one (dim, n_k) array per factor,
    checking the 0-denominator rule."""
    f = np.concatenate(values)
    gt = np.concatenate(grads, axis=1)
    zero = f == 0.0
    bad = zero & (gt != 0.0).any(axis=0)
    if bad.any():
        k = int(np.searchsorted(np.cumsum([v.size for v in values]), bad.argmax(), "right"))
        raise UndefinedQuotient(
            f"factor {k} has a zero {what} value with a nonzero gradient entry"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(zero, 0.0, gt / np.where(zero, 1.0, f))
    return _split(q, [v.size for v in values])


def gradient_at(pf: ParametricFactorSet, theta, rescale: bool = True) -> np.ndarray:
    """Exact gradient of the total weight p(theta), every component from one
    engine pass.

    Component j is the H-value with f = tables at theta and companion
    column g_k = (d p_k / d theta_j) / p_k. Raises UndefinedQuotient where a
    zero table value carries a nonzero gradient, and OverflowError once
    the totals overflow (ROADMAP item 1 makes that exact). ``rescale`` has
    no effect: the benchmark still passes it, and item 1 removes it.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != pf.dim:
        raise ValueError(f"theta has {theta.size} components, model has {pf.dim}")
    values = pf.tables_at(theta)
    companions = _quotient_companions(values, pf.grads_at(theta), "table")
    wg = WeightedGraph(pf.graph_with(values), companions)
    return compute_zh(wg).scaled_h()


def grad_ascent_step(pf: ParametricFactorSet, theta, step: float = 1.0) -> np.ndarray:
    """One ascent step theta + step * grad p(theta)."""
    theta = np.asarray(theta, dtype=float).ravel()
    return theta + step * gradient_at(pf, theta)


def em_linear_step(pf: ParametricFactorSet, theta_old=None) -> EmStepResult:
    """Closed-form M-step for the linear-gradient family.

    Uses the tables at the previous point (``base_tables``, or evaluated at
    ``theta_old`` when callables are available), computes H_a with g = u
    and H_b with g = v in one pass, and returns
    theta_new = -(H_a / H_b) * lam from the ratio of the mantissas, in
    which 2^E cancels exactly. Totals past float range are reported as
    mantissas with their ``exponent``. Raises DegenerateMStep when the
    denominator vanishes relative to the numerator, or both reported
    totals are numerically zero.
    """
    if pf.u is None or pf.v is None or pf.lam is None:
        raise ValueError("em_linear_step needs the linear-form tables u, v, and lam")
    if pf.base_tables is not None:
        tables = pf.base_tables
    elif theta_old is not None:
        tables = pf.tables_at(theta_old)
    else:
        raise ValueError("no tables at the previous point: pass theta_old or base tables")
    for k, t in enumerate(tables):
        if pf.u[k].size != t.size or pf.v[k].size != t.size:
            raise ValueError(f"factor {pf.factor_ids[k]!r}: u/v length differs from table")
    uv = np.vstack((np.concatenate(pf.u), np.concatenate(pf.v)))
    wg = WeightedGraph(pf.graph_with(tables), _split(uv, [t.size for t in tables]))
    res = compute_zh(wg)
    (h_a, h_b), exponent = fold_exponent(res.H.tolist(), res.exponent)
    if (abs(h_a) < 1e-300 and abs(h_b) < 1e-300) or abs(h_b) < 1e-12 * abs(h_a):
        raise DegenerateMStep(
            f"denominator H_b = {h_b!r} vanishes against H_a = {h_a!r};"
            " no rank-one update exists"
        )
    ratio = h_a / h_b
    theta_new = -ratio * pf.lam
    residual = abs(h_a + h_b * -ratio)
    return EmStepResult(theta_new=theta_new, h_a=h_a, h_b=h_b, residual=residual,
                        exponent=exponent)


def em_q_gradient(pf: ParametricFactorSet, theta_old, theta_i) -> np.ndarray:
    """Gradient of the EM surrogate: expectations under the old point.

    f is evaluated at theta_old, the companion columns
    (d p_k / d theta_j) / p_k at theta_i, all in one pass whose exponent
    is folded back exactly; a component past float range reads
    +-inf. At a theta_new returned by :func:`em_linear_step` for a
    genuinely linear family this vanishes.
    """
    f_i = pf.tables_at(theta_i)
    companions = _quotient_companions(f_i, pf.grads_at(theta_i), "evaluation-point")
    res = compute_zh(WeightedGraph(pf.graph_with(pf.tables_at(theta_old)), companions))
    with np.errstate(over="ignore"):
        return np.ldexp(res.H, res.exponent)
