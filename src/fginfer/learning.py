"""Parameter estimation on tree models: closed-form EM steps and gradients.

Both tools ride on the same identity: running the engine with score tables
f and companion tables g returns H = sum_x prod_k f_k(x_k) * sum_k g_k(x_k),
so picking g to be a per-component score turns the pass into an
expectation. Companions with several columns, one (dim, total) array in
the graph's layout, give every column's H from one pass (the expectation
semiring, see :mod:`fginfer.semiring`), so each call below runs exactly
one pass.

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

A set's structure (variables, scopes and factor ids) is validated once and
shared: sets with equal structure, such as a fresh linear form built per
request over a gradient set's variables and scopes, hold one validated
graph from a module-level weak registry, with its cached level plans, so
an EM step after a gradient validates, schedules and compiles nothing.
The entry lives as long as some set holds it. Every table a set holds or
hands out is in the structure's layout, so the tables of an affine set at
theta are one matrix product for all factors.
"""

import copy
import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .entropy import WeightedGraph, compute_zh
from .errors import DegenerateMStep, UndefinedQuotient
from .graph import FactorGraph, VariableDecl, check_finite
from .propagation import fold_exponent

# validated structures by content: every set with the same variables,
# scopes and factor ids holds the same one, and an entry goes away with
# the last set that holds it. Two threads that miss at once each build a
# valid structure; the registry keeps the later one.
_STRUCTURES: "weakref.WeakValueDictionary[tuple, FactorGraph]" = weakref.WeakValueDictionary()


class ParametricFactorSet:
    """A fixed tree of factors whose tables depend on a parameter vector.

    Two data layers, either or both of which may be present:

    - callables: ``tables_at(theta)`` and ``grads_at(theta)`` evaluate the
      factor tables and their per-component parameter gradients anywhere;
      built from arbitrary functions or from affine coefficient tables.
    - linear form: tables at the previous parameter point plus u, v tables
      and the direction vector lam, feeding :func:`em_linear_step`.

    The structure is resolved and validated on construction (see
    :meth:`structure_graph`), and every table given to a constructor is
    laid out there (:meth:`~fginfer.graph.FactorGraph.lay_out`): ``u`` and
    ``v`` are the rows of one (2, total) array, ``base_tables`` a (total,)
    array, and ``lam`` must have ``dim`` components.
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
        self.factor_ids = list(factor_ids or _default_ids(len(self.scopes)))
        if len(self.factor_ids) != len(self.scopes):
            raise ValueError("factor_ids and scopes disagree in length")
        self._structure = s = _shared_structure(self.variables, self.scopes, self.factor_ids)
        self._tables_fn, self._grads_fn = tables_fn, grads_fn
        self._uv = uv = None if u is None and v is None else np.empty((2, s.values.size))
        self.u = None if u is None else s.lay_out(u, "u", into=uv[0])
        self.v = None if v is None else s.lay_out(v, "v", into=uv[1])
        self.lam = None if lam is None else np.asarray(lam, dtype=float).ravel()
        if self.lam is not None and self.lam.size != self.dim:
            raise ValueError(f"lam has {self.lam.size} components, model has {self.dim}")
        if not all(np.isfinite(x).all() for x in (self.u, self.v, self.lam) if x is not None):
            raise ValueError("u, v and lam must be finite")
        self.base_tables = None if base_tables is None else s.lay_out(base_tables, "base")

    @classmethod
    def affine(cls, variables, scopes, base_tables, coeff_tables, **kw):
        """Tables affine in theta: table_k(theta) = base_k + theta . coeffs_k.

        ``coeff_tables[k]`` has shape (dim, len(base_k)), or (len(base_k),)
        for dim 1; the gradient tables are the constant coefficients. The
        base tables are the theta = 0 point. Both are laid out once, as a
        (total,) and a (dim, total) array, so the tables at theta are one
        ``base + theta @ coeffs`` and the gradient tables one copy of
        ``coeffs``.
        """
        coeffs = [np.asarray(c, dtype=float) for c in coeff_tables]
        dims = {len(c) if c.ndim > 1 else 1 for c in coeffs}
        if len(dims) > 1:
            raise ValueError(f"coefficient tables disagree on dimension: {sorted(dims)}")
        pf = cls(variables, scopes, dims.pop() if dims else 1, base_tables=base_tables, **kw)
        base = pf.base_tables
        coeffs = pf._structure.lay_out(coeffs, "coefficient", pf.dim)

        def tables_fn(theta):
            return base + np.asarray(theta, dtype=float).ravel() @ coeffs

        def grads_fn(theta):
            return coeffs.copy()

        pf._tables_fn, pf._grads_fn = tables_fn, grads_fn
        return pf

    @classmethod
    def linear_form(cls, variables, scopes, tables, u, v, lam, **kw):
        """Linear-gradient family data: f at the old point plus u, v, lam."""
        return cls(variables, scopes, np.asarray(lam).size, u=u, v=v, lam=lam,
                   base_tables=tables, **kw)

    @property
    def has_gradients(self) -> bool:
        return self._grads_fn is not None

    def tables_at(self, theta) -> np.ndarray:
        """The tables at theta, one (total,) array."""
        if self._tables_fn is None:
            raise ValueError("this parametric set carries only linear-form data")
        return self._structure.lay_out(self._tables_fn(theta), "value")

    def grads_at(self, theta) -> np.ndarray:
        """The gradient tables at theta, one (dim, total) array: row j
        holds every table's derivative in theta_j."""
        if self._grads_fn is None:
            raise ValueError("this parametric set carries no gradient tables")
        return self._structure.lay_out(self._grads_fn(theta), "gradient", self.dim)

    def structure_graph(self) -> FactorGraph:
        """The underlying validated tree, with placeholder zero tables.

        Sets whose variables (with their cardinalities), scopes (in order)
        and factor ids are equal share one structure, looked up by that
        content when the set is built, so they share its validated
        structure arrays and its cached level plans. The structure is read
        only once validated, and like any :class:`~fginfer.graph.FactorGraph`
        safe to share between threads, except while a plan is compiled.
        """
        return self._structure

    def graph_with(self, tables) -> FactorGraph:
        """The structure graph with these tables laid out as its
        ``values``. It shares the validated structure arrays and the
        cached level plans of :meth:`structure_graph`; only the table
        lengths and entries are checked, and an entry that is not finite
        raises OutOfDomain as :func:`~fginfer.graph.validate` does."""
        graph = copy.copy(self._structure)
        graph.values = self._structure.lay_out(tables, "value")
        check_finite(graph)
        return graph


@functools.lru_cache(maxsize=16)
def _default_ids(n: int) -> tuple:
    return tuple(f"p{k}" for k in range(n))


def _shared_structure(variables, scopes, factor_ids) -> FactorGraph:
    """The validated structure graph of this content, from the registry when
    a live set already holds it; the key's str and int tuples hash in C."""
    ids, cards = tuple(v.id for v in variables), tuple(v.cardinality for v in variables)
    key = (ids, cards, tuple(scopes), tuple(factor_ids))
    structure = _STRUCTURES.get(key)
    if structure is None:
        card_of = dict(zip(ids, cards))
        # an unknown name gets length 1 here and is reported by validation
        lengths = [math.prod(card_of.get(n, 1) for n in scope) for scope in scopes]
        structure = _STRUCTURES[key] = FactorGraph.from_arrays(
            ids, cards, factor_ids, scopes, np.zeros(sum(lengths)), lengths).ensure_checked()
    return structure


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


def _point(pf: ParametricFactorSet, theta, name: str) -> np.ndarray:
    """``theta`` as a flat array of ``pf.dim`` floats, else ValueError."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != pf.dim:
        raise ValueError(f"{name} has {theta.size} components, model has {pf.dim}")
    return theta


def _quotient_companions(pf: ParametricFactorSet, f: np.ndarray, gt: np.ndarray,
                         what: str) -> np.ndarray:
    """The g tables grad/value, one (dim, total) array from the (total,)
    tables and (dim, total) gradients, checking the 0-denominator rule, in
    one allocation: a fresh page faults in at ~1.3 us (2-vCPU VM)."""
    zero = f == 0.0
    bad = zero & (gt != 0.0).any(axis=0)
    if bad.any():
        raise UndefinedQuotient(
            f"factor {pf.structure_graph().factor_at(bad.argmax())!r} has a zero {what}"
            " value with a nonzero gradient entry"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = gt / f
    np.copyto(out, 0.0, where=zero)
    return out


def gradient_at(pf: ParametricFactorSet, theta, rescale: bool = True) -> np.ndarray:
    """Exact gradient of the total weight p(theta), every component from one
    engine pass.

    Component j is the H-value with f = tables at theta and companion
    column g_k = (d p_k / d theta_j) / p_k. Raises UndefinedQuotient where a
    zero table value carries a nonzero gradient, and OverflowError once
    the totals overflow (ROADMAP item 1 makes that exact). ``rescale`` has
    no effect: the benchmark still passes it, and item 1 removes it.
    """
    theta = _point(pf, theta, "theta")
    values = pf.tables_at(theta)
    companions = _quotient_companions(pf, values, pf.grads_at(theta), "table")
    res = compute_zh(WeightedGraph(pf.graph_with(values), companions))
    return res.H * math.exp(res.log_scale)


def em_linear_step(pf: ParametricFactorSet, theta_old=None) -> EmStepResult:
    """Closed-form M-step for the linear-gradient family.

    Uses the tables at the previous point: evaluated at ``theta_old`` when
    it is given, else ``base_tables``. Computes H_a with g = u
    and H_b with g = v in one pass, and returns
    theta_new = -(H_a / H_b) * lam from the ratio of the mantissas, in
    which 2^E cancels exactly. Totals past float range are reported as
    mantissas with their ``exponent``. Raises DegenerateMStep when the
    denominator is 0, subnormal, or below 1e-12 of the numerator; the ratio
    of two normal mantissas holds its precision at any scale. Raises
    ValueError when ``theta_old`` is given but the set has no table
    callables or theta has the wrong size.
    """
    if pf.u is None or pf.v is None or pf.lam is None:
        raise ValueError("em_linear_step needs the linear-form tables u, v, and lam")
    if theta_old is not None:
        tables = pf.tables_at(_point(pf, theta_old, "theta_old"))
    elif pf.base_tables is not None:
        tables = pf.base_tables
    else:
        raise ValueError("no tables at the previous point: pass theta_old or base tables")
    res = compute_zh(WeightedGraph(pf.graph_with(tables), pf._uv))
    (h_a, h_b), exponent = fold_exponent(res.H.tolist(), res.exponent)
    if abs(h_b) < 2.0 ** -1022 or abs(h_b) < 1e-12 * abs(h_a):
        raise DegenerateMStep(
            f"denominator H_b = {h_b!r} is subnormal or vanishes against H_a = {h_a!r};"
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
    genuinely linear family this vanishes. Raises ValueError when either
    point has the wrong size.
    """
    theta_old, theta_i = _point(pf, theta_old, "theta_old"), _point(pf, theta_i, "theta_i")
    f_i = pf.tables_at(theta_i)
    companions = _quotient_companions(pf, f_i, pf.grads_at(theta_i), "evaluation-point")
    res = compute_zh(WeightedGraph(pf.graph_with(pf.tables_at(theta_old)), companions))
    with np.errstate(over="ignore"):
        return np.ldexp(res.H, res.exponent)
