"""The `fg` command line tool.

Subcommands: validate, partition, marginal, entropy, em-step, grad, check.
Every command reads JSON documents, writes one line of JSON to stdout, and
exits 0 on success, 1 on parse or validation failures, 2 on runtime
failures (zero evidence, a non-finite total, degenerate M-step, undefined
gradient quotient).
Errors additionally print one human-readable line to stderr. The FG_SEED
environment variable fixes the random seed used by `check`.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import io as fgio
from .entropy import (
    WeightedGraph,
    compute_zh,
    derive_log2_companions,
    entropy_in_base,
    posterior_entropy,
)
from .errors import FactorGraphError, MissingDependency, NonFiniteTotal
from .graph import FactorGraph
from .hmm import HmmSpec, hmm_entropy, hmm_to_weighted_graph
from .learning import em_linear_step, gradient_at
from .oracle import (
    enumerate_entropy,
    enumerate_h,
    enumerate_marginal,
    enumerate_z,
)
from .propagation import fold_exponent, product_of_totals, run
from .semiring import SUM_PRODUCT, get_semiring

_CHECK_TOL = 1e-9
_LN2 = math.log(2.0)


class UsageError(FactorGraphError):
    """Bad command line: unknown flags, missing arguments, bad values."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; 2 is reserved for
    # runtime errors here, so raise and let main() map it to exit 1.
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):  # -0.5,1 is a value, as argparse takes -0.5
        return None if arg_string[1:2] in "0123456789." else super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fg", description="Exact inference on cycle-free factor graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    def graph_arg(sp):
        sp.add_argument("graph", help="path to a graph JSON document")

    sp = sub.add_parser("validate", help="check a graph document", parents=[])
    graph_arg(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("partition", help="total sum of the factor product")
    graph_arg(sp)
    sp.add_argument("--semiring", default="sum-product",
                    choices=["sum-product", "max-product", "boolean"])
    sp.add_argument("--root", default=None, help="root variable id")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("marginal", help="per-variable marginal vectors")
    graph_arg(sp)
    who = sp.add_mutually_exclusive_group(required=True)
    who.add_argument("--var", default=None, help="single variable id")
    who.add_argument("--all", action="store_true", help="every variable (two passes)")
    sp.add_argument("--semiring", default="sum-product",
                    choices=["sum-product", "max-product", "boolean"])
    sp.set_defaults(func=cmd_marginal)

    sp = sub.add_parser("entropy", help="partition function, H, and entropy")
    sp.add_argument("graph", nargs="?", default=None,
                    help="path to a graph JSON document with g tables")
    sp.add_argument("--hmm", default=None, metavar="FILE",
                    help="path to an HMM JSON document instead of a graph")
    sp.add_argument("--base", default="2", choices=["2", "e"])
    sp.add_argument("--root", default=None)
    sp.add_argument("--derive-g", action="store_true",
                    help="use log2 of the factor values as the companion tables")
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("em-step", help="closed-form M-step for linear-gradient families")
    graph_arg(sp)
    sp.add_argument("--theta", default=None,
                    help="comma-separated parameter point to evaluate the tables at")
    sp.set_defaults(func=cmd_em_step)

    sp = sub.add_parser("grad", help="gradient of the total sum, with ascent steps")
    graph_arg(sp)
    sp.add_argument("--theta", required=True, help="comma-separated parameter point")
    sp.add_argument("--step", type=float, default=1.0)
    sp.add_argument("--iters", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="stop early when no parameter moves more than this")
    sp.set_defaults(func=cmd_grad)

    sp = sub.add_parser("check", help="engine versus brute-force oracle")
    sp.add_argument("graph", nargs="?", default=None)
    sp.add_argument("--hmm", default=None, metavar="FILE")
    sp.add_argument("--seeds", type=int, default=0,
                    help="number of randomized refills of the document's tables")
    sp.set_defaults(func=cmd_check)

    return p


def _parse_theta(text: str, dim: int) -> np.ndarray:
    """--theta as an array of ``dim`` finite numbers; UsageError otherwise."""
    try:
        theta = np.asarray([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError:
        raise UsageError(f"--theta: not a comma-separated number list: {text!r}") from None
    if theta.size != dim:
        raise UsageError(f"--theta has {theta.size} components, model has {dim}")
    if not np.isfinite(theta).all():
        raise UsageError(f"--theta must be finite: {text!r}")
    return theta


def cmd_validate(args):
    try:
        pg = fgio.load_graph(args.graph)
        pg.graph.ensure_checked()
    except FactorGraphError as e:
        return 1, {"valid": False, "errors": [{"kind": e.kind, "detail": e.detail}]}
    return 0, {"valid": True, "errors": []}


def cmd_partition(args):
    pg = fgio.load_graph(args.graph)
    s = get_semiring(args.semiring)
    marginals, _ = run(pg.graph, s, root=args.root)
    (z,), exponent = fold_exponent(*product_of_totals(s, marginals))
    return 0, {"Z": z, "log_scale": exponent * _LN2}


def cmd_marginal(args):
    pg = fgio.load_graph(args.graph)
    s = get_semiring(args.semiring)
    if args.var is not None:
        marginals, _ = run(pg.graph, s, root=args.var)
        marginals = {args.var: marginals[args.var]}
    else:
        marginals, _ = run(pg.graph, s, two_pass=True)
    out, log_scale = {}, {}
    for vid, marg in marginals.items():
        out[vid], exponent = fold_exponent(marg.scores(), marg.exponent)
        log_scale[vid] = exponent * _LN2
    return 0, {"marginals": out, "log_scale": log_scale}


def cmd_entropy(args):
    if (args.graph is None) == (args.hmm is None):
        raise UsageError("entropy needs a graph document or --hmm, not both")
    if args.hmm is not None:
        res = hmm_entropy(fgio.load_hmm(args.hmm), rescale=True)
    else:
        pg = fgio.load_graph(args.graph)
        if args.derive_g:
            companions = derive_log2_companions(pg.graph)
        elif pg.has_all_companions():
            companions = pg.companions
        else:
            raise MissingDependency(
                "entropy needs a g table on every factor; add them to the"
                " document or pass --derive-g"
            )
        wg = WeightedGraph(pg.graph, companions)
        res = posterior_entropy(wg, root=args.root)
    return 0, {
        "Z": res.Z,
        "H": res.H,
        "entropy": entropy_in_base(res.entropy_bits, args.base),
        "base": args.base,
        "log_scale": res.log_scale,
    }


def cmd_em_step(args):
    pg = fgio.load_graph(args.graph)
    pf = pg.parametric
    if pf is None or pf.u is None:
        raise MissingDependency(
            "em-step needs a parametric block with u, v, and lambda tables"
        )
    theta_old = None
    if args.theta is not None:
        if not pf.has_gradients:
            raise MissingDependency("em-step --theta needs grad tables to evaluate"
                                    " the tables at theta")
        theta_old = _parse_theta(args.theta, pf.dim)
    step = em_linear_step(pf, theta_old=theta_old)
    return 0, {
        "H_a": step.h_a,
        "H_b": step.h_b,
        "theta_new": [float(x) for x in step.theta_new],
        "residual": step.residual,
        "log_scale": step.exponent * _LN2,
    }


def cmd_grad(args):
    pg = fgio.load_graph(args.graph)
    pf = pg.parametric
    if pf is None or not pf.has_gradients:
        raise MissingDependency(
            "grad needs a parametric block with grad coefficient tables"
        )
    theta = _parse_theta(args.theta, pf.dim)
    if args.iters < 1:
        raise UsageError("--iters must be >= 1")
    if not (math.isfinite(args.step) and math.isfinite(args.tol)):
        raise UsageError("--step and --tol must be finite")
    trajectory = [[float(x) for x in theta]]
    gradient = None
    for _ in range(args.iters):
        gradient = gradient_at(pf, theta)
        theta_next = theta + args.step * gradient
        trajectory.append([float(x) for x in theta_next])
        moved = float(np.max(np.abs(theta_next - theta))) if theta.size else 0.0
        theta = theta_next
        if moved <= args.tol:
            break
    out = {
        "gradient": [float(x) for x in gradient],
        "theta_next": [float(x) for x in theta],
    }
    if args.iters > 1:
        out["trajectory"] = trajectory
    return 0, out


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _worst(errors) -> float:
    """The largest error, NaN if any is: `main` reports NaN as NonFiniteTotal."""
    return float(np.max(errors))


def _check_graph(graph: FactorGraph, companions) -> float:
    """Worst relative disagreement between the engine and enumeration;
    NaN where a total is not finite."""
    marginals, _ = run(graph, SUM_PRODUCT, two_pass=True)
    # one marginal per component, at its label; the two-pass plan serves it
    roots, _ = run(graph, SUM_PRODUCT)
    errors = []
    for vid, marg in marginals.items():
        # a marginal covers its own component only; on a forest the other
        # components' totals scale it to the whole graph's
        own = graph.var_ids[graph.component[graph.var_index[vid]]]
        rest = {label: m for label, m in roots.items() if label != own}
        (others,), e = product_of_totals(SUM_PRODUCT, rest) if rest else ((1.0,), 0)
        errors += [_rel_err(math.ldexp(a * others, marg.exponent + e), float(b))
                   for a, b in zip(marg.scores(), enumerate_marginal(graph, vid))]
    # Z is the product over the components, as `fg partition` reports it
    (z,), exponent = product_of_totals(SUM_PRODUCT, roots)
    with np.errstate(over="ignore"):
        z_engine = float(np.ldexp(z, exponent))
    z_enumerated = enumerate_z(graph)
    errors.append(_rel_err(z_engine, z_enumerated))
    if companions is not None:
        res = compute_zh(WeightedGraph(graph, companions))
        errors += [_rel_err(math.ldexp(res.Z, res.exponent), z_enumerated),
                   _rel_err(math.ldexp(res.H, res.exponent), enumerate_h(graph, companions))]
    # the posterior-entropy leg only makes sense for nonnegative tables
    # with usable evidence; sum-product legs above cover the rest
    if (graph.values >= 0.0).all() and z_engine > 1e-300:
        post = posterior_entropy(WeightedGraph(graph, derive_log2_companions(graph)))
        errors.append(_rel_err(post.entropy_bits, enumerate_entropy(graph)))
    return _worst(errors)


def _check_hmm(h: HmmSpec) -> float:
    g = hmm_to_weighted_graph(h).graph
    res = hmm_entropy(h, rescale=True)
    return _worst([_rel_err(res.entropy_bits, enumerate_entropy(g)),
                   _rel_err(math.ldexp(res.Z, res.exponent), enumerate_z(g))])


def _refill_graph(graph: FactorGraph, rng) -> tuple[FactorGraph, np.ndarray]:
    """Same structure, fresh random positive tables and companions."""
    fresh = FactorGraph.from_arrays(graph.var_ids, graph.cards, graph.factor_ids, graph.scopes,
                                    rng.uniform(0.1, 2.0, graph.values.size),
                                    np.diff(graph.offsets))
    return fresh, rng.uniform(-2.0, 2.0, graph.values.size)


def _refill_hmm(h: HmmSpec, rng) -> HmmSpec:
    def stochastic(rows, cols):
        m = rng.uniform(0.1, 1.0, (rows, cols))
        return m / m.sum(axis=1, keepdims=True)

    s, o = h.num_states, h.num_symbols
    return HmmSpec(
        pi=stochastic(1, s)[0],
        transition=stochastic(s, s),
        emission=stochastic(s, o),
        observations=rng.integers(0, o, h.num_steps),
    )


def cmd_check(args):
    if (args.graph is None) == (args.hmm is None):
        raise UsageError("check needs a graph document or --hmm, not both")
    try:
        seed = int(os.environ.get("FG_SEED", "0"))
    except ValueError:
        seed = -1
    if seed < 0:
        raise UsageError("FG_SEED must be a nonnegative integer")
    if args.hmm is not None:
        h = fgio.load_hmm(args.hmm)
        errors = [_check_hmm(_refill_hmm(h, np.random.default_rng(seed + i)))
                  for i in range(args.seeds)] or [_check_hmm(h)]
    else:
        pg = fgio.load_graph(args.graph)
        pg.graph.ensure_checked()
        errors = [_check_graph(*_refill_graph(pg.graph, np.random.default_rng(seed + i)))
                  for i in range(args.seeds)] or [_check_graph(pg.graph, pg.companions)]
    worst = _worst(errors)
    ok = worst <= _CHECK_TOL
    return (0 if ok else 1), {"max_rel_err": worst, "pass": ok}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
                code, payload = args.func(args)
        except OverflowError:  # gradient_at's totals are past float range: an inf
            payload = math.inf
        try:
            text = fgio.dumps(payload)
        except ValueError:  # the one value JSON rejects here: inf or NaN
            # grad alone takes a theta and a step that can carry it there
            inputs = "the tables, theta or the step" if args.command == "grad" else "the tables"
            raise NonFiniteTotal(f"a result is past float range: scale {inputs} down") from None
    except FactorGraphError as e:
        print(fgio.dumps({"error": {"kind": e.kind, "detail": e.detail}}))
        print(f"fg: {e.kind}: {e.detail}", file=sys.stderr)
        return e.exit_code
    print(text)
    return code


def console_main() -> None:
    sys.exit(main())
