"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each criterion is a separate test with fixed seeds and pinned
tolerances; a failing assertion prints its FAIL line before propagating.
"""

import functools
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from fginfer import (
    BOOLEAN,
    ENTROPY,
    MAX_PRODUCT,
    SUM_PRODUCT,
    FactorGraph,
    FactorTable,
    HmmSpec,
    ParametricFactorSet,
    WeightedGraph,
    compute_zh,
    derive_log2_companions,
    em_linear_step,
    entropy_product_closed_form,
    gradient_at,
    hmm_entropy,
    hmm_to_weighted_graph,
    posterior_entropy,
    run,
    verify_axioms,
)
from fginfer.cli import main as cli_main
from fginfer.semiring import random_weights
from fginfer.io import dumps, serialize_graph
from fginfer.io import ParsedGraph
from fginfer.oracle import (
    enumerate_entropy,
    enumerate_h,
    enumerate_marginal,
    enumerate_z,
    fd_gradient,
)

from conftest import random_tree, ulps_apart
from stepwise import run_spread


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"FAIL  criterion {n:2d}: {label}")
                raise
            print(f"PASS  criterion {n:2d}: {label}")

        return wrapper

    return deco


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@criterion(1, "semiring laws, 4 semirings x 1000 triples, <= 1e-9, < 5 s")
def test_criterion_01_semiring_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for s in (ENTROPY, SUM_PRODUCT, MAX_PRODUCT, BOOLEAN):
        samples = random_weights(s, 10, rng)  # 10^3 ordered triples
        report = verify_axioms(s, samples, tol=1e-9)
        assert report.passed, f"{s.name}: {report.failed_axioms()}"
        assert report.max_violation <= 1e-9
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "entropy pair product: closed form == binary fold, 500 lists")
def test_criterion_02_closed_form():
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        pairs = random_weights(ENTROPY, n, rng)
        folded = ENTROPY.product(pairs)
        closed = entropy_product_closed_form(pairs)
        assert rel_err(folded.score, closed.score) <= 1e-9
        assert rel_err(folded.aux, closed.aux) <= 1e-9


@criterion(3, "engine == brute force on 100 random trees, <= 1e-9, < 30 s")
def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(100):
        g, companions = random_tree(rng, max_vars=10, max_card=4)
        res = compute_zh(WeightedGraph(g, companions))
        assert rel_err(res.Z, enumerate_z(g)) <= 1e-9
        assert rel_err(res.H, enumerate_h(g, companions)) <= 1e-9
        marginals, _ = run(g, SUM_PRODUCT, two_pass=True)
        for vid, marg in marginals.items():
            for a, b in zip(np.ldexp(marg.scores(), marg.exponent), enumerate_marginal(g, vid)):
                assert rel_err(a, float(b)) <= 1e-9
        post = posterior_entropy(WeightedGraph(g, derive_log2_companions(g)))
        assert rel_err(post.entropy_bits, enumerate_entropy(g)) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "(Z, H) independent of the root, 20 trees x every variable")
def test_criterion_04_root_independence():
    rng = np.random.default_rng(404)
    for _ in range(20):
        g, companions = random_tree(rng)
        wg = WeightedGraph(g, companions)
        base = None
        for v in g.variables:
            res = compute_zh(wg, root=v.id)
            if base is None:
                base = res
            else:
                assert rel_err(res.Z, base.Z) <= 1e-9
                assert rel_err(res.H, base.H) <= 1e-9


@criterion(5, "entropy run shadows sum-product message-for-message, <= 1 ulp")
def test_criterion_05_first_component_shadowing():
    rng = np.random.default_rng(505)
    for _ in range(20):
        g, companions = random_tree(rng)
        _, plain = run_spread(g, SUM_PRODUCT, two_pass=True)
        wg = WeightedGraph(g, companions)
        _, lifted = run_spread(
            g, ENTROPY, two_pass=True, tables=wg.carrier_tables(ENTROPY)
        )
        assert set(plain.q) == set(lifted.q)
        assert set(plain.r) == set(lifted.r)
        for kind, store_a, store_b in (("q", plain.q, lifted.q), ("r", plain.r, lifted.r)):
            for key in store_a:
                for a, b in zip(store_a[key][0], store_b[key][0]):
                    assert ulps_apart(a, b) <= 1.0


@criterion(6, "HMM entropy: uniform T=5 is 5 bits, deterministic 0, 50 random")
def test_criterion_06_hmm_edge_cases():
    uniform = HmmSpec(
        [0.5, 0.5], np.full((2, 2), 0.5), np.full((2, 2), 0.5), [0] * 5
    )
    assert abs(hmm_entropy(uniform).entropy_bits - 5.0) <= 1e-9

    # pi=(1,0), A=I, B=I: the all-zeros path is the only one with weight
    deterministic = HmmSpec([1.0, 0.0], np.eye(2), np.eye(2), [0, 0, 0])
    assert abs(hmm_entropy(deterministic).entropy_bits - 0.0) <= 1e-9

    rng = np.random.default_rng(606)
    for _ in range(50):
        s = int(rng.integers(1, 4))
        o = int(rng.integers(1, 4))
        t_len = int(rng.integers(1, 8))

        def stochastic(n, m):
            a = rng.uniform(0.1, 1.0, (n, m))
            return a / a.sum(axis=1, keepdims=True)

        h = HmmSpec(
            stochastic(1, s)[0],
            stochastic(s, s),
            stochastic(s, o),
            rng.integers(0, o, t_len),
        )
        bits = hmm_entropy(h).entropy_bits
        oracle_bits = enumerate_entropy(hmm_to_weighted_graph(h).graph)
        assert rel_err(bits, oracle_bits) <= 1e-9


@criterion(7, "posterior entropy invariant to scaling one factor by 1e-6/1e6")
def test_criterion_07_scale_invariance():
    rng = np.random.default_rng(707)
    for _ in range(10):
        g, _ = random_tree(rng)
        base = posterior_entropy(
            WeightedGraph(g, derive_log2_companions(g))
        ).entropy_bits
        pick = int(rng.integers(0, len(g.factors)))
        for c in (1e-6, 1e6):
            factors = [
                FactorTable(f.id, f.scope, f.values * (c if i == pick else 1.0))
                for i, f in enumerate(g.factors)
            ]
            g2 = FactorGraph(g.variables, factors)
            bits = posterior_entropy(
                WeightedGraph(g2, derive_log2_companions(g2))
            ).entropy_bits
            assert abs(bits - base) <= 1e-6


@criterion(8, "exact gradient == central differences (h=1e-5) on 50 trees")
def test_criterion_08_gradient_check():
    rng = np.random.default_rng(808)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        g, _ = random_tree(rng, max_vars=6, min_value=0.5, max_value=2.0)
        base = [f.values for f in g.factors]
        coeffs = [rng.uniform(-0.1, 0.1, (dim, t.size)) for t in base]
        pf = ParametricFactorSet.affine(
            [(v.id, v.cardinality) for v in g.variables],
            [f.scope for f in g.factors],
            base,
            coeffs,
            factor_ids=[f.id for f in g.factors],
        )
        theta = rng.uniform(-0.5, 0.5, dim)
        exact = gradient_at(pf, theta)
        approx = fd_gradient(pf, theta, h=1e-5)
        assert np.max(np.abs(exact - approx)) <= 1e-5


@criterion(9, "closed-form M-step: residual <= 1e-9 rel, ones give -lambda")
def test_criterion_09_em_linear_step():
    rng = np.random.default_rng(909)
    for i in range(50):
        g, _ = random_tree(rng, max_vars=8)
        tables = [f.values for f in g.factors]
        ones = i % 5 == 0  # every fifth instance exercises the exact case
        if ones:
            u = [np.ones(t.size) for t in tables]
            v = [np.ones(t.size) for t in tables]
        else:
            u = [rng.uniform(-2.0, 2.0, t.size) for t in tables]
            v = [rng.uniform(0.2, 1.0, t.size) for t in tables]
        lam = rng.uniform(0.5, 1.5, int(rng.integers(1, 4)))
        pf = ParametricFactorSet.linear_form(
            [(vr.id, vr.cardinality) for vr in g.variables],
            [f.scope for f in g.factors],
            tables,
            u,
            v,
            lam,
            factor_ids=[f.id for f in g.factors],
        )
        res = em_linear_step(pf)
        assert res.residual <= 1e-9 * max(abs(res.h_a), abs(res.h_b))
        if ones:
            assert np.max(np.abs(res.theta_new + lam)) <= 1e-12


@criterion(10, "hmm_entropy: T=1e5 under 2 s, T ratio 4e4/2e4 in [1.5, 3.0]")
def test_criterion_10_performance():
    rng = np.random.default_rng(1010)

    def stochastic(n, m):
        a = rng.uniform(0.1, 1.0, (n, m))
        return a / a.sum(axis=1, keepdims=True)

    def model(t_len):
        return HmmSpec(
            stochastic(1, 2)[0],
            stochastic(2, 2),
            stochastic(2, 2),
            rng.integers(0, 2, t_len),
        )

    def timed(h):
        t0 = time.perf_counter()
        hmm_entropy(h, rescale=True)
        return time.perf_counter() - t0

    # The machine's speed can change between phases longer than one call,
    # so the two sizes of the ratio alternate, and each takes its best
    # time from the same phases as the other.
    h20, h40 = model(20_000), model(40_000)
    t20 = t40 = math.inf
    for _ in range(10):
        t20 = min(t20, timed(h20))
        t40 = min(t40, timed(h40))
    h100 = model(100_000)
    t100 = min(timed(h100) for _ in range(3))
    print(f"      [timing: T=2e4 {t20:.3f}s, T=4e4 {t40:.3f}s, T=1e5 {t100:.3f}s]")
    assert t100 < 2.0
    assert 1.5 <= t40 / t20 <= 3.0


@criterion(11, "CLI: 20 seeded checks exit 0; malformed 1; zero evidence 2")
def test_criterion_11_cli_contract():
    def invoke(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        out = buf.getvalue()
        return code, json.loads(out) if out.strip() else None

    rng = np.random.default_rng(1111)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i in range(20):
            g, companions = random_tree(rng)
            doc = serialize_graph(ParsedGraph(g, companions, None))
            path = tmp / f"tree{i}.json"
            path.write_text(dumps(doc))
            code, payload = invoke(["check", str(path)])
            assert code == 0, f"tree {i}: {payload}"
            assert payload["pass"] is True

        bad = tmp / "bad.json"
        bad.write_text("{this is not json")
        code, payload = invoke(["partition", str(bad)])
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"

        zero = tmp / "zero.json"
        zero.write_text(
            dumps(
                {
                    "variables": [{"id": "x", "cardinality": 2}],
                    "factors": [
                        {"id": "f", "scope": ["x"], "values": [0.0, 0.0],
                         "g": [0.0, 0.0]}
                    ],
                }
            )
        )
        code, payload = invoke(["entropy", str(zero)])
        assert code == 2
        assert payload["error"]["kind"] == "ZeroEvidence"

        # same contract holds through the real process boundary
        r = subprocess.run(
            [sys.executable, "-m", "fginfer", "entropy", str(zero)],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["kind"] == "ZeroEvidence"
