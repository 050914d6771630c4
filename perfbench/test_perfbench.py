"""Self-test of the benchmark, its references, and the known defects.

    python3 -m pytest perfbench -q

Not part of the package's test suite (pytest's testpaths names tests/
only); it runs every workload for about a second, so it takes a minute or
two.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from reference import TreeModel, hmm_reference
from tracing import NullProbe, Tracer
from workloads import WORKLOADS, HmmWorkload, close

fg = run.load_fginfer()
SPEC = json.loads(run.BENCHMARK.read_text())
NAMES = sorted(WORKLOADS)


def bench(workload, seed, trace, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_short_runs_print_every_metric_and_exact_counts_repeat(workload):
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        report, result = result_of(bench(workload, 5, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, report
        assert result["attempted"] >= 2
        assert [m["name"] for m in wanted] == list(result["metrics"])
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            # the human-readable report names each metric with its unit
            assert any(re.match(rf"\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s",
                                line) for line in report), m["name"]
        assert any(line.split()[:1] == ["failed_ratio"] for line in report)
        if trace:
            _, again = result_of(bench(workload, 5, trace))
            for m in wanted:
                if m["unit"] in ("count", "B", "ratio"):
                    assert again["metrics"][m["name"]] == result["metrics"][m["name"]], m["name"]


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_gives_identical_inputs(workload):
    wl = WORKLOADS[workload]

    def digests(seed):
        data = wl.prepare(seed)
        return [wl.digest(data, wl.make_input(data, seed, i)) for i in (1, 2)]

    first = digests(11)
    assert first == digests(11)
    assert first[0] != first[1]
    assert first != digests(12)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_requests_agree(workload):
    wl = WORKLOADS[workload]
    data = wl.prepare(3)
    state = wl.setup(fg, data)
    inp = wl.make_input(data, 3, 2)
    ref = wl.reference(data, inp)
    originals = (fg.propagation.run, fg.entropy.WeightedGraph.carrier_tables,
                 fg.semiring.ENTROPY.contract, fg.learning.compute_zh)
    plain = wl.request(fg, state, inp, NullProbe())
    tracer = Tracer(fg)
    tracer.install()
    tracer.begin_request(0)
    try:
        traced = tracer.root(wl.request)(fg, state, inp, tracer)
    finally:
        record = tracer.end_request()
        tracer.uninstall()
    assert wl.check(data, inp, ref, plain) == []
    assert wl.fingerprint(plain) == wl.fingerprint(traced)
    assert record["calls"]["request"] == 1
    assert record["self"]["request"] >= 0.0
    assert (fg.propagation.run, fg.entropy.WeightedGraph.carrier_tables,
            fg.semiring.ENTROPY.contract, fg.learning.compute_zh) == originals
    assert "contract" not in vars(fg.semiring.ENTROPY)


def corrupt(workload, result):
    """A slightly wrong copy of a request's result."""
    if workload.startswith("hmm"):
        return dataclasses.replace(result, entropy_bits=result.entropy_bits * (1 + 1e-7))
    if workload == "tree-docs":
        text, marginals, ent, log2_max = result
        marginals = dict(marginals)
        vid = next(iter(marginals))
        m = marginals[vid]
        marginals[vid] = dataclasses.replace(m, log_scale=m.log_scale + 1e-6)
        return text, marginals, ent, log2_max
    grad, em = result
    return grad * (1 + 1e-5), em


@pytest.mark.parametrize("workload", NAMES)
def test_gates_catch_a_wrong_answer(workload):
    wl = WORKLOADS[workload]
    data = wl.prepare(4)
    state = wl.setup(fg, data)
    inp = wl.make_input(data, 4, 2)
    ref = wl.reference(data, inp)
    result = wl.request(fg, state, inp, NullProbe())
    assert wl.check(data, inp, ref, result) == []
    assert wl.check(data, inp, ref, corrupt(workload, result)) != []


def test_hmm_reference_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(30):
        s, o, t = (int(x) for x in rng.integers(1, [4, 4, 9]))
        wl = HmmWorkload("small", 0, states=s, symbols=o, steps=t, rescale=None)
        data = wl.prepare(int(rng.integers(1 << 30)))
        obs = wl.make_input(data, 0, 1)
        h = fg.hmm.HmmSpec(data["pi"], data["A"], data["B"], obs)
        g = fg.hmm.hmm_to_weighted_graph(h).graph
        log_p, bits = hmm_reference(data["pi"], data["A"], data["B"], obs)
        assert close(log_p, math.log(fg.oracle.enumerate_z(g)), 1e-12)
        assert close(bits, fg.oracle.enumerate_entropy(g), 1e-12)


def test_tree_reference_matches_enumeration():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 9):
        parent = [0] + [int(rng.integers(i)) for i in range(1, n)]
        prior = rng.uniform(0.05, 2.0, 3)
        cpts = rng.uniform(0.05, 2.0, (n, 3, 3))
        variables = [fg.VariableDecl(f"x{i}", 3) for i in range(n)]
        factors = [fg.FactorTable("p0", ("x0",), prior)] + [
            fg.FactorTable(f"p{i}", (f"x{parent[i]}", f"x{i}"), cpts[i]) for i in range(1, n)
        ]
        z = fg.oracle.enumerate_z(fg.FactorGraph(variables, factors))
        assert close(TreeModel(parent, 3).log_z(prior, cpts), math.log(z), 1e-12)


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = bench("learn-grad", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# Known defects of the package, recorded here rather than fixed: each test
# states the behaviour a correct package has, and fails today with the
# exception named in its marker. strict=True turns a fix into a visible
# XPASS failure, so the marker is removed together with the defect.


@pytest.mark.xfail(raises=fg.ZeroEvidence, strict=True,
                   reason="hmm_entropy turns rescaling on only for T > 1000, so P(y) of a"
                          " wide short chain underflows to 0")
def test_defect_default_rescale_underflows_on_wide_short_chains():
    wl = HmmWorkload("defect-1", 90, states=32, symbols=32, steps=500, rescale=None)
    data = wl.prepare(0)
    obs = wl.make_input(data, 0, 1)
    h = fg.HmmSpec(data["pi"], data["A"], data["B"], obs)
    log_p, bits = hmm_reference(data["pi"], data["A"], data["B"], obs)
    assert log_p < math.log(1e-300)
    res = fg.hmm_entropy(h)
    assert close(res.entropy_bits, bits, 1e-9)


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="gradient_at(rescale=True) multiplies by exp(log_scale), which"
                          " overflows once Z leaves float range even when the gradient"
                          " itself does not")
def test_defect_rescaled_gradient_overflows_once_z_leaves_float_range():
    rng = np.random.default_rng(7)
    n, k, eps = 1000, 3, 1e-250
    parent = [0] + [int(rng.integers(i)) for i in range(1, n)]
    prior = rng.uniform(0.05, 2.0, k)
    cpts = rng.uniform(0.05, 2.0, (n, k, k))
    base = [prior] + [cpts[i].ravel() for i in range(1, n)]
    pf = fg.ParametricFactorSet.affine(
        variables=[(f"x{i}", k) for i in range(n)],
        scopes=[("x0",)] + [(f"x{parent[i]}", f"x{i}") for i in range(1, n)],
        base_tables=base,
        coeff_tables=[eps * b[None, :] for b in base],
    )
    log_z = TreeModel(parent, k).log_z(prior, cpts)
    assert log_z > math.log(sys.float_info.max)
    # every table scales by (1 + eps * theta), so dZ/dtheta at 0 is n * eps * Z
    expected = math.exp(log_z + math.log(n * eps))
    grad = fg.gradient_at(pf, np.zeros(1), rescale=True)
    assert close(grad[0], expected, 1e-9)
