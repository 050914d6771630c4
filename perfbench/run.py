"""Closed-loop benchmark of fginfer, one workload per invocation.

    python3 perfbench/run.py --workload hmm-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy. One caller in one process sends the next request
only after the previous one returned, for --seconds of wall time, after one
untimed warm-up request. Every request is gated on correctness against an
independent reference; a request that raises or misses its gate counts as
failed and leaves the latency samples.

Times are speed-adjusted. A fixed pure-Python calibration loop runs right
before and right after every timed interval; the interval is scaled by
NOMINAL_CAL_S over the loop's mean time, which reports it in seconds of a
machine on which the loop takes NOMINAL_CAL_S. On a shared machine whose
speed drifts by a factor of two within minutes this keeps runs comparable;
the raw wall-clock values are printed next to the adjusted ones.

--trace 0 reports the end-to-end metrics. --trace 1 runs each input twice,
once untraced and once with the outside-in tracer installed (alternating
which goes first), checks both give the same result, and reports the
per-layer metrics plus the tracing overhead. Exact counts are those of the
first traced request, so they repeat bit for bit for a given seed.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. Metric names and units come from
BENCHMARK.json at the checkout root.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
TRACE_DIR = HERE / "out"
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fginfer, fginfer.io; print(time.perf_counter() - t)"
)
# calibration loop size, and its typical time on the 2-vCPU machine the
# benchmark was defined on; both are fixed for the life of the benchmark
CAL_REPS = 2500
NOMINAL_CAL_S = 0.0125

sys.path.insert(0, str(HERE))

from tracing import NullProbe, Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter


def _calibration_work(reps: int):
    # a fixed slice of the interpreter work the engine does: float
    # multiply-adds over lists, small allocations, dict stores
    table = [0.5 + (i % 13) * 0.01 for i in range(64)]
    store = {}
    acc = 0.0
    for rep in range(reps):
        msg = [1.0] * 8
        for i in range(64):
            acc += table[i] * msg[i & 7]
        store[(rep & 255, rep & 7)] = (acc, msg)
    return acc, len(store)


def calibration_seconds() -> float:
    t0 = clock()
    _calibration_work(CAL_REPS)
    return clock() - t0


def timed(fn, *args):
    """(raw seconds, speed factor, result) of one call, the factor taken
    from calibration loops right before and right after it."""
    gc.collect()
    c0 = calibration_seconds()
    t0 = clock()
    result = fn(*args)
    dt = clock() - t0
    c1 = calibration_seconds()
    return dt, 2.0 * NOMINAL_CAL_S / (c0 + c1), result


def load_fginfer():
    """Import fginfer from the checkout's src/, refusing any other copy."""
    init = SRC / "fginfer" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import fginfer
    import fginfer.io
    import fginfer.oracle

    if Path(fginfer.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported fginfer from {fginfer.__file__}, not {init}")
    return fginfer


def import_seconds() -> float:
    """Time to import fginfer in a fresh interpreter (startup excluded)."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def measure_setup(wl, fg, data):
    """Median import time plus median time to build the workload's
    program-side objects, each over SETUP_REPEATS tries.

    Returns (adjusted seconds, raw seconds, state). The import is timed in
    the child; the calibration around it runs here, adjacent in time.
    """
    import_seconds()  # a fresh checkout compiles bytecode on first import
    imports = []
    builds = []
    state = None
    for _ in range(SETUP_REPEATS):
        _, factor, raw = timed(import_seconds)
        imports.append((raw * factor, raw))
        raw, factor, state = timed(wl.setup, fg, data)
        builds.append((raw * factor, raw))
    adjusted = statistics.median(a for a, _ in imports) + statistics.median(a for a, _ in builds)
    raw = statistics.median(r for _, r in imports) + statistics.median(r for _, r in builds)
    return adjusted, raw, state


class Gate:
    """Attempted and failed request counts, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{label}: {problems[0]}")
        return not problems


class Bench:
    """One workload's closed loop: inputs, timed requests, gates."""

    def __init__(self, wl, fg, state, data, seed):
        self.wl = wl
        self.fg = fg
        self.state = state
        self.data = data
        self.seed = seed
        self.gate = Gate()

    def input(self, index):
        inp = self.wl.make_input(self.data, self.seed, index)
        return inp, self.wl.reference(self.data, inp)

    def call(self, inp, probe, request=None):
        """One timed request: (raw seconds, speed factor, result, error)."""
        try:
            dt, factor, result = timed(request or self.wl.request, self.fg, self.state,
                                       inp, probe)
        except Exception as e:  # a raising request is a failed request; keep serving
            return 0.0, 1.0, None, f"raised {type(e).__name__}: {e}"
        return dt, factor, result, None

    def problems(self, inp, ref, outcome) -> list[str]:
        _dt, _factor, result, error = outcome
        return [error] if error else self.wl.check(self.data, inp, ref, result)

    def traced_call(self, tracer, index, inp):
        tracer.install()
        tracer.begin_request(index)
        try:
            return self.call(inp, tracer, tracer.root(self.wl.request))
        finally:
            tracer.end_request()
            tracer.uninstall()

    def warm_up(self):
        inp, ref = self.input(1)
        self.gate.record("warm-up", self.problems(inp, ref, self.call(inp, NullProbe())))

    def plain(self, seconds):
        """(raw seconds, speed factor) of every request that passed."""
        samples = []
        start = clock()
        index = 2
        while True:
            inp, ref = self.input(index)
            outcome = self.call(inp, NullProbe())
            if self.gate.record(f"request {index}", self.problems(inp, ref, outcome)):
                samples.append(outcome[:2])
            index += 1
            if clock() - start >= seconds:
                return samples

    def paired(self, seconds, tracer):
        """Per pair that passed: (untraced (raw, factor), traced (raw,
        factor), the traced request's record)."""
        pairs = []
        start = clock()
        index = 2
        while True:
            inp, ref = self.input(index)
            if index % 2:
                traced = self.traced_call(tracer, index, inp)
                plain = self.call(inp, NullProbe())
            else:
                plain = self.call(inp, NullProbe())
                traced = self.traced_call(tracer, index, inp)
            record = tracer.per_request[-1]
            ok_plain = self.gate.record(f"request {index}", self.problems(inp, ref, plain))
            problems = self.problems(inp, ref, traced)
            if ok_plain and not problems and (
                    self.wl.fingerprint(plain[2]) != self.wl.fingerprint(traced[2])):
                problems = ["traced result differs from the untraced one"]
            if self.gate.record(f"traced request {index}", problems) and ok_plain:
                pairs.append((plain[:2], traced[:2], record))
            index += 1
            if clock() - start >= seconds:
                return pairs


def tail(values):
    """(value, label): the highest percentile with at least ten samples
    beyond it. Below 21 samples that percentile would not exceed the
    median, so the maximum stands in for it."""
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], "max"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def end_to_end(setup, samples):
    """Metric -> (value, note) from (raw, factor) samples of one run."""
    setup_adj, setup_raw = setup
    raw = [dt for dt, _ in samples]
    adj = [dt * f for dt, f in samples]
    n = len(samples)
    tail_adj, label = tail(adj)
    tail_raw, _ = tail(raw)
    return {
        "setup_s": (setup_adj, f"raw {setup_raw:.4g} s; median of {SETUP_REPEATS} imports"
                               f" + median of {SETUP_REPEATS} builds"),
        "requests_per_s": (n / sum(adj), f"raw {n / sum(raw):.4g}; {n} requests"
                                         " / their busy time"),
        "latency_p50_ms": (1e3 * statistics.median(adj),
                           f"raw {1e3 * statistics.median(raw):.4g} ms; n={n}"),
        "latency_tail_ms": (1e3 * tail_adj, f"raw {1e3 * tail_raw:.4g} ms; {label}, n={n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of the whole run"),
    }


# metric -> key of the first traced request's exact counts or call counts
COUNTS = {
    "semiring.contract_calls": "kernel.contract",
    "semiring.contract_entries": "semiring.contract_entries",
    "semiring.combine_calls": "kernel.combine",
    "semiring.rescale_calls": "kernel.scale_msg_inplace",
    "propagation.run_calls": "propagation.run",
    "propagation.messages": "propagation.messages",
    "graph.validate_calls": "graph.validate_calls",
    "graph.schedule_calls": "graph.schedule",
    "graph.schedule_edges": "graph.schedule_edges",
    "entropy.compute_zh_calls": "entropy.compute_zh",
    "learning.passes_per_request": "learning.passes",
    "learning.graph_builds": "learning.graph_builds",
    "io.bytes_in": "io.bytes_in",
    "io.bytes_out": "io.bytes_out",
}

# metric -> (record field, span or kernel names summed) for times
TIMES = {
    "semiring.contract_s": ("busy", ["kernel.contract"]),
    "semiring.combine_s": ("busy", ["kernel.combine"]),
    "semiring.rescale_s": ("busy", ["kernel.max_abs_score", "kernel.scale_msg_inplace"]),
    "propagation.run_s": ("busy", ["propagation.run"]),
    "propagation.self_s": ("self", ["propagation.run"]),
    "graph.validate_s": ("busy", ["graph.validate"]),
    "graph.schedule_s": ("busy", ["graph.schedule"]),
    "entropy.compute_zh_s": ("busy", ["entropy.compute_zh"]),
    "entropy.lift_s": ("busy", ["entropy.lift"]),
    "entropy.companions_s": ("busy", ["entropy.companions"]),
    "hmm.spec_s": ("busy", ["hmm.spec"]),
    "hmm.build_s": ("busy", ["hmm.build"]),
    "learning.gradient_s": ("busy", ["learning.gradient"]),
    "learning.em_step_s": ("busy", ["learning.em_step"]),
    "io.parse_s": ("busy", ["io.parse"]),
    "io.serialize_s": ("busy", ["io.serialize"]),
    "trace.unattributed_s": ("self", ["request"]),
}


def per_layer(pairs):
    """Metric -> (value, note) from the traced pairs of one run. Times are
    speed-adjusted means per traced request."""
    n = len(pairs)
    first = pairs[0][2]
    exact = {**first["calls"], **first["counts"]}
    out = {}
    for metric, key in COUNTS.items():
        out[metric] = (exact.get(key, 0), "first traced request")
    lifts = exact.get("entropy.lift_calls", 0)
    hits = exact.get("entropy.lift_hits", 0)
    out["entropy.lift_hit_ratio"] = (hits / lifts if lifts else 0.0,
                                     f"{hits}/{lifts} carrier_tables calls needed no lift")
    for metric, (field, names) in TIMES.items():
        total = sum(f * sum(rec[field].get(k, 0.0) for k in names) for _, (_, f), rec in pairs)
        calls = sum(rec["calls"].get(k, 0) for _, _, rec in pairs for k in names)
        out[metric] = (total / n, f"mean of {n} traced requests, {calls} calls")
    plain = statistics.fmean(dt * f for (dt, f), _, _ in pairs)
    traced = statistics.fmean(dt * f for _, (dt, f), _ in pairs)
    out["trace.overhead_ms"] = (1e3 * (traced - plain),
                                f"mean traced - mean untraced over {n} pairs,"
                                f" {100 * (traced - plain) / plain:.1f}%")
    return out


def accounting(pairs) -> str:
    """Self times of a mean traced request, by layer, against the untraced
    requests of the same pairs (all speed-adjusted)."""
    n = len(pairs)
    layers = defaultdict(float)
    for _, (_, f), rec in pairs:
        for name, own in rec["self"].items():
            layers[layer_of(name)] += f * own / n
    unattributed = layers.pop("request", 0.0)
    plain = [dt * f for (dt, f), _, _ in pairs]
    traced = statistics.fmean(dt * f for _, (dt, f), _ in pairs)
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    parts = " + ".join(f"{k} {1e3 * v:.1f}" for k, v in ranked)
    mean_plain = statistics.fmean(plain)
    return (f"  accounting, ms per request over {n} pairs: traced {1e3 * traced:.1f} ="
            f" {parts} + unattributed {1e3 * unattributed:.1f}; untraced mean"
            f" {1e3 * mean_plain:.1f} (p50 {1e3 * statistics.median(plain):.1f})"
            f" + overhead {1e3 * (traced - mean_plain):.1f}")


def write_spans(tracer, workload, seed) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    fg = load_fginfer()
    wl = WORKLOADS[args.workload]
    data = wl.prepare(args.seed)
    *setup, state = measure_setup(wl, fg, data)
    bench = Bench(wl, fg, state, data, args.seed)
    for problem in wl.probes(fg, state, data, args.seed):
        bench.gate.record("probe", [problem])
    bench.warm_up()

    mode = "traced + untraced pairs" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed {args.seed}: closed loop, 1 caller, {mode},"
          f" {args.seconds:g} s; times speed-adjusted to a {1e3 * NOMINAL_CAL_S:g} ms"
          " calibration loop")
    if args.trace:
        tracer = Tracer(fg)
        pairs = bench.paired(args.seconds, tracer)
        wanted = spec["per_layer"]
        metrics = per_layer(pairs) if pairs else {}
    else:
        samples = bench.plain(args.seconds)
        wanted = spec["end_to_end"]
        metrics = end_to_end(setup, samples) if samples else {}

    g = bench.gate
    print(f"  {'failed_ratio':28s} {g.failed / g.attempted:<14.6g} {'ratio':6s}"
          f" {g.failed} failed / {g.attempted} attempted")
    for problem in g.problems:
        print(f"  FAILED {problem}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, (value, note) in sorted(metrics.items()):
        unit = units.get(name, "s")
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:28s} {shown:<14s} {unit:6s} {note}")
    if args.trace and pairs:
        print(accounting(pairs))
        path = write_spans(tracer, args.workload, args.seed)
        print(f"  spans written to {path.relative_to(ROOT)}")

    result = {
        "correct": g.failed == 0 and bool(metrics),
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
