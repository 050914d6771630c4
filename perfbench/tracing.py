"""Outside-in tracing of fginfer: spans at layer boundaries, kernel counters.

The tracer wraps, for the duration of one traced request, the names each
fginfer module resolves at call time (module functions, two class
methods, and the vector kernels of the semiring singletons). Nothing in
the package is edited; uninstalling restores every original object.

Layer-boundary calls become spans (name, start, end, parent, request)
kept in memory. Kernel calls, hundreds of thousands per request, are not
spans: each kernel keeps a call count and its busy time, and a span's
self time subtracts the kernel time spent inside it. A span's self time
is its duration minus the time covered by its child spans and kernels.
"""

import contextlib
import inspect
import math
import time
from collections import Counter, defaultdict

# kernel methods wrapped on every semiring singleton
KERNELS = ("contract", "combine", "max_abs_score", "scale_msg_inplace", "lift_table")

_NULL = contextlib.nullcontext()


class NullProbe:
    """What an untraced request sees: spans and counts that do nothing."""

    def span(self, name: str) -> contextlib.nullcontext:
        return _NULL

    def count(self, name: str, n: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.leave()
        return False


class Tracer:
    """Collects spans, per-layer busy/self time and exact counts.

    Around a traced request: ``install()``, ``begin_request``, a call of
    the request wrapped by ``root``, ``end_request``, ``uninstall()``.
    ``per_request`` keeps one record per traced request.
    """

    def __init__(self, fg):
        self.fg = fg
        self.clock = time.perf_counter
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.next_id = 0
        self.request_id = -1
        # name -> [calls, busy seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # kernel name -> [calls, busy seconds]
        self.kernels: dict[str, list] = {k: [0, 0.0] for k in KERNELS}
        self.kernel_total = [0.0]
        self.counts: Counter = Counter()
        self._at_begin: dict[str, tuple] = {}
        self.pending_runs: list[tuple] = []
        self.per_request: list[dict] = []
        self._patches: list[tuple] = []

    # spans -----------------------------------------------------------------

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def enter(self, name: str) -> None:
        parent = self.stack[-1][5] if self.stack else -1
        span_id = self.next_id
        self.next_id += 1
        # name, start, child seconds, kernel total at entry, child kernel seconds, id, parent
        self.stack.append([name, self.clock(), 0.0, self.kernel_total[0], 0.0, span_id, parent])

    def leave(self) -> None:
        end = self.clock()
        name, start, child, k0, child_k, span_id, parent = self.stack.pop()
        dur = end - start
        kern = self.kernel_total[0] - k0
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child - (kern - child_k)
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            top[4] += kern
        self.spans.append((self.request_id, span_id, parent, name, start, end))

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self.counts.clear()
        self.pending_runs = []
        self._at_begin = self._totals()

    def root(self, fn):
        """fn wrapped in the request's root span, whose self time is the
        request's own, unattributed time."""
        return self._span_wrapper("request", fn)

    def end_request(self) -> dict:
        """Return and keep this request's record: exact counts plus calls,
        busy and self seconds per span and kernel."""
        # exact counts that need a walk over the graph are taken here,
        # after the request's clock has stopped
        for g, two_pass in self.pending_runs:
            self.counts["propagation.messages"] += g.n_edges * (2 if two_pass else 1)
            entries = 0
            for fcards in g.factor_cards:
                entries += math.prod(fcards) * (len(fcards) if two_pass else 1)
            self.counts["semiring.contract_entries"] += entries
        self.pending_runs = []
        begin = self._at_begin
        record = {"counts": dict(self.counts), "calls": {}, "busy": {}, "self": {}}
        for name, (calls, busy, own) in self._totals().items():
            calls0, busy0, own0 = begin.get(name, (0, 0.0, 0.0))
            record["calls"][name] = calls - calls0
            record["busy"][name] = busy - busy0
            record["self"][name] = own - own0
        self.per_request.append(record)
        return record

    def _totals(self) -> dict[str, tuple]:
        """(calls, busy, self) so far per span name and per kernel."""
        out = {name: tuple(st) for name, st in self.stats.items()}
        for name, (calls, busy) in self.kernels.items():
            out[f"kernel.{name}"] = (calls, busy, busy)
        return out

    # wrapping ----------------------------------------------------------------

    def _span_wrapper(self, name, fn, before=None, after=None):
        enter = self.enter
        leave = self.leave

        def wrapped(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _kernel_wrapper(self, stat, fn):
        clock = self.clock
        total = self.kernel_total

        def wrapped(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            total[0] += dt
            return result

        return wrapped

    def _patch(self, owner, attr, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> None:
        fg = self.fg
        counts = self.counts

        def validate_before(args, kwargs):
            # the HMM chain is stamped as checked; count only real passes
            if not args[0].checked:
                counts["graph.validate_calls"] += 1

        def schedule_after(args, kwargs, result, token):
            counts["graph.schedule_edges"] += len(result.edges)

        run_sig = inspect.signature(fg.propagation.run)

        def run_after(args, kwargs, result, token):
            bound = run_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.pending_runs.append((bound.arguments["g"], bound.arguments["two_pass"]))

        lift_stat = self.kernels["lift_table"]

        def lift_before(args, kwargs):
            return lift_stat[0]

        def lift_after(args, kwargs, result, token):
            counts["entropy.lift_calls"] += 1
            if lift_stat[0] == token:
                counts["entropy.lift_hits"] += 1

        def graph_build_after(args, kwargs, result, token):
            counts["learning.graph_builds"] += 1

        def learning_zh_after(args, kwargs, result, token):
            counts["learning.passes"] += 1

        def dumps_after(args, kwargs, result, token):
            counts["io.bytes_out"] += len(result.encode())

        wrap = self._span_wrapper
        m = fg
        targets = [
            (m.hmm, "hmm_entropy", "hmm.entropy", None, None),
            (m.hmm, "hmm_to_weighted_graph", "hmm.build", None, None),
            (m.hmm, "posterior_entropy", "entropy.posterior", None, None),
            (m.entropy, "posterior_entropy", "entropy.posterior", None, None),
            (m.entropy, "compute_zh", "entropy.compute_zh", None, None),
            (m.learning, "compute_zh", "entropy.compute_zh", None, learning_zh_after),
            (m.entropy, "derive_log2_companions", "entropy.companions", None, None),
            (m.entropy, "run", "propagation.run", None, run_after),
            (m.propagation, "run", "propagation.run", None, run_after),
            (m.propagation, "make_schedule", "graph.schedule", None, schedule_after),
            (m.graph, "validate", "graph.validate", validate_before, None),
            (m.entropy, "validate", "graph.validate", validate_before, None),
            (m.learning, "gradient_at", "learning.gradient", None, None),
            (m.learning, "em_linear_step", "learning.em_step", None, None),
            (m.io, "dumps", "io.serialize", None, dumps_after),
        ]
        for owner, attr, name, before, after in targets:
            self._patch(owner, attr, wrap(name, getattr(owner, attr), before, after))
        wg = m.entropy.WeightedGraph
        self._patch(wg, "__init__", wrap("entropy.weighted_graph", vars(wg)["__init__"]))
        self._patch(wg, "carrier_tables",
                    wrap("entropy.lift", vars(wg)["carrier_tables"], lift_before, lift_after))
        pfs = m.learning.ParametricFactorSet
        self._patch(pfs, "graph_with",
                    wrap("learning.graph_build", vars(pfs)["graph_with"], None,
                         graph_build_after))
        sr = m.semiring
        for singleton in (sr.SUM_PRODUCT, sr.MAX_PRODUCT, sr.BOOLEAN, sr.ENTROPY):
            for kname in KERNELS:
                self._patch(singleton, kname,
                            self._kernel_wrapper(self.kernels[kname], getattr(singleton, kname)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # reporting -----------------------------------------------------------------

    def span_records(self):
        for request_id, span_id, parent, name, start, end in self.spans:
            yield {"request": request_id, "id": span_id, "parent": parent,
                   "name": name, "start": start, "end": end}


def layer_of(name: str) -> str:
    """Module a span or kernel belongs to: kernels are the semiring layer,
    the root span is the request's own (unattributed) time."""
    return "semiring" if name.startswith("kernel.") else name.split(".")[0]
