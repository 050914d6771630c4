"""The four benchmark workloads: inputs, requests, and correctness gates.

Each workload splits its work the same way:

- ``prepare(seed)``: the benchmark's own run-level data (a model, a tree
  structure), generated from the seed. Not timed.
- ``setup(fg, data)``: the program-side objects a user builds once per
  process. Timed as part of ``setup_s``.
- ``make_input(data, seed, index)``: one request's input, a pure function
  of (seed, index), so request k is the same in every run with that seed.
- ``reference(data, inp)``: an independent answer, computed once per input
  outside the timed region.
- ``request(fg, state, inp, probe)``: the timed call into fginfer.
- ``check(data, inp, ref, result)``: the correctness gate; returns a list
  of problems, empty when the request passed.

``fg`` is the imported ``fginfer`` package. Requests resolve every
fginfer name through its module at call time, so the tracer can wrap it.
"""

import bisect
import hashlib
import json
import math

import numpy as np

from reference import TreeModel, central_difference, hmm_reference
from tracing import NullProbe

LN2 = math.log(2.0)


def rng_for(seed: int, key: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, key, index])


def close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol * max(1, |a|, |b|): relative for big values."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def stochastic_rows(rng, rows: int, cols: int) -> np.ndarray:
    m = rng.uniform(0.1, 1.0, (rows, cols))
    return m / m.sum(axis=1, keepdims=True)


class Workload:
    name = ""
    key = 0

    def prepare(self, seed: int):
        return None

    def setup(self, fg, data):
        return None

    def reference(self, data, inp):
        return None

    def probes(self, fg, state, data, seed: int) -> list[str]:
        """Extra once-per-run checks of the program; returns problems."""
        return []


# --------------------------------------------------------------------------
# HMM chains


class HmmWorkload(Workload):
    """Posterior state-sequence entropy of a fixed HMM, fresh observations
    per request (sampled from the model)."""

    # relative tolerance on entropy bits and log2 evidence against the
    # numpy forward-backward; observed disagreement is below 1e-12
    tol = 1e-9

    def __init__(self, name, key, states, symbols, steps, rescale):
        self.name = name
        self.key = key
        self.states = states
        self.symbols = symbols
        self.steps = steps
        self.rescale = rescale

    def prepare(self, seed):
        rng = rng_for(seed, self.key, 0)
        return {
            "pi": stochastic_rows(rng, 1, self.states)[0],
            "A": stochastic_rows(rng, self.states, self.states),
            "B": stochastic_rows(rng, self.states, self.symbols),
        }

    def setup(self, fg, data):
        # the model arrays are user data; nothing is built ahead of a request
        return data

    def make_input(self, data, seed, index):
        rng = rng_for(seed, self.key, index)
        cum_a = np.cumsum(data["A"], axis=1).tolist()
        u = rng.random(self.steps).tolist()
        last = self.states - 1
        x = min(bisect.bisect_right(np.cumsum(data["pi"]).tolist(), u[0]), last)
        states = [x]
        for t in range(1, self.steps):
            x = min(bisect.bisect_right(cum_a[x], u[t]), last)
            states.append(x)
        cum_b = np.cumsum(data["B"], axis=1)[states]
        v = rng.random(self.steps)
        obs = np.minimum((v[:, None] >= cum_b).sum(axis=1), self.symbols - 1)
        return obs

    def digest(self, data, inp):
        h = hashlib.sha256()
        for arr in (data["pi"], data["A"], data["B"], np.asarray(inp, dtype=np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def reference(self, data, inp):
        return hmm_reference(data["pi"], data["A"], data["B"], inp)

    def request(self, fg, state, inp, probe):
        with probe.span("hmm.spec"):
            h = fg.hmm.HmmSpec(pi=state["pi"], transition=state["A"],
                               emission=state["B"], observations=inp)
        if self.rescale is None:
            return fg.hmm.hmm_entropy(h)
        return fg.hmm.hmm_entropy(h, rescale=self.rescale)

    def check(self, data, inp, ref, res):
        log_p, bits = ref
        problems = []
        if not close(res.entropy_bits, bits, self.tol):
            problems.append(f"entropy_bits {res.entropy_bits!r} != reference {bits!r}")
        if not close(res.log2_z(), log_p / LN2, self.tol):
            problems.append(f"log2_z {res.log2_z()!r} != reference {log_p / LN2!r}")
        return problems

    def fingerprint(self, res):
        return repr((res.Z, res.H, res.log_scale, res.entropy_bits))


# --------------------------------------------------------------------------
# random forests sent as JSON documents


def forest_document(rng, n_vars: int) -> dict:
    """A random forest over n_vars variables, as a graph document.

    Cardinalities 2-4; factor arity 1-3. Each factor touches at most one
    variable already placed and otherwise fresh variables, so the graph
    stays acyclic; about one factor in a hundred starts a new component.
    Scope order is shuffled so every scope position gets to be the target
    of a contraction. Values are uniform in [0.05, 2).
    """
    cards = rng.integers(2, 5, n_vars).tolist()
    # draws for the most factors the loop can use: each places >= 1
    # fresh variable, or attaches a unary factor to a placed one
    most = 4 * n_vars
    arities = (rng.choice(3, most, p=[0.3, 0.4, 0.3]) + 1).tolist()
    detached = (rng.random(most) < 0.01).tolist()
    picks = rng.random(most).tolist()
    shuffles = rng.random((most, 3)).tolist()
    scopes = []
    placed = 0
    while placed < n_vars:
        k = len(scopes)
        scope = [] if not placed or detached[k] else [int(picks[k] * placed)]
        fresh = min(arities[k] - len(scope), n_vars - placed)
        scope.extend(range(placed, placed + fresh))
        placed += fresh
        order = sorted(range(len(scope)), key=shuffles[k].__getitem__)
        scopes.append([scope[i] for i in order])
    sizes = [math.prod(cards[v] for v in scope) for scope in scopes]
    values = rng.uniform(0.05, 2.0, sum(sizes)).tolist()
    factors = []
    offset = 0
    for k, scope in enumerate(scopes):
        factors.append({
            "id": f"f{k}",
            "scope": [f"v{v}" for v in scope],
            "values": values[offset:offset + sizes[k]],
        })
        offset += sizes[k]
    variables = [{"id": f"v{i}", "cardinality": cards[i]} for i in range(n_vars)]
    return {"variables": variables, "factors": factors}


def components(doc: dict) -> dict[str, int]:
    """Connected component label of every variable of a graph document."""
    parent = {v["id"]: v["id"] for v in doc["variables"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in doc["factors"]:
        root = find(f["scope"][0])
        for v in f["scope"][1:]:
            parent[find(v)] = root
    labels: dict[str, int] = {}
    return {v: labels.setdefault(find(v), len(labels)) for v in parent}


class TreeDocsWorkload(Workload):
    name = "tree-docs"
    key = 3

    n_vars = 5000
    # variables per small document checked against brute-force enumeration
    small_vars = 9
    small_docs = 3
    # relative tolerance on log Z agreement between semirings, roots and
    # enumeration; observed disagreement is about 1e-15
    tol = 1e-12

    def make_input(self, data, seed, index):
        doc = forest_document(rng_for(seed, self.key, index), self.n_vars)
        return json.dumps(doc)

    def digest(self, data, inp):
        return hashlib.sha256(inp.encode()).hexdigest()

    def request(self, fg, state, text, probe):
        probe.count("io.bytes_in", len(text.encode()))
        with probe.span("io.parse"):
            parsed = fg.io.parse_graph_document(json.loads(text))
        g = fg.graph.validate(parsed.graph)
        sr = fg.semiring
        marginals, _ = fg.propagation.run(g, sr.SUM_PRODUCT, two_pass=True, rescale=True)
        best, _ = fg.propagation.run(g, sr.MAX_PRODUCT, rescale=True)
        companions = fg.entropy.derive_log2_companions(g)
        ent = fg.entropy.posterior_entropy(fg.entropy.WeightedGraph(g, companions),
                                           rescale=True)
        log2_max = 0.0
        for m in best.values():
            log2_max += (math.log(max(m.scores())) + m.log_scale) / LN2
        out = {
            "log2_z": ent.log2_z(),
            "log2_max": log2_max,
            "entropy_bits": ent.entropy_bits,
            "marginals": {},
        }
        for vid, m in marginals.items():
            scores = m.scores()
            total = sum(scores)
            out["marginals"][vid] = [s / total for s in scores]
        text_out = fg.io.dumps(out)
        return text_out, marginals, ent, log2_max

    def check(self, data, text, ref, result):
        text_out, marginals, ent, log2_max = result
        problems = []
        doc = json.loads(text)
        if len(marginals) != len(doc["variables"]):
            problems.append(f"{len(marginals)} marginals for {len(doc['variables'])} variables")
        # each variable's marginal totals its component's weight; the
        # components multiply to the entropy run's Z
        ln_z = math.log(ent.Z) + ent.log_scale
        per_component: dict[int, float] = {}
        for vid, label in components(doc).items():
            m = marginals[vid]
            ln_v = math.log(sum(m.scores())) + m.log_scale
            ln_c = per_component.setdefault(label, ln_v)
            if not close(ln_v, ln_c, self.tol):
                problems.append(f"marginal of {vid} sums to ln {ln_v!r}, its component's"
                                f" other variables to ln {ln_c!r}")
                break
        ln_sum = sum(per_component.values())
        if not close(ln_sum, ln_z, self.tol):
            problems.append(f"components total ln {ln_sum!r}, entropy run ln Z {ln_z!r}")
        if not log2_max <= ln_z / LN2 + self.tol * max(1.0, abs(ln_z)):
            problems.append(f"max-product log2 {log2_max!r} exceeds log2 Z {ln_z / LN2!r}")
        bound = sum(math.log2(v["cardinality"]) for v in doc["variables"])
        bits = ent.entropy_bits
        if not (0.0 <= bits <= bound * (1 + self.tol)):
            problems.append(f"entropy {bits!r} bits outside [0, {bound}]")
        out = json.loads(text_out)
        if out["entropy_bits"] != bits or out["log2_max"] != log2_max:
            problems.append("serialized result does not round-trip")
        return problems

    def fingerprint(self, result):
        text_out, marginals, ent, log2_max = result
        parts = [text_out, repr((ent.Z, ent.H, ent.log_scale, log2_max))]
        parts += [repr((m.scores(), m.log_scale)) for m in marginals.values()]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def probes(self, fg, state, data, seed):
        """Small documents from the same generator, against enumeration."""
        oracle = fg.oracle
        problems = []
        for k in range(self.small_docs):
            doc = forest_document(rng_for(seed, self.key + 100, k), self.small_vars)
            text = json.dumps(doc)
            text_out, marginals, ent, log2_max = self.request(fg, state, text, NullProbe())
            g = fg.io.parse_graph_document(doc).graph
            z = oracle.enumerate_z(g)
            tag = f"small doc {k}"
            if not close(ent.log2_z(), math.log2(z), self.tol):
                problems.append(f"{tag}: log2 Z {ent.log2_z()!r} != enumeration {math.log2(z)!r}")
            if not close(ent.entropy_bits, oracle.enumerate_entropy(g), self.tol):
                problems.append(f"{tag}: entropy differs from enumeration")
            if not close(log2_max, math.log2(oracle.max_product_value(g)), self.tol):
                problems.append(f"{tag}: max-product differs from enumeration")
            out = json.loads(text_out)
            for v in doc["variables"]:
                want = oracle.enumerate_marginal(g, v["id"])
                want = want / want.sum()
                got = np.asarray(out["marginals"][v["id"]])
                if not np.allclose(got, want, rtol=self.tol, atol=self.tol):
                    problems.append(f"{tag}: marginal of {v['id']} differs from enumeration")
        return problems


# --------------------------------------------------------------------------
# learning on a fixed parametric tree


class LearnGradWorkload(Workload):
    name = "learn-grad"
    key = 4

    n_vars = 1000
    card = 3
    dim = 8
    # step for central differences in theta and in the companion weight
    h_theta = 1e-4
    h_eps = 1e-7
    # relative tolerance of the finite-difference gates; the observed
    # disagreement at these steps is below 1e-8
    tol = 1e-6

    def prepare(self, seed):
        rng = rng_for(seed, self.key, 0)
        n, k = self.n_vars, self.card
        parent = np.zeros(n, dtype=int)
        parent[1:] = [int(rng.integers(i)) for i in range(1, n)]
        prior = stochastic_rows(rng, 1, k)[0]
        cpts = np.empty((n, k, k))
        cpts[0] = 0.0
        for i in range(1, n):
            cpts[i] = stochastic_rows(rng, k, k)
        # affine perturbations, at most 5% of each entry per unit of theta
        prior_coef = prior * rng.uniform(-0.05, 0.05, (self.dim, k))
        cpt_coef = cpts[None] * rng.uniform(-0.05, 0.05, (self.dim, n, k, k))
        # EM companions; u has mixed signs but a positive mean, so H_a stays
        # well away from 0 and its relative error stays meaningful
        u = rng.uniform(-0.5, 1.5, (n, k, k))
        v = rng.uniform(0.5, 1.5, (n, k, k))
        u[0, 1:] = 0.0
        v[0, 1:] = 0.0
        lam = rng.normal(size=self.dim)
        return {
            "tree": TreeModel(parent, k), "parent": parent, "prior": prior, "cpts": cpts,
            "prior_coef": prior_coef, "cpt_coef": cpt_coef, "u": u, "v": v, "lam": lam,
        }

    def setup(self, fg, data):
        n, k = self.n_vars, self.card
        variables = [(f"x{i}", k) for i in range(n)]
        scopes = [("x0",)] + [(f"x{data['parent'][i]}", f"x{i}") for i in range(1, n)]
        base = [data["prior"]] + [data["cpts"][i].ravel() for i in range(1, n)]
        coeffs = [data["prior_coef"]] + [
            data["cpt_coef"][:, i].reshape(self.dim, k * k) for i in range(1, n)
        ]
        pf = fg.learning.ParametricFactorSet.affine(variables, scopes, base, coeffs)
        pf.structure_graph()
        u = [data["u"][0, 0]] + [data["u"][i].ravel() for i in range(1, n)]
        v = [data["v"][0, 0]] + [data["v"][i].ravel() for i in range(1, n)]
        return {"pf": pf, "variables": pf.variables, "scopes": pf.scopes,
                "u": u, "v": v, "lam": data["lam"]}

    def make_input(self, data, seed, index):
        return rng_for(seed, self.key, index).uniform(-1.0, 1.0, self.dim)

    def digest(self, data, inp):
        h = hashlib.sha256()
        for key in ("parent", "prior", "cpts", "prior_coef", "cpt_coef", "u", "v", "lam"):
            h.update(np.ascontiguousarray(data[key]).tobytes())
        h.update(np.ascontiguousarray(inp).tobytes())
        return h.hexdigest()

    def _tables(self, data, theta):
        prior = data["prior"] + theta @ data["prior_coef"]
        cpts = data["cpts"] + np.tensordot(theta, data["cpt_coef"], axes=1)
        return prior, cpts

    def reference(self, data, theta):
        tree = data["tree"]

        def z_at(th):
            return math.exp(tree.log_z(*self._tables(data, th)))

        grad = np.empty(self.dim)
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = 1.0
            grad[j] = central_difference(lambda h: z_at(theta + h * e), self.h_theta)
        prior, cpts = self._tables(data, theta)

        def h_of(comp):
            # d/de Z(f * (1 + e * comp)) at e = 0 is the H-value with g = comp
            def z_eps(eps):
                return math.exp(tree.log_z(prior * (1 + eps * comp[0, 0]),
                                           cpts * (1 + eps * comp)))
            return central_difference(z_eps, self.h_eps)

        return grad, h_of(data["u"]), h_of(data["v"])

    def request(self, fg, state, theta, probe):
        learning = fg.learning
        pf = state["pf"]
        grad = learning.gradient_at(pf, theta)
        with probe.span("learning.linear_form"):
            form = learning.ParametricFactorSet.linear_form(
                state["variables"], state["scopes"], pf.tables_at(theta),
                state["u"], state["v"], state["lam"],
            )
        return grad, learning.em_linear_step(form)

    def check(self, data, theta, ref, result):
        grad, em = result
        ref_grad, h_a, h_b = ref
        problems = []
        scale = max(np.abs(ref_grad).max(), 1e-300)
        err = np.abs(grad - ref_grad).max() / scale
        if not err <= self.tol:
            problems.append(f"gradient differs from central differences by {err:.3e}")
        if not close(em.h_a, h_a, self.tol) or not close(em.h_b, h_b, self.tol):
            problems.append(f"EM totals ({em.h_a!r}, {em.h_b!r}) != reference ({h_a!r}, {h_b!r})")
        if not em.residual <= 1e-9 * abs(em.h_a):
            problems.append(f"EM stationarity residual {em.residual!r}")
        if not np.array_equal(em.theta_new, -(em.h_a / em.h_b) * data["lam"]):
            problems.append("EM theta_new is not -(H_a / H_b) * lambda")
        return problems

    def fingerprint(self, result):
        grad, em = result
        return repr((grad.tolist(), em.theta_new.tolist(), em.h_a, em.h_b, em.residual))


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: perfbench/README.md
        HmmWorkload("hmm-long", 1, states=2, symbols=2, steps=100_000, rescale=None),
        HmmWorkload("hmm-wide", 2, states=64, symbols=64, steps=300, rescale=True),
        TreeDocsWorkload(),
        LearnGradWorkload(),
    )
}
