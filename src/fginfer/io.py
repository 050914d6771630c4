"""Reading and writing the JSON documents the CLI speaks.

Graph documents declare variables, factors with flat tables (mixed radix,
first scope variable most significant), optional companion tables "g"
(null entries allowed only where the paired value is 0), and an optional
"parametric" block carrying either linear-form tables (u, v, lambda) or
per-component gradient coefficient tables (grad), the latter defining the
affine family table_k(theta) = values_k + sum_j theta_j * grad_k[j].

Parse errors name the JSON path of the offending field. Serialization uses
Python's shortest round-trip float formatting, so parse -> serialize ->
parse is bit-identical.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorGraphError, ParseError, ScopeMismatch, UnknownVariable
from .graph import FactorGraph, FactorTable, VariableDecl
from .hmm import HmmSpec
from .learning import ParametricFactorSet


@dataclass
class ParsedGraph:
    """A parsed graph document: structure, companions, parametric data."""

    graph: FactorGraph
    companions: list | None
    parametric: ParametricFactorSet | None

    def has_all_companions(self) -> bool:
        return self.companions is not None and all(c is not None for c in self.companions)


# A path argument is a JSON path, or a template such as "$.factors[{}].id"
# that the indices after it fill in; it is formatted only when an error
# names it, so well-formed documents pay for no path strings.


def _at(path: str, where: tuple) -> str:
    return path.format(*where) if where else path


def _need(doc: dict, key: str, path: str, *where):
    if not isinstance(doc, dict):
        raise ParseError(f"{_at(path, where)}: expected an object")
    if key not in doc:
        raise ParseError(f"{_at(path, where)}.{key}: missing")
    return doc[key]


def _as_int(x, path: str, *where) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{_at(path, where)}: expected an integer, got {x!r}")
    return x


def _as_str(x, path: str, *where) -> str:
    if not isinstance(x, str):
        raise ParseError(f"{_at(path, where)}: expected a string, got {x!r}")
    return x


def _as_list(x, path: str, *where) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{_at(path, where)}: expected an array")
    return x


def _as_number(x, path: str, *where) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{_at(path, where)}: expected a number, got {x!r}")
    # Python's json module decodes NaN, Infinity and 1e999 to non-finite
    # floats, and integer literals of any length to int
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{_at(path, where)}: expected a finite number, got {value!r}")
    return value


def _number_list(x, path: str, *where) -> list:
    # only entries other than finite floats pay for their path template
    return [v if type(v) is float and -math.inf < v < math.inf
            else _as_number(v, _at(path, where) + "[{}]", i)
            for i, v in enumerate(_as_list(x, path, *where))]


def parse_graph_document(doc) -> ParsedGraph:
    """Build a ParsedGraph from a decoded JSON object."""
    variables = []
    for i, v in enumerate(_as_list(_need(doc, "variables", "$"), "$.variables")):
        vid = _as_str(_need(v, "id", "$.variables[{}]", i), "$.variables[{}].id", i)
        card = _as_int(_need(v, "cardinality", "$.variables[{}]", i),
                       "$.variables[{}].cardinality", i)
        if card < 1:
            raise ParseError(f"$.variables[{i}].cardinality: must be >= 1, got {card}")
        variables.append(VariableDecl(vid, card))
    if not variables:
        raise ParseError("$.variables: must not be empty")
    cards = {v.id: v.cardinality for v in variables}

    factors = []
    companions: list = []
    saw_g = False
    for i, f in enumerate(_as_list(_need(doc, "factors", "$"), "$.factors")):
        fid = _as_str(_need(f, "id", "$.factors[{}]", i), "$.factors[{}].id", i)
        scope = [
            _as_str(s, "$.factors[{}].scope[{}]", i, j)
            for j, s in enumerate(_as_list(_need(f, "scope", "$.factors[{}]", i),
                                           "$.factors[{}].scope", i))
        ]
        for j, s in enumerate(scope):
            if s not in cards:
                raise UnknownVariable(f"$.factors[{i}].scope[{j}]: undeclared variable {s!r}")
        values = _number_list(_need(f, "values", "$.factors[{}]", i), "$.factors[{}].values", i)
        expected = math.prod(cards[s] for s in scope)
        if scope and len(values) != expected:
            raise ScopeMismatch(
                f"$.factors[{i}].values: length {len(values)}, scope needs {expected}"
            )
        try:
            factors.append(FactorTable(fid, tuple(scope), np.asarray(values)))
        except FactorGraphError as e:
            raise type(e)(f"$.factors[{i}]: {e.detail}") from None
        except ValueError as e:
            raise ParseError(f"$.factors[{i}]: {e}") from None
        if "g" in f:
            saw_g = True
            raw = _as_list(f["g"], "$.factors[{}].g", i)
            if len(raw) != len(values):
                raise ParseError(f"$.factors[{i}].g: length {len(raw)} differs from"
                                 f" values length {len(values)}")
            comp = []
            for j, entry in enumerate(raw):
                if entry is None:
                    if values[j] != 0.0:
                        raise ParseError(
                            f"$.factors[{i}].g[{j}]: null is only allowed where the value is 0"
                        )
                    comp.append(0.0)
                else:
                    comp.append(_as_number(entry, "$.factors[{}].g[{}]", i, j))
            companions.append(np.asarray(comp))
        else:
            companions.append(None)
    if not factors:
        raise ParseError("$.factors: must not be empty")

    try:
        graph = FactorGraph(variables, factors)
    except ValueError as e:
        raise ParseError(f"$: {e}") from None

    parametric = None
    if "parametric" in doc:
        parametric = _parse_parametric(doc["parametric"], variables, factors)

    return ParsedGraph(
        graph=graph,
        companions=companions if saw_g else None,
        parametric=parametric,
    )


def _parse_parametric(block, variables, factors) -> ParametricFactorSet:
    path = "$.parametric"
    dim = _as_int(_need(block, "dim", path), f"{path}.dim")
    if dim < 1:
        raise ParseError(f"{path}.dim: must be >= 1, got {dim}")
    sizes = [f.values.size for f in factors]

    def per_factor_tables(key):
        rows = _as_list(block[key], f"{path}.{key}")
        if len(rows) != len(factors):
            raise ParseError(
                f"{path}.{key}: {len(rows)} tables for {len(factors)} factors"
            )
        out = []
        for k, row in enumerate(rows):
            vals = _number_list(row, f"{path}.{key}[{k}]")
            if len(vals) != sizes[k]:
                raise ParseError(
                    f"{path}.{key}[{k}]: length {len(vals)} differs from factor"
                    f" table length {sizes[k]}"
                )
            out.append(np.asarray(vals))
        return out

    lam = None
    if "lambda" in block:
        lam = _number_list(block["lambda"], f"{path}.lambda")
        if len(lam) != dim:
            raise ParseError(f"{path}.lambda: length {len(lam)} differs from dim {dim}")

    u = per_factor_tables("u") if "u" in block else None
    v = per_factor_tables("v") if "v" in block else None
    if (u is None) != (v is None):
        raise ParseError(f"{path}: u and v must be given together")
    if u is not None and lam is None:
        raise ParseError(f"{path}.lambda: required with u/v tables")

    grad = None
    if "grad" in block:
        rows = _as_list(block["grad"], f"{path}.grad")
        if len(rows) != len(factors):
            raise ParseError(f"{path}.grad: {len(rows)} entries for {len(factors)} factors")
        grad = []
        for k, per_comp in enumerate(rows):
            per_comp = _as_list(per_comp, f"{path}.grad[{k}]")
            if len(per_comp) != dim:
                raise ParseError(
                    f"{path}.grad[{k}]: {len(per_comp)} component tables for dim {dim}"
                )
            tabs = []
            for j, t in enumerate(per_comp):
                vals = _number_list(t, f"{path}.grad[{k}][{j}]")
                if len(vals) != sizes[k]:
                    raise ParseError(
                        f"{path}.grad[{k}][{j}]: length {len(vals)} differs from factor"
                        f" table length {sizes[k]}"
                    )
                tabs.append(vals)
            grad.append(np.asarray(tabs))
    if u is None and grad is None:
        raise ParseError(f"{path}: needs u/v/lambda tables or grad tables")

    scopes = [f.scope for f in factors]
    ids = [f.id for f in factors]
    base = [f.values for f in factors]
    if grad is not None:
        return ParametricFactorSet.affine(
            variables, scopes, base, grad, factor_ids=ids, u=u, v=v,
            lam=None if lam is None else np.asarray(lam),
        )
    return ParametricFactorSet.linear_form(
        variables, scopes, base, u, v, np.asarray(lam), factor_ids=ids,
    )


def serialize_graph(pg: ParsedGraph) -> dict:
    """The document for a parsed graph; inverse of parse up to g-null
    normalization (null companions become 0.0 at zero-valued entries)."""
    doc: dict = {
        "variables": [
            {"id": v.id, "cardinality": v.cardinality} for v in pg.graph.variables
        ],
        "factors": [],
    }
    for fi, f in enumerate(pg.graph.factors):
        entry = {
            "id": f.id,
            "scope": list(f.scope),
            "values": [float(x) for x in f.values],
        }
        if pg.companions is not None and pg.companions[fi] is not None:
            entry["g"] = [float(x) for x in pg.companions[fi]]
        doc["factors"].append(entry)
    pf = pg.parametric
    if pf is not None:
        block: dict = {"dim": pf.dim}
        if pf.lam is not None:
            block["lambda"] = [float(x) for x in pf.lam]
        if pf.u is not None:
            block["u"] = [[float(x) for x in t] for t in pf.u]
            block["v"] = [[float(x) for x in t] for t in pf.v]
        if pf.has_gradients:
            zeros = np.zeros(pf.dim)
            block["grad"] = [
                [[float(x) for x in row] for row in gt] for gt in pf.grads_at(zeros)
            ]
        doc["parametric"] = block
    return doc


def parse_hmm_document(doc) -> HmmSpec:
    """Build an HmmSpec from a decoded JSON object."""
    states = _as_int(_need(doc, "states", "$"), "$.states")
    alphabet = _as_int(_need(doc, "alphabet", "$"), "$.alphabet")
    if states < 1:
        raise ParseError(f"$.states: must be >= 1, got {states}")
    if alphabet < 1:
        raise ParseError(f"$.alphabet: must be >= 1, got {alphabet}")
    pi = _number_list(_need(doc, "pi", "$"), "$.pi")
    if len(pi) != states:
        raise ParseError(f"$.pi: length {len(pi)} differs from states {states}")

    def matrix(key, cols):
        rows = _as_list(_need(doc, key, "$"), f"$.{key}")
        if len(rows) != states:
            raise ParseError(f"$.{key}: {len(rows)} rows for {states} states")
        out = []
        for i, row in enumerate(rows):
            vals = _number_list(row, f"$.{key}[{i}]")
            if len(vals) != cols:
                raise ParseError(f"$.{key}[{i}]: length {len(vals)}, expected {cols}")
            out.append(vals)
        return np.asarray(out)

    a = matrix("A", states)
    b = matrix("B", alphabet)
    obs = _as_list(_need(doc, "observations", "$"), "$.observations")
    obs = [_as_int(o, "$.observations[{}]", i) for i, o in enumerate(obs)]
    if not obs:
        raise ParseError("$.observations: must not be empty")
    try:
        return HmmSpec(pi=np.asarray(pi), transition=a, emission=b,
                       observations=np.asarray(obs))
    except ValueError as e:
        raise ParseError(f"$: {e}") from None


def serialize_hmm(h: HmmSpec) -> dict:
    return {
        "states": h.num_states,
        "alphabet": h.num_symbols,
        "pi": [float(x) for x in h.pi],
        "A": [[float(x) for x in row] for row in h.transition],
        "B": [[float(x) for x in row] for row in h.emission],
        "observations": [int(x) for x in h.observations],
    }


def load_graph(path: str) -> ParsedGraph:
    return parse_graph_document(_load_json(path))


def load_hmm(path: str) -> HmmSpec:
    return parse_hmm_document(_load_json(path))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None


def dumps(obj) -> str:
    """One-line JSON with shortest round-trip numbers."""
    return json.dumps(obj, allow_nan=False)
