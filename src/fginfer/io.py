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
import operator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import FactorGraphError, ParseError, ScopeMismatch, UnknownVariable
from .graph import FactorGraph, FactorTable, VariableDecl, table_sizes
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


def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in doc:
        raise ParseError(f"{path}.{key}: missing")
    return doc[key]


def _as_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{path}: expected an integer, got {x!r}")
    return x


def _as_str(x, path: str) -> str:
    if not isinstance(x, str):
        raise ParseError(f"{path}: expected a string, got {x!r}")
    return x


def _as_list(x, path: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{path}: expected an array")
    return x


def _as_number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{path}: expected a number, got {x!r}")
    # Python's json module decodes NaN, Infinity and 1e999 to non-finite
    # floats, and integer literals of any length to int
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{path}: expected a finite number, got {value!r}")
    return value


def _number_list(x, path: str) -> list:
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(_as_list(x, path))]


# The bulk readers below accept exactly what the entry-by-entry checks above
# accept, with one set of types per column and one np.isfinite per array;
# where a bulk check fails, those checks name the first fault by its path.


def _only(items, kinds) -> bool:
    """Whether every item is an instance of ``kinds`` and none a bool."""
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, items)))


def _column(items, key: str, kinds):
    """``item[key]`` of every item, or None unless every item is an object
    holding ``key`` with a value of ``kinds``."""
    if _only(items, dict):
        try:
            column = list(map(operator.itemgetter(key), items))
        except KeyError:
            return None
        if _only(column, kinds):
            return column
    return None


def _read_numbers(rows, zero=None):
    """Lists of finite numbers as one float array and the list lengths, or
    None; a null entry reads 0.0 where the bool array ``zero`` holds."""
    if not _only(rows, list):
        return None
    flat = list(chain.from_iterable(rows))
    if zero is not None and None in flat:
        null = np.fromiter(map(operator.is_, flat, repeat(None)), dtype=bool, count=len(flat))
        if null.shape != zero.shape or (null & ~zero).any():
            return None
        flat = [0.0 if x is None else x for x in flat]
    if not _only(flat, (int, float)):
        return None
    try:
        # an int past float range raises OverflowError
        values = np.fromiter(flat, dtype=float, count=len(flat))
    except OverflowError:
        return None
    if not np.isfinite(values).all():
        return None
    return values, np.fromiter(map(len, rows), dtype=int, count=len(rows))


def _rows(rows, sizes, at, mismatch: str) -> np.ndarray:
    """The number lists ``rows`` as one float array, where row k must hold
    ``sizes[k]`` entries. When a bulk check fails, the rows are checked
    one by one, entries before length, and the first fault is raised: a
    wrong length as ``mismatch`` formatted with the row's path ``at(k)``,
    its length and ``sizes[k]``."""
    read = _read_numbers(rows)
    if read is not None and np.array_equal(read[1], sizes):
        return read[0]
    out: list = []
    for k, row in enumerate(rows):
        vals = _number_list(row, at(k))
        if len(vals) != sizes[k]:
            raise ParseError(mismatch.format(at(k), len(vals), sizes[k]))
        out += vals
    return np.array(out, dtype=float)


def parse_graph_document(doc) -> ParsedGraph:
    """Build a ParsedGraph from a decoded JSON object.

    The graph's arrays are read in bulk. Only a document that fails a
    bulk check is checked entry by entry, which raises its first fault.
    """
    read = _read_graph(doc)
    if read is None:
        _scan_graph(doc)
        raise AssertionError("the bulk checks failed on a graph the scan accepts")
    parametric = _parse_parametric(doc["parametric"], read[0]) if "parametric" in doc else None
    return ParsedGraph(*read, parametric)


def _read_graph(doc):
    """The graph and companions of a graph document, read in bulk, or None
    when a bulk check fails."""
    if not (isinstance(doc, dict) and _only([doc.get("variables"), doc.get("factors")], list)
            and doc["variables"] and doc["factors"]):
        return None
    vs, fs = doc["variables"], doc["factors"]
    columns = [_column(items, key, kinds) for items, key, kinds in (
        (vs, "id", str), (vs, "cardinality", int), (fs, "id", str), (fs, "scope", list),
        (fs, "values", list))]
    if any(c is None for c in columns):
        return None
    vids, cards, ids, scopes, rows = columns
    table = _only(chain.from_iterable(scopes), str) and _read_numbers(rows)
    if not table:
        return None
    values, lengths = table
    try:
        graph = FactorGraph.from_arrays(vids, cards, ids, scopes, values, lengths)
    except (FactorGraphError, ValueError):
        return None
    if (graph.scope_vars >= len(vids)).any() or (table_sizes(
            graph.cards, graph.scope_vars, graph.scope_offsets) != lengths).any():
        return None
    has_g = ["g" in f for f in fs]
    if not any(has_g):
        return graph, None
    with_g = np.flatnonzero(has_g)
    read = _read_numbers([fs[k]["g"] for k in with_g], (values == 0.0)[np.repeat(has_g, lengths)])
    if read is None or not np.array_equal(read[1], lengths[with_g]):
        return None
    tables = iter(np.split(read[0], np.cumsum(read[1])[:-1]))
    return graph, [next(tables) if h else None for h in has_g]


def _scan_graph(doc) -> None:
    """Check a graph document entry by entry, and raise its first fault."""
    variables, cards = [], {}
    for i, v in enumerate(_as_list(_need(doc, "variables", "$"), "$.variables")):
        vid = _as_str(_need(v, "id", f"$.variables[{i}]"), f"$.variables[{i}].id")
        card = _as_int(_need(v, "cardinality", f"$.variables[{i}]"),
                       f"$.variables[{i}].cardinality")
        if card < 1:
            raise ParseError(f"$.variables[{i}].cardinality: must be >= 1, got {card}")
        variables.append(VariableDecl(vid, card))
        cards[vid] = card
    if not variables:
        raise ParseError("$.variables: must not be empty")
    factors = []
    for i, f in enumerate(_as_list(_need(doc, "factors", "$"), "$.factors")):
        at = f"$.factors[{i}]"
        fid = _as_str(_need(f, "id", at), f"{at}.id")
        scope = [_as_str(s, f"{at}.scope[{j}]")
                 for j, s in enumerate(_as_list(_need(f, "scope", at), f"{at}.scope"))]
        for j, s in enumerate(scope):
            if s not in cards:
                raise UnknownVariable(f"{at}.scope[{j}]: undeclared variable {s!r}")
        values = _number_list(_need(f, "values", at), f"{at}.values")
        expected = math.prod(cards[s] for s in scope)
        if scope and len(values) != expected:
            raise ScopeMismatch(f"{at}.values: length {len(values)}, scope needs {expected}")
        try:
            factors.append(FactorTable(fid, tuple(scope), values))
        except FactorGraphError as e:
            raise type(e)(f"{at}: {e.detail}") from None
        if "g" in f:
            raw = _as_list(f["g"], f"{at}.g")
            if len(raw) != len(values):
                raise ParseError(f"{at}.g: length {len(raw)} differs from values length"
                                 f" {len(values)}")
            for j, entry in enumerate(raw):
                if entry is not None:
                    _as_number(entry, f"{at}.g[{j}]")
                elif values[j] != 0.0:
                    raise ParseError(f"{at}.g[{j}]: null is only allowed where the value is 0")
    if not factors:
        raise ParseError("$.factors: must not be empty")
    try:
        FactorGraph(variables, factors)
    except ValueError as e:
        raise ParseError(f"$: {e}") from None


def _parse_parametric(block, graph: FactorGraph) -> ParametricFactorSet:
    path = "$.parametric"
    dim = _as_int(_need(block, "dim", path), f"{path}.dim")
    if dim < 1:
        raise ParseError(f"{path}.dim: must be >= 1, got {dim}")
    n_fac, sizes = len(graph.factor_ids), np.diff(graph.offsets)
    differs = "{}: length {} differs from factor table length {}"

    def per_factor_tables(key):
        rows = _as_list(block[key], f"{path}.{key}")
        if len(rows) != n_fac:
            raise ParseError(f"{path}.{key}: {len(rows)} tables for {n_fac} factors")
        return _rows(rows, sizes, lambda k: f"{path}.{key}[{k}]", differs)

    lam = None
    if "lambda" in block:
        lam = _rows([block["lambda"]], [dim], lambda _: f"{path}.lambda",
                    "{}: length {} differs from dim {}")

    u = per_factor_tables("u") if "u" in block else None
    v = per_factor_tables("v") if "v" in block else None
    if (u is None) != (v is None):
        raise ParseError(f"{path}: u and v must be given together")
    if u is not None and lam is None:
        raise ParseError(f"{path}.lambda: required with u/v tables")

    grad = None
    if "grad" in block:
        rows = _as_list(block["grad"], f"{path}.grad")
        if len(rows) != n_fac:
            raise ParseError(f"{path}.grad: {len(rows)} entries for {n_fac} factors")
        # the tables of the factors before the first with a malformed entry
        # come first in document order
        bad = next((k for k, c in enumerate(rows) if not isinstance(c, list) or len(c) != dim),
                   n_fac)
        tables = list(chain.from_iterable(rows[:bad]))
        flat = _rows(tables, [sizes[r // dim] for r in range(len(tables))],
                     lambda r: f"{path}.grad[{r // dim}][{r % dim}]", differs)
        if bad < n_fac:
            per_comp = _as_list(rows[bad], f"{path}.grad[{bad}]")
            raise ParseError(f"{path}.grad[{bad}]: {len(per_comp)} component tables"
                             f" for dim {dim}")
        grad = [t.reshape(dim, -1) for t in np.split(flat, dim * graph.offsets[1:-1])]
    if u is None and grad is None:
        raise ParseError(f"{path}: needs u/v/lambda tables or grad tables")

    variables, scopes, ids = graph.variables, graph.scopes, graph.factor_ids
    if grad is not None:
        return ParametricFactorSet.affine(variables, scopes, graph.values, grad,
                                          factor_ids=ids, u=u, v=v, lam=lam)
    return ParametricFactorSet.linear_form(variables, scopes, graph.values, u, v, lam,
                                           factor_ids=ids)


def serialize_graph(pg: ParsedGraph) -> dict:
    """The document for a parsed graph; inverse of parse up to g-null
    normalization (null companions become 0.0 at zero-valued entries)."""
    g = pg.graph
    ends, values = g.offsets.tolist(), g.values.tolist()
    factors = [{"id": fid, "scope": list(scope), "values": values[lo:hi]}
               for fid, scope, lo, hi in zip(g.factor_ids, g.scopes, ends, ends[1:])]
    for entry, companion in zip(factors, pg.companions or []):
        if companion is not None:
            entry["g"] = [float(x) for x in companion]
    doc: dict = {"variables": [{"id": i, "cardinality": c}
                               for i, c in zip(g.var_ids, g.cards.tolist())], "factors": factors}
    pf = pg.parametric
    if pf is not None:
        block: dict = {"dim": pf.dim}
        if pf.lam is not None:
            block["lambda"] = [float(x) for x in pf.lam]
        cuts = pf.structure_graph().offsets[1:-1]
        if pf.u is not None:
            block["u"] = [t.tolist() for t in np.split(pf.u, cuts)]
            block["v"] = [t.tolist() for t in np.split(pf.v, cuts)]
        if pf.has_gradients:
            grads = np.split(pf.grads_at(np.zeros(pf.dim)), cuts, axis=1)
            block["grad"] = [t.tolist() for t in grads]
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
    pi = _rows([_need(doc, "pi", "$")], [states], lambda _: "$.pi",
               "{}: length {} differs from states {}")

    def matrix(key, cols):
        rows = _as_list(_need(doc, key, "$"), f"$.{key}")
        if len(rows) != states:
            raise ParseError(f"$.{key}: {len(rows)} rows for {states} states")
        return _rows(rows, [cols] * states, lambda i: f"$.{key}[{i}]",
                     "{}: length {}, expected {}").reshape(states, cols)

    a = matrix("A", states)
    b = matrix("B", alphabet)
    obs = _as_list(_need(doc, "observations", "$"), "$.observations")
    if not _only(obs, int):
        for i, o in enumerate(obs):
            _as_int(o, f"$.observations[{i}]")
    if not obs:
        raise ParseError("$.observations: must not be empty")
    try:
        return HmmSpec(pi=pi, transition=a, emission=b, observations=obs)
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
