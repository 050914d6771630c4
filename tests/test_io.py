import json
import math

import numpy as np
import pytest

from fginfer import (
    OutOfDomain,
    ParseError,
    ScopeMismatch,
    UnknownVariable,
)
from fginfer.io import (
    dumps,
    load_graph,
    load_hmm,
    parse_graph_document,
    parse_hmm_document,
    serialize_graph,
    serialize_hmm,
)


def doc_star():
    # two unary factors, one ternary hub, two pendant pairs
    return {
        "variables": [
            {"id": f"x{i}", "cardinality": 2} for i in range(1, 6)
        ],
        "factors": [
            {"id": "A", "scope": ["x1"], "values": [1.0, 1.0]},
            {"id": "B", "scope": ["x2"], "values": [1.0, 1.0]},
            {"id": "C", "scope": ["x1", "x2", "x3"], "values": [1.0] * 8},
            {"id": "D", "scope": ["x1", "x4"], "values": [1.0] * 4},
            {"id": "E", "scope": ["x2", "x5"], "values": [1.0] * 4},
        ],
    }


def doc_unary(values, g=None):
    f = {"id": "f", "scope": ["x"], "values": values}
    if g is not None:
        f["g"] = g
    return {
        "variables": [{"id": "x", "cardinality": len(values)}],
        "factors": [f],
    }


class TestParseGraph:
    def test_star_document(self):
        pg = parse_graph_document(doc_star())
        assert pg.graph.ensure_checked().n_edges == 9
        assert pg.companions is None
        assert pg.parametric is None
        assert not pg.has_all_companions()

    def test_companions_parsed(self):
        pg = parse_graph_document(doc_unary([0.5, 0.5], g=[-1.0, -1.0]))
        assert pg.has_all_companions()
        assert np.allclose(pg.companions[0], [-1.0, -1.0])

    def test_partial_companions(self):
        d = doc_star()
        d["factors"][0]["g"] = [0.0, 0.0]
        pg = parse_graph_document(d)
        assert pg.companions is not None
        assert pg.companions[1] is None
        assert not pg.has_all_companions()

    def test_null_g_under_zero_value(self):
        pg = parse_graph_document(doc_unary([1.0, 0.0], g=[0.0, None]))
        assert pg.companions[0][1] == 0.0

    def test_integer_values_accepted(self):
        pg = parse_graph_document(doc_unary([1, 2]))
        assert pg.graph.factors[0].values.dtype == float


class TestParseGraphErrors:
    def assert_raises(self, doc, exc, fragment):
        with pytest.raises(exc) as e:
            parse_graph_document(doc)
        assert fragment in e.value.detail

    def test_missing_variables(self):
        self.assert_raises({"factors": []}, ParseError, "$.variables: missing")

    def test_empty_variables(self):
        self.assert_raises(
            {"variables": [], "factors": []}, ParseError, "$.variables: must not be empty"
        )

    def test_bad_cardinality(self):
        d = doc_unary([1.0])
        d["variables"][0]["cardinality"] = 0
        self.assert_raises(d, ParseError, "$.variables[0].cardinality")

    def test_boolean_is_not_an_integer(self):
        d = doc_unary([1.0])
        d["variables"][0]["cardinality"] = True
        self.assert_raises(d, ParseError, "$.variables[0].cardinality")

    def test_empty_factors(self):
        d = {"variables": [{"id": "x", "cardinality": 2}], "factors": []}
        self.assert_raises(d, ParseError, "$.factors: must not be empty")

    def test_undeclared_scope_variable(self):
        d = doc_star()
        d["factors"][2]["scope"][2] = "zz"
        self.assert_raises(d, UnknownVariable, "$.factors[2].scope[2]")

    def test_values_length(self):
        d = doc_star()
        d["factors"][2]["values"] = [1.0] * 7
        self.assert_raises(d, ScopeMismatch, "$.factors[2].values")

    def test_value_not_a_number(self):
        d = doc_unary([1.0, "two"])
        self.assert_raises(d, ParseError, "$.factors[0].values[1]")

    def test_empty_scope(self):
        d = doc_unary([1.0])
        d["factors"][0]["scope"] = []
        self.assert_raises(d, ScopeMismatch, "$.factors[0]")

    def test_repeated_scope_variable(self):
        d = {
            "variables": [{"id": "x", "cardinality": 2}],
            "factors": [{"id": "f", "scope": ["x", "x"], "values": [1.0] * 4}],
        }
        self.assert_raises(d, ScopeMismatch, "$.factors[0]")

    def test_duplicate_factor_id(self):
        d = doc_unary([1.0, 1.0])
        d["factors"].append(dict(d["factors"][0]))
        self.assert_raises(d, ParseError, "duplicate factor id")

    def test_g_length(self):
        self.assert_raises(
            doc_unary([1.0, 1.0], g=[0.0]), ParseError, "$.factors[0].g: length 1"
        )

    def test_null_g_under_nonzero_value(self):
        self.assert_raises(
            doc_unary([1.0, 1.0], g=[None, 0.0]), ParseError, "$.factors[0].g[0]"
        )

    def test_top_level_not_object(self):
        self.assert_raises([], ParseError, "expected an object")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e999", "huge-int"])
    def test_non_finite_value(self, literal):
        d = json.loads(dumps(doc_unary([1.0, 2.0])).replace("2.0", literal))
        self.assert_raises(d, ParseError, "$.factors[0].values[1]: expected a finite number")

    def test_non_finite_g(self):
        # null, not -Infinity, marks the undefined log of a zero value
        self.assert_raises(
            doc_unary([0.0, 1.0], g=[-math.inf, 0.0]), ParseError, "$.factors[0].g[0]"
        )


class TestParametricBlock:
    def linear_doc(self):
        d = doc_unary([0.5, 0.5])
        d["parametric"] = {
            "dim": 1,
            "u": [[2.0, 4.0]],
            "v": [[1.0, 1.0]],
            "lambda": [1.0],
        }
        return d

    def affine_doc(self):
        d = doc_unary([0.0, 1.0])
        d["parametric"] = {"dim": 1, "grad": [[[1.0, -1.0]]]}
        return d

    def test_linear_form(self):
        pf = parse_graph_document(self.linear_doc()).parametric
        assert pf.dim == 1
        assert not pf.has_gradients
        assert np.allclose(pf.u, [2.0, 4.0])
        assert np.allclose(pf.lam, [1.0])

    def test_affine(self):
        pf = parse_graph_document(self.affine_doc()).parametric
        assert pf.has_gradients
        assert np.allclose(pf.tables_at([0.3]), [0.3, 0.7])
        assert np.allclose(pf.grads_at([0.3]), [[1.0, -1.0]])

    def assert_block_error(self, block, fragment, values=(0.5, 0.5)):
        d = doc_unary(list(values))
        d["parametric"] = block
        with pytest.raises(ParseError) as e:
            parse_graph_document(d)
        assert fragment in e.value.detail

    def test_dim_zero(self):
        self.assert_block_error({"dim": 0, "grad": [[[0.0, 0.0]]]}, "$.parametric.dim")

    def test_u_without_v(self):
        self.assert_block_error(
            {"dim": 1, "u": [[1.0, 1.0]], "lambda": [1.0]}, "u and v must be given together"
        )

    def test_uv_without_lambda(self):
        self.assert_block_error(
            {"dim": 1, "u": [[1.0, 1.0]], "v": [[1.0, 1.0]]}, "$.parametric.lambda"
        )

    def test_lambda_length(self):
        self.assert_block_error(
            {"dim": 2, "u": [[1.0, 1.0]], "v": [[1.0, 1.0]], "lambda": [1.0]},
            "$.parametric.lambda: length 1",
        )

    def test_u_wrong_factor_count(self):
        self.assert_block_error(
            {"dim": 1, "u": [[1.0, 1.0], [1.0]], "v": [[1.0, 1.0], [1.0]], "lambda": [1.0]},
            "$.parametric.u: 2 tables",
        )

    def test_u_wrong_length(self):
        self.assert_block_error(
            {"dim": 1, "u": [[1.0]], "v": [[1.0, 1.0]], "lambda": [1.0]},
            "$.parametric.u[0]",
        )

    def test_grad_wrong_component_count(self):
        self.assert_block_error(
            {"dim": 2, "grad": [[[1.0, -1.0]]]}, "$.parametric.grad[0]"
        )

    def test_grad_wrong_table_length(self):
        self.assert_block_error(
            {"dim": 1, "grad": [[[1.0]]]}, "$.parametric.grad[0][0]"
        )

    def test_empty_block(self):
        self.assert_block_error({"dim": 1}, "needs u/v/lambda tables or grad tables")


class TestSerializeGraph:
    def test_round_trip_bit_identity(self):
        d = doc_star()
        d["factors"][0]["values"] = [0.1, 0.2 + 1e-16]
        d["factors"][0]["g"] = [-3.321928094887362, None if False else -2.0]
        pg = parse_graph_document(d)
        s1 = serialize_graph(pg)
        s2 = serialize_graph(parse_graph_document(s1))
        assert dumps(s1) == dumps(s2)
        assert json.loads(dumps(s1)) == s1

    def test_round_trip_parametric(self):
        d = doc_unary([0.5, 0.5])
        d["parametric"] = {
            "dim": 2,
            "u": [[2.0, 4.0]],
            "v": [[1.0, 1.0]],
            "lambda": [0.25, -1.5],
        }
        s1 = serialize_graph(parse_graph_document(d))
        s2 = serialize_graph(parse_graph_document(s1))
        assert dumps(s1) == dumps(s2)

    def test_round_trip_affine(self):
        d = doc_unary([1.0, 2.0])
        d["parametric"] = {"dim": 1, "grad": [[[0.5, -0.25]]]}
        s1 = serialize_graph(parse_graph_document(d))
        assert s1["parametric"]["grad"] == [[[0.5, -0.25]]]
        s2 = serialize_graph(parse_graph_document(s1))
        assert dumps(s1) == dumps(s2)

    def test_null_g_normalized_to_zero(self):
        pg = parse_graph_document(doc_unary([1.0, 0.0], g=[0.5, None]))
        assert serialize_graph(pg)["factors"][0]["g"] == [0.5, 0.0]


class TestHmmDocuments:
    def doc(self):
        return {
            "states": 2,
            "alphabet": 2,
            "pi": [0.6, 0.4],
            "A": [[0.7, 0.3], [0.4, 0.6]],
            "B": [[0.9, 0.1], [0.2, 0.8]],
            "observations": [0, 1, 0, 0],
        }

    def test_parse(self):
        h = parse_hmm_document(self.doc())
        assert (h.num_states, h.num_symbols, h.num_steps) == (2, 2, 4)

    def test_round_trip_bit_identity(self):
        s1 = serialize_hmm(parse_hmm_document(self.doc()))
        s2 = serialize_hmm(parse_hmm_document(s1))
        assert dumps(s1) == dumps(s2)

    def assert_error(self, mutate, exc, fragment):
        d = self.doc()
        mutate(d)
        with pytest.raises(exc) as e:
            parse_hmm_document(d)
        assert fragment in e.value.detail

    def test_states_zero(self):
        self.assert_error(lambda d: d.update(states=0), ParseError, "$.states")

    def test_pi_length(self):
        self.assert_error(lambda d: d.update(pi=[1.0]), ParseError, "$.pi: length 1")

    def test_transition_rows(self):
        self.assert_error(
            lambda d: d.update(A=[[1.0, 0.0]]), ParseError, "$.A: 1 rows"
        )

    def test_emission_row_length(self):
        self.assert_error(
            lambda d: d["B"][1].append(0.0), ParseError, "$.B[1]: length 3"
        )

    def test_row_not_stochastic(self):
        self.assert_error(
            lambda d: d.update(pi=[0.7, 0.4]), ParseError, "pi sums"
        )

    def test_observation_not_integer(self):
        self.assert_error(
            lambda d: d.update(observations=[0, 1.5]),
            ParseError,
            "$.observations[1]",
        )

    def test_observation_out_of_alphabet(self):
        self.assert_error(
            lambda d: d.update(observations=[0, 5]), OutOfDomain, "position 1"
        )

    def test_empty_observations(self):
        self.assert_error(
            lambda d: d.update(observations=[]), ParseError, "$.observations"
        )

    def test_non_finite_probability(self):
        self.assert_error(
            lambda d: d.update(pi=[math.nan, 1.0]), ParseError,
            "$.pi[0]: expected a finite number",
        )


class TestFileLoading:
    def test_load_graph(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(dumps(doc_star()))
        assert load_graph(str(p)).graph.ensure_checked().n_edges == 9

    def test_load_hmm(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(dumps(TestHmmDocuments().doc()))
        assert load_hmm(str(p)).num_steps == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_graph(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_graph(str(p))


class TestDumps:
    def test_shortest_round_trip(self):
        assert dumps({"x": 0.1}) == '{"x": 0.1}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})
