import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fginfer import FactorGraph, FactorTable, VariableDecl
from fginfer.cli import _check_graph, main
from fginfer.io import dumps


def unary_doc(values=(0.5, 0.5), g=(-1.0, -1.0)):
    f = {"id": "f", "scope": ["x"], "values": list(values)}
    if g is not None:
        f["g"] = list(g)
    return {"variables": [{"id": "x", "cardinality": len(values)}], "factors": [f]}


def star_doc():
    return {
        "variables": [{"id": f"x{i}", "cardinality": 2} for i in range(1, 6)],
        "factors": [
            {"id": "A", "scope": ["x1"], "values": [1.0, 1.0]},
            {"id": "B", "scope": ["x2"], "values": [1.0, 1.0]},
            {"id": "C", "scope": ["x1", "x2", "x3"], "values": [1.0] * 8},
            {"id": "D", "scope": ["x1", "x4"], "values": [1.0] * 4},
            {"id": "E", "scope": ["x2", "x5"], "values": [1.0] * 4},
        ],
    }


def big_tree_doc(n=1200):
    """A binary-heap tree of n binary variables, every pairwise table 1.5:
    Z = 2^n * 1.5^(n - 1), log2 Z = 1901.4 at n = 1200, past float range,
    and every assignment equally likely, so the entropy is n bits."""
    return {
        "variables": [{"id": f"x{i}", "cardinality": 2} for i in range(n)],
        "factors": [
            {"id": f"f{i}", "scope": [f"x{(i - 1) // 2}", f"x{i}"], "values": [1.5] * 4}
            for i in range(1, n)
        ],
    }


BIG_TREE_LOG2_Z = 1200 + 1199 * math.log2(1.5)


def em_doc(v=(1.0, 1.0)):
    d = unary_doc(g=None)
    d["parametric"] = {
        "dim": 1,
        "u": [[2.0, 4.0]],
        "v": [list(v)],
        "lambda": [1.0],
    }
    return d


def grad_doc(base=(1.0, 1.0), coeff=(1.0, 0.0)):
    d = {
        "variables": [{"id": "x", "cardinality": 2}],
        "factors": [{"id": "f", "scope": ["x"], "values": list(base)}],
        "parametric": {"dim": 1, "grad": [[list(coeff)]]},
    }
    return d


def hmm_doc(t_len=5):
    return {
        "states": 2,
        "alphabet": 2,
        "pi": [0.5, 0.5],
        "A": [[0.5, 0.5]] * 2,
        "B": [[0.5, 0.5]] * 2,
        "observations": [0] * t_len,
    }


def huge_pair_doc():
    """Two binary variables under one table of 1e308s: a factor's sum
    overflows, so Z is past float range."""
    return {
        "variables": [{"id": "a", "cardinality": 2}, {"id": "b", "cardinality": 2}],
        "factors": [{"id": "fab", "scope": ["a", "b"], "values": [1e308] * 4}],
    }


def overflowing_pair_doc():
    """Two binary variables under [1e308, 1e308, 1e308, -1]: the engine's
    and the enumerated totals are both inf, and the negative entry rules
    out the posterior-entropy leg."""
    doc = huge_pair_doc()
    doc["factors"][0]["values"][3] = -1.0
    return doc


def assert_fails(result, code, kind):
    """The exit code, the JSON error kind, and one line on stderr: the
    error's, with no traceback."""
    got, out, err = result
    assert (got, out["error"]["kind"]) == (code, kind)
    assert err.splitlines() == [f"fg: {kind}: {out['error']['detail']}"]


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="doc.json"):
        p = tmp_path / name
        p.write_text(doc if isinstance(doc, str) else dumps(doc))
        return str(p)

    return _write


@pytest.fixture
def cli(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        payload = json.loads(captured.out) if captured.out.strip() else None
        return code, payload, captured.err

    return _run


class TestValidate:
    def test_valid_graph(self, cli, write):
        code, out, err = cli("validate", write(star_doc()))
        assert code == 0
        assert out == {"valid": True, "errors": []}
        assert err == ""

    def test_malformed_json(self, cli, write):
        code, out, _ = cli("validate", write("{oops"))
        assert code == 1
        assert out["valid"] is False
        assert out["errors"][0]["kind"] == "ParseError"

    def test_cycle_reported(self, cli, write):
        d = star_doc()
        d["factors"].append({"id": "F", "scope": ["x1", "x2"], "values": [1.0] * 4})
        code, out, _ = cli("validate", write(d))
        assert code == 1
        assert out["errors"][0]["kind"] == "CycleDetected"

    def test_missing_file(self, cli, tmp_path):
        code, out, _ = cli("validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert out["errors"][0]["kind"] == "ParseError"

    def test_boolean_value_named(self, cli, write):
        # the bulk read declines a bool and the entry-by-entry scan names it
        code, out, _ = cli("validate", write(unary_doc(values=(1.0, True), g=None)))
        assert code == 1
        assert out == {"valid": False, "errors": [{
            "kind": "ParseError",
            "detail": "$.factors[0].values[1]: expected a number, got True"}]}


class TestPartition:
    def test_star_total(self, cli, write):
        code, out, _ = cli("partition", write(star_doc()))
        assert code == 0
        assert out["Z"] == pytest.approx(32.0)
        assert out["log_scale"] == 0.0

    def test_max_product(self, cli, write):
        code, out, _ = cli("partition", write(star_doc()), "--semiring", "max-product")
        assert (code, out["Z"]) == (0, 1.0)

    def test_boolean(self, cli, write):
        code, out, _ = cli("partition", write(star_doc()), "--semiring", "boolean")
        assert (code, out["Z"]) == (0, 1.0)

    def test_rescaled_total_reconstructs(self, cli, write):
        # always rescaled: in float range 2^E is folded back exactly
        code, out, _ = cli("partition", write(star_doc()))
        assert (code, out) == (0, {"Z": 32.0, "log_scale": 0.0})
        code, out, _ = cli("partition", write(big_tree_doc()))
        assert code == 0
        assert 1.0 <= out["Z"] < 2.0
        log2_z = math.log2(out["Z"]) + out["log_scale"] / math.log(2.0)
        assert log2_z == pytest.approx(BIG_TREE_LOG2_Z, rel=1e-12)
        code, out, _ = cli("partition", write(big_tree_doc()), "--semiring", "max-product")
        assert code == 0
        log2_max = math.log2(out["Z"]) + out["log_scale"] / math.log(2.0)
        assert log2_max == pytest.approx(1199 * math.log2(1.5), rel=1e-12)

    def test_non_finite_total(self, cli, write):
        path = write(huge_pair_doc())
        assert_fails(cli("partition", path), 2, "NonFiniteTotal")
        assert_fails(cli("marginal", path, "--all"), 2, "NonFiniteTotal")
        assert_fails(cli("entropy", path, "--derive-g"), 2, "NonFiniteTotal")

    def test_bad_root(self, cli, write):
        code, out, _ = cli("partition", write(star_doc()), "--root", "zz")
        assert code == 1
        assert out["error"]["kind"] == "UnknownVariable"


class TestMarginal:
    def test_single_variable(self, cli, write):
        code, out, _ = cli("marginal", write(unary_doc()), "--var", "x")
        assert code == 0
        assert out["marginals"] == {"x": [0.5, 0.5]}

    def test_past_float_range(self, cli, write):
        # folded back exactly where the true values are normal floats
        code, out, _ = cli("marginal", write(unary_doc()), "--var", "x")
        assert out == {"marginals": {"x": [0.5, 0.5]}, "log_scale": {"x": 0.0}}
        code, out, _ = cli("marginal", write(big_tree_doc()), "--var", "x7")
        assert code == 0
        m = out["marginals"]["x7"]
        assert m[0] == m[1]
        log2_m = math.log2(m[0]) + out["log_scale"]["x7"] / math.log(2.0)
        assert log2_m == pytest.approx(BIG_TREE_LOG2_Z - 1.0, rel=1e-12)

    def test_all_variables(self, cli, write):
        code, out, _ = cli("marginal", write(star_doc()), "--all")
        assert code == 0
        assert sorted(out["marginals"]) == [f"x{i}" for i in range(1, 6)]
        for vals in out["marginals"].values():
            assert vals == pytest.approx([16.0, 16.0])

    def test_var_or_all_required(self, cli, write):
        code, out, _ = cli("marginal", write(unary_doc()))
        assert code == 1
        assert out["error"]["kind"] == "UsageError"

    def test_var_and_all_conflict(self, cli, write):
        code, out, _ = cli("marginal", write(unary_doc()), "--var", "x", "--all")
        assert (code, out["error"]["kind"]) == (1, "UsageError")


class TestEntropy:
    def test_uniform_binary(self, cli, write):
        code, out, _ = cli("entropy", write(unary_doc()))
        assert code == 0
        assert out["Z"] == 1.0
        assert out["H"] == -1.0
        assert out["entropy"] == 1.0
        assert out["base"] == "2"

    def test_base_e(self, cli, write):
        import math

        code, out, _ = cli("entropy", write(unary_doc()), "--base", "e")
        assert out["entropy"] == pytest.approx(math.log(2.0))
        assert out["base"] == "e"

    def test_derive_g(self, cli, write):
        code, out, _ = cli("entropy", write(star_doc()), "--derive-g")
        assert code == 0
        assert out["entropy"] == pytest.approx(5.0)

    def test_missing_g_tables(self, cli, write):
        code, out, err = cli("entropy", write(star_doc()))
        assert code == 1
        assert out["error"]["kind"] == "MissingDependency"
        assert "--derive-g" in out["error"]["detail"]
        assert "MissingDependency" in err

    def test_zero_evidence_exit_code(self, cli, write):
        code, out, err = cli("entropy", write(unary_doc(values=(0.0, 0.0), g=None)),
                             "--derive-g")
        assert code == 2
        assert out["error"]["kind"] == "ZeroEvidence"
        assert "fg: ZeroEvidence" in err

    def test_non_finite_hmm_is_a_parse_error(self, cli, write):
        path = write(dumps(hmm_doc()).replace('"pi": [0.5, 0.5]', '"pi": [NaN, 1.0]'))
        code, out, err = cli("entropy", "--hmm", path)
        assert code == 1
        assert out["error"]["kind"] == "ParseError"
        assert out["error"]["detail"].startswith("$.pi[0]: expected a finite number")
        assert "fg: ParseError" in err

    @pytest.mark.parametrize("command", ["entropy", "check"])
    @pytest.mark.parametrize("y", [5, 2**63, 2**70])
    def test_observation_outside_the_alphabet(self, cli, write, command, y):
        # an int past int64 once exited 2 as NonFiniteTotal, or 1 as a
        # ParseError that read 2^63 as a float
        result = cli(command, "--hmm", write(dict(hmm_doc(), observations=[0, y])))
        assert_fails(result, 1, "OutOfDomain")
        assert result[1]["error"]["detail"] == (f"observation at position 1 is {y},"
                                                " outside the alphabet [0, 2)")

    def test_non_finite_graph_is_a_parse_error(self, cli, write):
        path = write(dumps(unary_doc(values=(0.5, 0.25))).replace("0.25", "Infinity"))
        code, out, err = cli("entropy", path)
        assert code == 1
        assert out["error"] == {
            "kind": "ParseError",
            "detail": "$.factors[0].values[1]: expected a finite number, got inf",
        }
        assert "fg: ParseError" in err

    def test_graph_and_hmm_conflict(self, cli, write):
        g = write(unary_doc(), "g.json")
        h = write(hmm_doc(), "h.json")
        code, out, _ = cli("entropy", g, "--hmm", h)
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_hmm_uniform(self, cli, write):
        code, out, _ = cli("entropy", "--hmm", write(hmm_doc()))
        assert code == 0
        assert abs(out["entropy"] - 5.0) <= 1e-9

    def test_hmm_long_chain_auto_rescale(self, cli, write):
        # Z = 2^-1500 is below every normal float, so Z and H stay
        # mantissas; at T = 5 they are folded back
        code, out, _ = cli("entropy", "--hmm", write(hmm_doc(1500)))
        assert code == 0
        assert out["entropy"] == pytest.approx(1500.0)
        log2_z = math.log2(out["Z"]) + out["log_scale"] / math.log(2.0)
        assert log2_z == pytest.approx(-1500.0, rel=1e-14)
        code, out, _ = cli("entropy", "--hmm", write(hmm_doc(5)))
        assert (code, out["Z"], out["H"], out["log_scale"]) == (0, 2.0 ** -5, -10 * 2.0 ** -5, 0.0)

    def test_graph_past_float_range(self, cli, write):
        code, out, _ = cli("entropy", write(big_tree_doc()), "--derive-g")
        assert code == 0
        assert out["entropy"] == pytest.approx(1200.0, rel=1e-12)
        assert out["log_scale"] > 0.0
        log2_z = math.log2(out["Z"]) + out["log_scale"] / math.log(2.0)
        assert log2_z == pytest.approx(BIG_TREE_LOG2_Z, rel=1e-12)


class TestEmStep:
    def test_worked_example(self, cli, write):
        code, out, _ = cli("em-step", write(em_doc()))
        assert code == 0
        assert out["H_a"] == pytest.approx(3.0)
        assert out["H_b"] == pytest.approx(1.0)
        assert out["theta_new"] == pytest.approx([-3.0])
        assert out["residual"] <= 1e-12

    def test_folded_totals_have_log_scale_zero(self, cli, write):
        code, out, _ = cli("em-step", write(em_doc()))
        assert (code, out["log_scale"]) == (0, 0.0)

    def test_past_float_range(self, cli, write):
        # u = 2, v = 1 on every factor: H_a = 2 H_b, and theta_new = -2
        # exactly, although both totals are about 2^1912
        d = big_tree_doc()
        n = len(d["factors"])
        d["parametric"] = {"dim": 1, "u": [[2.0] * 4] * n, "v": [[1.0] * 4] * n,
                           "lambda": [1.0]}
        code, out, _ = cli("em-step", write(d))
        assert code == 0
        assert out["theta_new"] == [-2.0]
        assert out["H_a"] == 2.0 * out["H_b"]
        log2_h_b = math.log2(out["H_b"]) + out["log_scale"] / math.log(2.0)
        assert log2_h_b == pytest.approx(math.log2(n) + BIG_TREE_LOG2_Z, rel=1e-12)

    def test_theta_evaluates_the_tables(self, cli, write):
        # tables [1 + theta, 1] at theta = 5 are [6, 1]: H_a = 6 + 2 = 8,
        # H_b = 7; without --theta the document's values [1, 1] are used
        d = grad_doc()
        d["parametric"].update({"u": [[1.0, 2.0]], "v": [[1.0, 1.0]], "lambda": [1.0]})
        path = write(d)
        code, out, _ = cli("em-step", path, "--theta", "5")
        assert code == 0
        assert (out["H_a"], out["H_b"]) == (8.0, 7.0)
        assert out["theta_new"] == [-8.0 / 7.0]
        code, out, _ = cli("em-step", path)
        assert (code, out["theta_new"]) == (0, [-1.5])
        code, out, _ = cli("em-step", path, "--theta", "1,2,3")
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_negative_theta(self, cli, write):
        # tables [1 + theta, 1] at theta = -1/2 are [1/2, 1]: H_a = 1/2 + 2,
        # H_b = 3/2; -5e-1 is no number that argparse itself takes as a value
        d = grad_doc()
        d["parametric"].update({"u": [[1.0, 2.0]], "v": [[1.0, 1.0]], "lambda": [1.0]})
        code, out, _ = cli("em-step", write(d), "--theta", "-5e-1")
        assert (code, out["H_a"], out["H_b"], out["theta_new"]) == (0, 2.5, 1.5, [-2.5 / 1.5])

    def test_theta_needs_grad_tables(self, cli, write):
        code, out, _ = cli("em-step", write(em_doc()), "--theta", "1")
        assert (code, out["error"]["kind"]) == (1, "MissingDependency")

    def test_tiny_totals(self, cli, write):
        # totals of 2e-305 and 3e-305 give an exact step, no DegenerateMStep
        d = em_doc()
        d["factors"][0]["values"] = [1e-305, 1e-305]
        d["parametric"].update({"u": [[1.0, 2.0]], "v": [[1.0, 1.0]]})
        code, out, _ = cli("em-step", write(d))
        assert (code, out["theta_new"]) == (0, [-1.5])

    def test_degenerate_exit_code(self, cli, write):
        code, out, _ = cli("em-step", write(em_doc(v=(0.0, 0.0))))
        assert code == 2
        assert out["error"]["kind"] == "DegenerateMStep"

    def test_missing_parametric_block(self, cli, write):
        code, out, _ = cli("em-step", write(unary_doc()))
        assert (code, out["error"]["kind"]) == (1, "MissingDependency")


class TestGrad:
    def test_single_step(self, cli, write):
        # table [1 + theta, 1]: total 2 + theta, slope 1 everywhere
        code, out, _ = cli("grad", write(grad_doc()), "--theta", "2")
        assert code == 0
        assert out["gradient"] == pytest.approx([1.0])
        assert out["theta_next"] == pytest.approx([3.0])
        assert "trajectory" not in out

    def test_iterated_ascent(self, cli, write):
        code, out, _ = cli(
            "grad", write(grad_doc()), "--theta", "0", "--iters", "3", "--step", "0.5"
        )
        assert code == 0
        assert out["theta_next"] == pytest.approx([1.5])
        flat = [v for point in out["trajectory"] for v in point]
        assert flat == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_early_stop(self, cli, write):
        # constant-total family: gradient 0, one iteration settles it
        d = grad_doc(base=(0.5, 0.5), coeff=(1.0, -1.0))
        code, out, _ = cli("grad", write(d), "--theta", "0.1", "--iters", "50")
        assert code == 0
        assert len(out["trajectory"]) == 2

    def test_negative_theta(self, capsys, write):
        d = grad_doc()
        d["parametric"] = {"dim": 2, "grad": [[[1.0, 0.0], [0.0, 1.0]]]}
        assert main(["grad", write(d), "--theta", "-0.5,1"]) == 0
        assert capsys.readouterr().out == '{"gradient": [1.0, 1.0], "theta_next": [0.5, 2.0]}\n'

    @pytest.mark.parametrize("argv", [["--theta"], ["--theta", "--iters", "2"], ["--theta", "-x"]])
    def test_theta_missing(self, cli, write, argv):
        # a value that is no number is an option, as argparse reads it
        result = cli("grad", write(grad_doc()), *argv)
        assert_fails(result, 1, "UsageError")
        assert result[1]["error"]["detail"] == "argument --theta: expected one argument"

    def test_theta_size_mismatch(self, cli, write):
        code, out, _ = cli("grad", write(grad_doc()), "--theta", "1,2")
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_theta_not_numbers(self, cli, write):
        code, out, _ = cli("grad", write(grad_doc()), "--theta", "a,b")
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    @pytest.mark.parametrize("command, theta", [("grad", "nan"), ("grad", "1e400"),
                                                ("em-step", "nan"), ("em-step", "inf")])
    def test_non_finite_theta(self, cli, write, command, theta):
        # a bad --theta is a usage error, not an OutOfDomain that blames
        # the document's tables
        d = grad_doc()
        d["parametric"].update({"u": [[1.0, 2.0]], "v": [[1.0, 1.0]], "lambda": [1.0]})
        result = cli(command, write(d), "--theta", theta)
        assert_fails(result, 1, "UsageError")
        assert result[1]["error"]["detail"] == f"--theta must be finite: {theta!r}"

    def test_iters_must_be_positive(self, cli, write):
        code, out, _ = cli("grad", write(grad_doc()), "--theta", "1", "--iters", "0")
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_matches_width_one_pass(self, cli, write):
        # dim = 1: the one-column pass gives the width-1 pass's H to the bit
        from fginfer import FactorGraph, FactorTable, VariableDecl, WeightedGraph, compute_zh

        base, coeff, theta = (0.3, 1.7, 0.9), (0.25, -1.5, 0.5), 0.4
        d = grad_doc(base=base, coeff=coeff)
        d["variables"][0]["cardinality"] = 3
        code, out, _ = cli("grad", write(d), "--theta", str(theta))
        values = [b + theta * c for b, c in zip(base, coeff)]
        g = FactorGraph([VariableDecl("x", 3)], [FactorTable("f", ("x",), values)])
        h = compute_zh(WeightedGraph(g, [[c / v for c, v in zip(coeff, values)]])).H
        assert code == 0
        assert out["gradient"] == [h]

    def test_gradient_past_float_range(self, cli, write):
        # 700 isolated variables with tables [3, 3]: Z = 6^700, and the
        # gradient 700 * 6^699 is past float range too
        d = {
            "variables": [{"id": f"x{i}", "cardinality": 2} for i in range(700)],
            "factors": [{"id": f"f{i}", "scope": [f"x{i}"], "values": [3.0, 3.0]}
                        for i in range(700)],
            "parametric": {"dim": 1, "grad": [[[1.0, 0.0]]] * 700},
        }
        assert_fails(cli("grad", write(d), "--theta", "0"), 2, "NonFiniteTotal")

    @pytest.mark.parametrize("flag, value", [("--step", "nan"), ("--step", "inf"),
                                             ("--tol", "nan")])
    def test_non_finite_step_or_tol(self, cli, write, flag, value):
        assert_fails(cli("grad", write(grad_doc()), "--theta", "0", flag, value),
                     1, "UsageError")

    def test_trajectory_past_float_range(self, cli, write):
        result = cli("grad", write(grad_doc()), "--theta", "1e308", "--step", "1e308")
        assert_fails(result, 2, "NonFiniteTotal")
        assert result[1]["error"]["detail"].endswith("scale the tables, theta or the step down")

    def test_undefined_quotient_exit_code(self, cli, write):
        d = grad_doc(base=(0.0, 1.0), coeff=(1.0, 0.0))
        code, out, _ = cli("grad", write(d), "--theta", "0")
        assert code == 2
        assert out["error"]["kind"] == "UndefinedQuotient"

    def test_overflowing_quotient(self, cli, write):
        # 1e10 / 1e-300 overflows: exit 2 naming the factor, where a ValueError
        # traceback exited 1 with no JSON
        d = grad_doc(base=(1e-300, 1.0), coeff=(1e10, 0.0))
        result = cli("grad", write(d), "--theta", "0")
        assert_fails(result, 2, "UndefinedQuotient")
        assert result[1]["error"]["detail"].startswith("factor 'f': the quotient")

    def test_missing_grad_tables(self, cli, write):
        code, out, _ = cli("grad", write(em_doc()), "--theta", "1")
        assert (code, out["error"]["kind"]) == (1, "MissingDependency")


class TestCheck:
    def test_graph_document(self, cli, write):
        code, out, _ = cli("check", write(star_doc()))
        assert code == 0
        assert out["pass"] is True
        assert out["max_rel_err"] <= 1e-9

    def test_forest_total_is_the_product_of_its_components(self, cli, write):
        # two isolated variables: Z = 3 * 3 = 9, while either marginal
        # totals 3
        doc = {
            "variables": [{"id": v, "cardinality": 2} for v in ("a", "b")],
            "factors": [{"id": f"f{v}", "scope": [v], "values": [1.0, 2.0]}
                        for v in ("a", "b")],
        }
        path = write(doc)
        for extra in ((), ("--seeds", "3")):
            code, out, _ = cli("check", path, *extra)
            assert (code, out["pass"]) == (0, True)
            assert out["max_rel_err"] <= 1e-9

    def test_one_plan_per_check(self):
        # three components: a chain a - b - c, a lone d, and a pair e - f
        cards = {"a": 2, "b": 3, "c": 2, "d": 2, "e": 3, "f": 2}
        scopes = [("a", "b"), ("b", "c"), ("d",), ("e", "f"), ("e",)]
        graph = FactorGraph(
            [VariableDecl(v, c) for v, c in cards.items()],
            [FactorTable(f"f{i}", s, np.linspace(0.5, 2.0, math.prod(cards[v] for v in s)))
             for i, s in enumerate(scopes)],
        )
        assert _check_graph(graph, None) <= 1e-9
        assert len(graph.plans) == 1

    def test_non_finite_totals_exit_2(self, cli, write):
        path = write(overflowing_pair_doc())
        result = cli("check", path)
        assert_fails(result, 2, "NonFiniteTotal")
        # check takes no theta and no step: the detail names the tables alone
        detail = "a result is past float range: scale the tables down"
        assert result[1]["error"]["detail"] == detail
        assert_fails(cli("partition", path), 2, "NonFiniteTotal")
        # finite marginal entries, but their sum Z overflows: a NaN after
        # finite errors must still count
        path = write(unary_doc(values=(1e308, 1e308, -1.0), g=None), "z.json")
        assert_fails(cli("check", path), 2, "NonFiniteTotal")

    def test_seeded_refills(self, cli, write):
        code, out, _ = cli("check", write(star_doc()), "--seeds", "5")
        assert (code, out["pass"]) == (0, True)

    def test_seed_determinism(self, cli, write, monkeypatch):
        path = write(star_doc())
        monkeypatch.setenv("FG_SEED", "123")
        _, out1, _ = cli("check", path, "--seeds", "3")
        _, out2, _ = cli("check", path, "--seeds", "3")
        assert out1 == out2

    def test_bad_seed_env(self, cli, write, monkeypatch):
        monkeypatch.setenv("FG_SEED", "pi")
        code, out, _ = cli("check", write(star_doc()))
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_negative_seed_env(self, cli, write, monkeypatch):
        monkeypatch.setenv("FG_SEED", "-1")
        assert_fails(cli("check", write(star_doc()), "--seeds", "2"), 1, "UsageError")

    def test_hmm_document(self, cli, write):
        code, out, _ = cli("check", "--hmm", write(hmm_doc()), "--seeds", "3")
        assert (code, out["pass"]) == (0, True)

    def test_hmm_evidence_past_float_range_is_no_rescale_error(self, cli, write):
        # P(y) = 1e-800: the HMM pass reports it as fg entropy --hmm does, and
        # the oracle's own total underflows; no option of fg is suggested
        doc = hmm_doc(4)
        doc["B"] = [[1e-200, 1.0 - 1e-200]] * 2
        code, out, _ = cli("check", "--hmm", write(doc))
        assert (code, out["error"]) == (2, {"kind": "ZeroEvidence",
                                            "detail": "total weight 0.0 is numerically zero"})

    def test_needs_exactly_one_document(self, cli, write):
        code, out, _ = cli("check")
        assert (code, out["error"]["kind"]) == (1, "UsageError")
        g = write(star_doc(), "g.json")
        h = write(hmm_doc(), "h.json")
        code, out, _ = cli("check", g, "--hmm", h)
        assert (code, out["error"]["kind"]) == (1, "UsageError")


class TestUsage:
    def test_unknown_command(self, cli):
        code, out, _ = cli("frobnicate")
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_unknown_flag(self, cli, write):
        code, out, _ = cli("partition", write(unary_doc()), "--wat")
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    def test_no_command(self, cli):
        code, out, _ = cli()
        assert (code, out["error"]["kind"]) == (1, "UsageError")

    @pytest.mark.parametrize("argv", [
        ("partition", "--rescale"),
        ("marginal", "--all", "--rescale"),
        ("entropy", "--rescale"),
        ("entropy", "--no-rescale"),
    ])
    def test_no_rescale_flags(self, cli, write, argv):
        # rescaling is always on, and exact, so there is nothing to choose
        code, out, _ = cli(argv[0], write(unary_doc()), *argv[1:])
        assert (code, out["error"]["kind"]) == (1, "UsageError")


class TestSubprocess:
    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "fginfer", *argv], capture_output=True, text=True
        )

    def test_entropy_smoke(self, write):
        r = self.run("entropy", write(unary_doc()))
        assert r.returncode == 0
        assert json.loads(r.stdout)["entropy"] == 1.0

    def test_error_stream_split(self, write):
        r = self.run("entropy", write(unary_doc(values=(0.0, 0.0), g=(0.0, 0.0))))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["kind"] == "ZeroEvidence"
        assert "fg: ZeroEvidence" in r.stderr
