"""End-to-end tests of the command-line frontend."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import isograd
from isograd.cli import OUT_OF_SCOPE, Report, build_parser, main, render


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def roundtrip(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestSettings:
    def test_defaults_are_valid(self):
        ns = build_parser().parse_args(["tree-opt", "--sweep"])
        assert ns.format == "text"
        assert ns.precision == 6
        assert ns.grid == 401
        ns = build_parser().parse_args(["table1", "--case", "corr"])
        assert (ns.samples, ns.seed) == (20, 42)
        assert build_parser().parse_args(["gaussian-check"]).tol is None

    def test_rejects_unknown_format(self, capsys):
        code, out, err = run_cli(capsys, "dice", "--format", "yaml")
        assert code == 2 and out == ""
        assert "--format" in err

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["gaussian-check", "--tol", value], "--tol",
                     id=f"tol-{value}")
        for value in ("nan", "inf", "0", "-1")
    ] + [
        pytest.param(["dice", "--precision", "0"], "--precision",
                     id="precision-0"),
    ] + [
        # 17 digits round-trip a float64; far larger values used to reach the
        # renderer, which raised "precision too big" with a traceback
        pytest.param(["game", "--precision", value], "--precision",
                     id=f"precision-{value}")
        for value in ("18", "2147483648", "100000000000")
    ] + [
        pytest.param(["table1", "--case", "corr", "--samples", "0"],
                     "--samples", id="samples-0"),
        pytest.param(["table1", "--case", "corr", "--seed", "-1"], "--seed",
                     id="seed--1"),
    ])
    def test_rejects_bad_precision_seed_samples_tolerance(self, capsys, argv,
                                                           flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err

    def test_non_numeric_setting_names_the_type(self, capsys):
        code, out, err = run_cli(capsys, "dice", "--precision", "six")
        assert code == 2 and out == ""
        assert "argument --precision: invalid int value: 'six'" in err


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2 and out == ""

    def test_unknown_command_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dice", "--verbose")
        assert code == 2

    def test_bad_format_choice(self, capsys):
        code, out, err = run_cli(capsys, "dice", "--format", "yaml")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        assert "isograd" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--help")
        assert code == 0

    def test_small_grid_rejected(self, capsys):
        code, out, err = run_cli(capsys, "tree-opt", "--sweep", "--grid", "5")
        assert code == 2
        assert "grid" in err

    def test_grid_minimum_is_per_command(self, capsys):
        code, out, err = run_cli(capsys, "surface", "--rho", "0.5",
                                 "--grid", "5")
        assert code == 0 and err == ""
        assert "grid=5" in out
        code, out, err = run_cli(capsys, "surface", "--rho", "0.5",
                                 "--grid", "1")
        assert code == 2 and "grid" in err

    @pytest.mark.parametrize("argv", [
        ("surface", "--rho", "0.5", "--grid", "200000"),
        ("surface", "--rho", "1", "--grid", "4002"),
        ("tree-opt", "--rho", "0.5", "--grid", "100000000000"),
        ("tree-opt", "--sweep", "--grid", "4002"),
    ])
    def test_grid_maximum_is_a_usage_error(self, capsys, argv):
        # refused before any mesh is allocated, not a MemoryError
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: grid must be at most 4001, got {argv[-1]}\n"

    def test_tree_opt_needs_exactly_one_target(self, capsys):
        code, out, err = run_cli(capsys, "tree-opt")
        assert code == 2
        code, out, err = run_cli(capsys, "tree-opt", "--rho", "0.5", "--sweep")
        assert code == 2

    def test_missing_point_rejected(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "entropy-gradient")
        assert code == 2
        assert "--point" in err

    def test_missing_counts_rejected(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "mle")
        assert code == 2
        assert "--counts" in err

    def test_malformed_point_rejected(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "fisher",
                                 "--point", "0.5,0.5")
        assert code == 2
        code, out, err = run_cli(capsys, "joint", "--op", "fisher",
                                 "--point", "a,b,c,d")
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("template", ["0.3,0,0,{}", "{},0,0,0.6"])
    def test_non_finite_point_rejected(self, capsys, bad, template):
        code, out, err = run_cli(capsys, "joint", "--op", "entropy-gradient",
                                 "--mode", "limit",
                                 "--point=" + template.format(bad))
        assert code == 2 and out == ""
        assert f"--point: {bad} is not a finite number" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_rejected(self, capsys, bad):
        code, out, err = run_cli(capsys, "game", "--cx", f"3,{bad},-1,4")
        assert code == 2 and out == ""
        assert f"--cx: {bad} is not a finite number" in err

    def test_overflowing_payoff_rejected(self, capsys):
        code, out, err = run_cli(capsys, "game", "--cy", "1e308,1e308,1e308,0")
        assert code == 2 and out == ""
        assert err == "error: payoff at (x, y) = (0, 1) is inf, not finite\n"

    def test_unsupported_mode_rejected(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "fisher",
                                 "--mode", "limit",
                                 "--point", "0.5,0,0,0.5")
        assert code == 2

    def test_grid_refinement_disagreement_is_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "tree-opt", "--rho", "0.25",
                                 "--grid", "51")
        assert code == 3
        assert err.startswith("error:")

    def test_success_is_exit_0(self, capsys):
        code, out, err = run_cli(capsys, "dice")
        assert code == 0 and out


class TestTextFormat:
    def test_dice_table(self, capsys):
        code, out, err = run_cli(capsys, "dice")
        assert code == 0
        assert "0.693147" in out
        assert "per-space" in out and "constrained-target" in out
        assert out.rstrip().endswith("winners: true")

    def test_game_table(self, capsys):
        code, out, err = run_cli(capsys, "game")
        assert code == 0
        chosen_rows = [line for line in out.splitlines()
                       if line.rstrip().endswith("true")]
        assert len(chosen_rows) == 1
        assert "rho=+1" in chosen_rows[0]

    def test_precision_flag_changes_rendering(self, capsys):
        code, brief, err = run_cli(capsys, "dice", "--precision", "3")
        code, full, err = run_cli(capsys, "dice", "--precision", "12")
        assert "0.693" in brief and "0.693147" not in brief
        assert "0.69314718056" in full
        # the widest precision accepted: 17 digits round-trip log 2
        code, widest, err = run_cli(capsys, "dice", "--precision", "17")
        assert code == 0 and "0.69314718055994529 " in widest

    def test_columns_align(self, capsys):
        code, out, err = run_cli(capsys, "gaussian-check")
        lines = out.splitlines()
        header, rule = lines[1], lines[2]
        assert set(rule) <= {"-", " "}
        assert len(header) <= len(rule) + 2


class TestCsvFormat:
    def test_header_and_row_shape(self, capsys):
        code, out, err = run_cli(capsys, "gaussian-check", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "relation,mode,statistic,expected,passed"
        assert len(lines) == 7
        assert all(line.endswith("true") for line in lines[1:])
        assert "\r" not in out

    def test_sweep_rows(self, capsys):
        code, out, err = run_cli(capsys, "tree-opt", "--sweep",
                                 "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,value,p,q,r,boundary,global_best"
        assert len(lines) == 10
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(
            values, [1.0, 1.03032, 1.40068, 2.02693, 3, 3, 3, 3, 3],
            atol=1e-3)
        assert lines[-1].split(",")[0] == "-1"
        assert lines[-1].endswith("true")
        assert sum(line.endswith(",true") for line in lines[1:]) == 1

    def test_surface_points_on_degenerate_slice(self, capsys):
        code, out, err = run_cli(capsys, "surface", "--rho", "1",
                                 "--grid", "11", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "p,q,r"
        assert len(lines) == 12
        for line in lines[1:]:
            p, q, r = (float(v) for v in line.split(","))
            assert q == 0.0 and r == 1.0

    def test_decimal_point_is_dot(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "mle",
                                 "--counts", "3,0,0,7", "--format", "csv")
        assert out.splitlines()[1] == "3,0,0,7,0.3,0,0,0.7"


class TestJsonFormat:
    @pytest.mark.parametrize("argv", [
        ("game",),
        ("gaussian-check",),
        ("report-eq1-4",),
        ("joint", "--op", "mle", "--counts", "5,0,0,5"),
        ("tree-opt", "--rho", "0.5"),
        ("table1", "--case", "ind", "--samples", "2"),
    ])
    def test_output_round_trips_byte_identically(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert roundtrip(out) == out

    def test_fisher_matrix_payload(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "fisher",
                                 "--point", "0.5,0,0,0.5", "--format", "json")
        payload = json.loads(out)
        assert payload["dimension"] == 1
        assert payload["matrix"] == [[4.0]]

    def test_tree_opt_single_slice_payload(self, capsys):
        code, out, err = run_cli(capsys, "tree-opt", "--rho", "0.5",
                                 "--format", "json")
        payload = json.loads(out)
        assert payload["grid"] == 401
        assert payload["best"]["value"] == pytest.approx(1.40068, abs=1e-3)
        assert payload["best"]["diagnostics"]["boundary"] is True

    def test_game_payload(self, capsys):
        code, out, err = run_cli(capsys, "game", "--format", "json")
        payload = json.loads(out)
        assert payload["baseline"]["payoffs"] == [2.0, 2.0]
        assert payload["chosen"]["label"] == "rho=+1"
        assert payload["chosen"]["payoffs"] == [4.0, 3.0]
        assert [s["label"] for s in payload["slices"]] == [
            "rho=-1", "rho=0", "rho=+1"]

    def test_diverging_gradient_has_no_infinities(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "entropy-gradient",
                                 "--mode", "limit", "--point", "0.3,0,0,0.7",
                                 "--format", "json")
        payload = json.loads(out)
        grad = payload["gradient"]
        assert grad["kind"] == "diverging"
        assert grad["magnitude"] is None
        assert math.isfinite(grad["max_ladder_magnitude"])
        assert "Infinity" not in out


class TestHeadlineReport:
    def test_dimension_rows(self, capsys):
        code, out, err = run_cli(capsys, "report-eq1-4", "--format", "json")
        rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
        assert rows["dim(F)"]["constrained"] == 1
        assert rows["dim(F)"]["limit"] == 3
        assert rows["dim(grad L)"]["constrained"] == 1
        assert rows["dim(grad L)"]["limit"] == 3
        assert rows["d"]["constrained"] == 1
        assert rows["d"]["limit"] == 3

    def test_gradient_rows_are_zero_vs_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "report-eq1-4", "--format", "json")
        rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
        assert rows["|grad E_xy|"]["constrained"] == 0.0
        assert rows["|grad E_xy|"]["limit"] == "diverging"
        assert rows["|grad (P00+P11)|"]["constrained"] == 0.0
        assert rows["|grad (P00+P11)|"]["limit"] == pytest.approx(
            math.sqrt(2.0), abs=1e-5)
        assert rows["|grad (E_xy-E_x)|"]["constrained"] == 0.0
        assert rows["|grad (E_xy-E_x)|"]["limit"] == "diverging"

    def test_volume_row(self, capsys):
        code, out, err = run_cli(capsys, "report-eq1-4", "--format", "json")
        rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
        assert rows["V"]["constrained"] == 1.0
        assert rows["V"]["limit"] == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_unconstructed_rows_are_marked(self, capsys):
        code, out, err = run_cli(capsys, "report-eq1-4", "--format", "json")
        rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
        for quantity in ("Rank(A)", "J"):
            assert rows[quantity]["constrained"] == OUT_OF_SCOPE
            assert rows[quantity]["limit"] == OUT_OF_SCOPE

    def test_text_format_carries_the_same_contrast(self, capsys):
        code, out, err = run_cli(capsys, "report-eq1-4")
        assert code == 0
        assert "diverging" in out
        assert OUT_OF_SCOPE in out


class TestJointOps:
    def test_entropy_gradient_constrained_is_flat_at_pin(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "entropy-gradient",
                                 "--point", "0.5,0,0,0.5", "--format", "json")
        payload = json.loads(out)
        assert payload["gradient"]["kind"] == "finite"
        assert payload["gradient"]["components"] == [0.0]

    def test_loglik_gradient_at_matching_counts(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "loglik-gradient",
                                 "--point", "0.5,0,0,0.5",
                                 "--counts", "5,0,0,5", "--format", "json")
        payload = json.loads(out)
        assert payload["gradient"]["components"] == [0.0]

    def test_relations_families_have_four_rows(self, capsys):
        feasible = {"correlated": "0.5,0,0,0.5",
                    "independent": "0.2,0.2,0.3,0.3"}
        for family, point in feasible.items():
            code, out, err = run_cli(capsys, "joint", "--op", "relations",
                                     "--family", family,
                                     "--point", point,
                                     "--format", "json")
            payload = json.loads(out)
            assert len(payload["rows"]) == 4
            for row in payload["rows"]:
                assert row["gradient"]["kind"] == "finite"
                np.testing.assert_allclose(row["gradient"]["components"],
                                           0.0, atol=1e-8)

    @pytest.mark.parametrize("fmt, row", [
        ("text", ["E_xy", "constrained", "finite", "0", "0"]),
        ("csv", ["E_xy", "constrained", "finite", "0", "0", ""]),
    ])
    def test_symmetric_pin_prints_an_unsigned_zero(self, capsys, fmt, row):
        code, out, err = run_cli(capsys, "joint", "--op", "entropy-gradient",
                                 "--point", "0.5,0,0,0.5", "--format", fmt)
        assert code == 0
        last = out.splitlines()[-1]
        assert (last.split() if fmt == "text" else last.split(",")) == row

    def test_symmetric_pin_json_zero_is_unsigned(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "entropy-gradient",
                                 "--point", "0.5,0,0,0.5", "--format", "json")
        assert code == 0 and "-0" not in out
        (value,) = json.loads(out)["gradient"]["components"]
        assert math.copysign(1.0, value) == 1.0

    def test_fisher_has_no_limit_reading(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "fisher",
                                 "--mode", "limit", "--point", "0.5,0,0,0.5")
        assert code == 2 and out == ""
        assert "'limit'" in err

    def test_unconstrained_relations_name_the_reading(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "relations",
                                 "--mode", "unconstrained",
                                 "--point", "0.3,0,0,0.7")
        assert code == 2 and out == ""
        assert "unconstrained" in err and "not finite" not in err

    def test_limit_probe_leaving_the_simplex_is_not_interior(self, capsys):
        # the approach steps a up from a + b = 1, so d = 1 - a - b - c < 0
        code, out, err = run_cli(capsys, "joint", "--op", "relations",
                                 "--family", "independent", "--mode", "limit",
                                 "--point", "0.5,0.5,0,0")
        assert code == 2 and out == ""
        assert "not interior" in err

    @pytest.mark.parametrize("family, point, cells", [
        ("independent", "0.5,0.5,0,0", "a, b, c, d"),
        ("independent", "0.3,0.7,0,0", "a, b, c, d"),
        ("correlated", "1,0,0,0", "a, d"),
    ])
    def test_constrained_relations_need_positive_live_cells(
            self, capsys, family, point, cells):
        # on the family but on the simplex boundary: the tangent probes would
        # step a cell below 0, so the point is refused before any probe
        code, out, err = run_cli(capsys, "joint", "--op", "relations",
                                 "--mode", "constrained", "--family", family,
                                 "--point", point)
        assert code == 2 and out == ""
        assert err == ("error: constrained relation gradient needs "
                       f"{cells} > 0\n")

    def test_empty_condition_is_an_error_not_a_warning(self, capsys):
        # P(x=0|y=0) at a = c = 0 is 0/0: one error line, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "joint", "--op", "relations",
                                     "--mode", "constrained",
                                     "--point", "0,0,0,1",
                                     "--family", "independent")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Warning" not in err

    def test_unconstrained_fisher_is_three_by_three(self, capsys):
        code, out, err = run_cli(capsys, "joint", "--op", "fisher",
                                 "--mode", "unconstrained",
                                 "--point", "0.4,0.1,0.2,0.3",
                                 "--format", "json")
        payload = json.loads(out)
        assert payload["dimension"] == 3
        assert len(payload["matrix"]) == 3


class TestGameFlags:
    def test_custom_coefficients_change_the_choice(self, capsys):
        code, out, err = run_cli(capsys, "game",
                                 "--cx", "0,-2,-1.5,3",
                                 "--cy", "0,5,2,-4",
                                 "--format", "json")
        payload = json.loads(out)
        assert payload["chosen"]["label"] == "rho=0"
        assert payload["chosen"]["payoffs"][1] == 2.5

    def test_wrong_coefficient_count_rejected(self, capsys):
        code, out, err = run_cli(capsys, "game", "--cx", "1,2")
        assert code == 2

    def test_non_numeric_coefficients_rejected(self, capsys):
        code, out, err = run_cli(capsys, "game", "--cy", "a,b,c,d")
        assert code == 2


class TestDeterminism:
    def test_seeded_table_is_byte_identical(self, capsys):
        argv = ("table1", "--case", "corr", "--samples", "3",
                "--seed", "7", "--format", "json")
        code, first, err = run_cli(capsys, *argv)
        code, second, err = run_cli(capsys, *argv)
        assert first == second

    def test_sweep_is_byte_identical(self, capsys):
        argv = ("tree-opt", "--sweep", "--format", "csv")
        code, first, err = run_cli(capsys, *argv)
        code, second, err = run_cli(capsys, *argv)
        assert first == second


class TestGaussianCheckCommand:
    def test_all_rows_pass_by_default(self, capsys):
        code, out, err = run_cli(capsys, "gaussian-check", "--format", "json")
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["rows"]) == 6

    def test_tolerance_override_recomputes_verdicts(self, capsys):
        code, out, err = run_cli(capsys, "gaussian-check",
                                 "--tol", "1e-30", "--format", "json")
        payload = json.loads(out)
        assert payload["all_passed"] is False
        modes = {row["mode"] for row in payload["rows"] if not row["passed"]}
        assert modes == {"constrained", "limit"}


class TestRenderHelpers:
    def test_cells_cover_every_scalar_type(self):
        report = Report(
            title="probe",
            columns=("a", "b", "c", "d", "e", "f", "g", "h", "i"),
            rows=((None, True, 3, 0.25, (1.0, 2.0), "text", math.nan,
                   math.inf, -math.inf),),
            payload={"rows": []},
        )
        assert render(report, "csv", 6).splitlines()[1] == \
            ",true,3,0.25,1;2,text,nan,inf,-inf"
        assert render(report, "text", 6).splitlines()[3] == \
            "   true  3  0.25  1;2  text  nan  inf  -inf"

    def test_json_rounds_floats_to_six_significant_digits(self):
        report = Report(title="probe", columns=("v",), rows=((1.0,),),
                        payload={"v": 1.0306749817,
                                 "w": [math.inf, math.nan, -math.inf]})
        payload = json.loads(render(report, "json"))
        assert payload["v"] == 1.03067
        assert payload["w"] == ["inf", "nan", "-inf"]


class TestEntryPoints:
    def test_module_entry_point_warns_nothing(self):
        src = str(Path(isograd.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run([sys.executable, "-m", "isograd.cli", "game"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("two-stage game")

    def test_cli_is_a_lazy_package_attribute(self):
        assert "cli" in isograd.__all__
        assert isograd.cli.main is main
        with pytest.raises(AttributeError):
            isograd.no_such_module


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_sweep_example_is_verbatim(self, capsys):
        prompt = "$ isograd tree-opt --sweep --format csv\n"
        block = README.read_text().split(prompt, 1)[1].split("```", 1)[0]
        code, out, err = run_cli(capsys, "tree-opt", "--sweep",
                                 "--format", "csv")
        assert code == 0
        assert out == block

    def test_library_example_gives_its_commented_results(self):
        # runs the block statement by statement; an expression statement's
        # value is checked against the literal commented at its end
        text = README.read_text().split("## Library\n", 1)[1]
        code = text.split("```python\n", 1)[1].split("```", 1)[0]
        lines, namespace, results = code.splitlines(), {}, []
        for stmt in ast.parse(code).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README",
                                     "eval"), namespace)
                comment = lines[stmt.end_lineno - 1].partition("#")[2]
                results.append((value, ast.literal_eval(comment.strip())))
            else:
                exec(compile(ast.Module([stmt], type_ignores=[]), "README",
                             "exec"), namespace)
        (flat, flat_doc), (kind, kind_doc), (slopes, slopes_doc) = results
        assert flat == flat_doc == (0.0,)
        assert kind == kind_doc == "diverging"
        # the engine prints 0.3999999999906856 and 0.29999999998781
        assert slopes_doc == (0.4, 0.3)
        assert slopes == pytest.approx(slopes_doc, rel=0, abs=1e-9)
