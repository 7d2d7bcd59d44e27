"""Scenario language, runner determinism, report formats, exit codes."""

import json
import os

import pytest

from coisokit import RingElement, ScenarioError, VerticalSection
from coisokit.cli import (
    RunFlags,
    emit_report,
    main,
    parse_scenario,
    render_scenario,
    report_from_json,
    run,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

T4_TEXT = open(os.path.join(DATA, "t4.scn"), encoding="utf-8").read()


# two periodic coordinates and one plain one
CHART = "chart base=(y1*,y2*,x) fibre=(p1)\n"


def t4_scenario():
    return parse_scenario(T4_TEXT, name="t4.scn", base_dir=DATA)


class TestParsing:
    def test_empty_scenario(self):
        s = parse_scenario("")
        assert s.chart is None and not s.bindings and not s.checks

    def test_t4_scenario_content(self):
        s = t4_scenario()
        assert s.chart.base == ("y1", "y2", "q1", "q2")
        assert s.chart.fibre == ("p1", "p2")
        a = s.bindings["a"]
        assert isinstance(a, VerticalSection)
        assert [c.render() for c in a.components()] == [
            "sin(2*pi*y1)",
            "sin(2*pi*y2)",
        ]
        assert s.bindings["pi"].degree == 2
        assert "pi" in s.sources  # the inv_form source is remembered
        assert len(s.checks) == 6

    def test_undefined_name_in_check_has_line(self):
        text = "chart base=(x*) fibre=(y)\ncheck mc nope\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.line == 2

    def test_expression_error_position(self):
        text = "chart base=(x*) fibre=(y)\nf = 1 + * 2\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.line == 2

    def test_periodic_coordinate_outside_trig_rejected(self):
        text = "chart base=(x*) fibre=(y)\nf = x\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_sin_argument_validation(self):
        text = "chart base=(x*) fibre=(y)\nf = sin(3*x)\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "arg, maker, modes",
        [
            ("sin(2*pi*(y1 + y2))", "sin_of", {"y1": 1, "y2": 1}),
            ("cos(-4*pi*y1)", "cos_of", {"y1": -2}),
            ("sin(6*pi*y1 - 2*pi*y2)", "sin_of", {"y1": 3, "y2": -1}),
            ("cos(2*pi*y1 - 2*pi*y1)", None, None),
        ],
    )
    def test_sin_cos_argument_is_a_linear_phase(self, arg, maker, modes):
        s = parse_scenario(CHART + f"f = {arg}\n")
        if maker is None:
            expected = RingElement.one(s.chart)
        else:
            expected = getattr(RingElement, maker)(s.chart, modes)
        assert s.bindings["f"] == expected

    def test_rationals_pi_powers_and_wedge(self):
        text = (
            "chart base=(x*) fibre=(y)\n"
            "f = 1/2*pi^2*cos(2*pi*x) - y^2\n"
            "w = f * dx /\\ dy\n"
        )
        s = parse_scenario(text)
        assert s.bindings["w"].degree == 2

    def test_round_trip(self):
        s = t4_scenario()
        again = parse_scenario(render_scenario(s), base_dir=DATA)
        assert again == s

    def test_round_trip_simple(self):
        text = (
            "chart base=(u*,v) fibre=(w) domain=1/2\n"
            "f = 2 + v^2 - sin(4*pi*u)\n"
            "g = f * @w\n"
            "check omega_le f 0\n"
        )
        s = parse_scenario(text)
        assert parse_scenario(render_scenario(s)) == s

    def test_undefined_name_in_binding(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("chart base=(x*) fibre=(y)\nf = nosuchname\n")
        assert err.value.line == 2

    def test_rendered_values_parse_back(self):
        # the textual rendering of every value kind re-parses to an equal value
        import itertools

        from conftest import rand_multivector, rand_ring, rng_for, small_chart
        from coisokit import DifferentialForm

        chart = small_chart()
        chart_line = "chart base=(x1,x2*) fibre=(y1,y2)\n"
        rng = rng_for("render-roundtrip")
        for trial in range(40):
            kind = trial % 3
            if kind == 0:
                value = rand_ring(rng, chart, real=rng.random() < 0.7)
            elif kind == 1:
                value = rand_multivector(rng, chart, rng.randint(1, 2))
            else:
                deg = rng.randint(1, 2)
                keys = list(itertools.combinations(range(chart.n_dirs), deg))
                value = DifferentialForm(
                    chart, deg, ((rng.choice(keys), rand_ring(rng, chart)),)
                )
            if value.is_zero():
                continue  # '0' parses as the scalar zero, a harmless ambiguity
            rendered = value.render()
            s = parse_scenario(chart_line + f"f = {rendered}\n")
            assert s.bindings["f"] == value, rendered


    @pytest.mark.parametrize(
        "line", ["check mc a x", "check mc a 0", "check pencil rational_pencil.txt -1"]
    )
    def test_invalid_check_parameter_is_a_parse_error(self, line, tmp_path, capsys):
        text = T4_TEXT.split("check")[0] + line + "\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, base_dir=DATA)
        assert err.value.line == text.count("\n")
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        assert main(["run", str(scn)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, value",
        [
            ("(" * 3000 + "x1" + ")" * 3000, None),
            ("-" * 3000 + "x1", None),
            ("+".join(["x1"] * 3000), "3000*x1"),
            ("sin(" + "+".join(["2*pi*y1"] * 3000) + ")", "sin(6000*pi*y1)"),
        ],
        ids=["nested_parens", "leading_minus", "flat_sum", "flat_sum_in_sin"],
    )
    def test_deep_expressions_end_in_a_documented_outcome(self, body, value):
        # nesting beyond _ExprParser.MAX_DEPTH is a positioned parse error;
        # a long flat sum is valid input and evaluates
        text = "chart base=(x1 y1*) fibre=(p1)\nf = " + body + "\n"
        if value is not None:
            assert parse_scenario(text).bindings["f"].render() == value
            return
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.line == 2 and err.value.col is not None
        assert "nested deeper than 64 levels" in str(err.value)

    @pytest.mark.parametrize("truncation", [0, 1, 6])
    def test_unclosed_form_is_rejected_at_every_truncation(self, truncation):
        # an order-0 jet would truncate [pi, pi] at order -1 and check nothing
        text = (
            "chart base=(x1,x2,q1,q2) fibre=(p1,p2)\n"
            "omega = dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2"
            " + p1*x2*dx2/\\dx1 + x1*dp1/\\dx2\n"
            "pi = inv_form(omega)\n"
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, truncation=truncation)
        assert err.value.line == 3


REBOUND_PI = (
    "chart base=(x1,x2) fibre=(p1,p2)\n"
    "pi = @x1/\\@p1 + @x2/\\@p2 + @x1/\\@x2\n"
    "a = (x1, x2)\n"
    "check coisotropic a\n"
)


class TestRun:
    def test_rebinding_pi_drops_its_inv_form_source(self):
        fresh = run(parse_scenario(REBOUND_PI))
        rebound_text = (
            REBOUND_PI.splitlines(keepends=True)[0]
            + "pi = inv_form(dx1/\\dp1 + dx2/\\dp2)\n"
            + "".join(REBOUND_PI.splitlines(keepends=True)[1:])
        )
        s = parse_scenario(rebound_text)
        assert "pi" not in s.sources
        rebound = run(s)
        for report in (fresh, rebound):
            assert report.results[0].status == "fail"
            assert report.results[0].defect == 1.0
            assert report.exit_code() == 1

    def test_rebound_pi_is_still_jacobi_checked(self):
        text = (
            "chart base=(x1,x2) fibre=(y1,y2)\n"
            "pi = inv_form(dx1/\\dy1 + dx2/\\dy2)\n"
            "pi = @x1/\\@y1 + y1*@x2/\\@y2\n"
            "a = (0, 0)\n"
            "check coisotropic a\n"
        )
        result = run(parse_scenario(text)).results[0]
        assert result.status == "error"
        assert dict(result.details)["message"] == "bivector fails the Jacobi identity"

    def test_inv_form_pi_is_jacobi_checked_once(self, self_brackets):
        s = t4_scenario()
        report = run(s)
        assert [r.status for r in report.results] == ["pass"] * 6
        assert self_brackets == [s.bindings["pi"]]

    def test_t4_checks_all_pass(self):
        report = run(t4_scenario())
        assert [r.status for r in report.results] == ["pass"] * 6
        assert report.exit_code() == 0

    def test_golden_text_report(self):
        report = run(t4_scenario())
        golden = open(os.path.join(DATA, "t4_report.txt"), encoding="utf-8").read()
        assert emit_report(report, "text") == golden

    def test_determinism(self):
        a = emit_report(run(t4_scenario()), "json")
        b = emit_report(run(t4_scenario()), "json")
        assert a == b

    def test_kuranishi_detail_contains_exact_string(self):
        report = run(t4_scenario())
        kur = next(r for r in report.results if r.kind == "kuranishi")
        details = dict(kur.details)
        assert details["integral"] == "8*pi^2*cos(2*pi*y1)*cos(2*pi*y2)"

    def test_failing_check_sets_exit_code(self):
        text = T4_TEXT + "check coisotropic a\n"
        s = parse_scenario(text, base_dir=DATA)
        report = run(s)
        assert report.results[-1].status == "fail"
        assert report.exit_code() == 1

    def test_error_is_isolated_and_run_continues(self):
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "a = (sin(2*pi*y1), sin(2*pi*y2))\n"
            "check pencil missing_file.txt 3\n"
            "check mc a\n"
        )
        s = parse_scenario(text, base_dir=DATA)
        report = run(s)
        assert report.results[0].status == "error"
        assert report.results[1].status == "pass"
        assert report.exit_code() == 3

    def test_degenerate_graph_point_is_a_per_check_error(self, tmp_path, capsys):
        # the source form is singular on the graph of a = (-1, 0): the numeric
        # oracle of both checks reports the base point instead of crashing
        text = (
            "chart base=(x1 x2 q1 q2) fibre=(p1 p2)\n"
            "omega = dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2"
            " + x2*dp1/\\dx1 + p1*dx2/\\dx1\n"
            "pi = inv_form(omega)\n"
            "a = (-1, 0)\n"
            "check coisotropic a\n"
            "check mc a 2\n"
        )
        report = run(parse_scenario(text))
        assert [r.status for r in report.results] == ["error", "error"]
        for r in report.results:
            message = dict(r.details)["message"]
            assert "degenerate on the graph over base point" in message
        scn = tmp_path / "degenerate.scn"
        scn.write_text(text)
        assert main(["run", str(scn)]) == 3
        assert "error=2" in capsys.readouterr().out

    def test_inconclusive_with_strict(self):
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "z = (0, 0)\n"
            "check kuranishi z\n"
        )
        s = parse_scenario(text)
        report = run(s)
        assert report.results[0].status == "inconclusive"
        assert report.exit_code() == 0
        strict = run(s, RunFlags(strict=True))
        assert strict.exit_code() == 1


class TestReports:
    def test_json_round_trip(self):
        report = run(t4_scenario())
        doc = report_from_json(emit_report(report, "json"))
        assert doc["summary"]["pass"] == 6
        assert doc["checks"][3]["kind"] == "kuranishi"
        assert doc["checks"][3]["details"]["verdict"] == "NONZERO"

    def test_summary_csv_columns(self):
        report = run(t4_scenario())
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "index,kind,target,param,status,defect"
        assert len(lines) == 7

    def test_convergence_csv(self):
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "a = (sin(2*pi*y1), sin(2*pi*y2))\n"
            "check mc a 3\n"
        )
        s = parse_scenario(text)
        report = run(s, RunFlags(samples=2))
        out = emit_report(report, "csv")
        lines = out.splitlines()
        assert lines[0].startswith("# check 1: mc a 3")
        header = lines[1].split(",")
        assert header[:5] == ["y1", "y2", "q1", "q2", "n"]
        assert header[-1] == "abs_error"

    def test_writes_to_file(self, tmp_path):
        report = run(t4_scenario())
        path = tmp_path / "out.json"
        emit_report(report, "json", str(path))
        assert json.loads(path.read_text())["schema"] == "coisokit-report/1"


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        scn = tmp_path / "ok.scn"
        scn.write_text(T4_TEXT)
        # data files referenced relative to the scenario location
        (tmp_path / "rational_pencil.txt").write_text(
            open(os.path.join(DATA, "rational_pencil.txt"), encoding="utf-8").read()
        )
        assert main(["run", str(scn)]) == 0
        capsys.readouterr()

        bad = tmp_path / "bad.scn"
        bad.write_text("chart base=(x*) fibre=(y)\nf = (undefined\n")
        assert main(["run", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

        assert main(["run", str(tmp_path / "missing.scn")]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag", [["--truncation", "0"], ["--samples", "1"], ["--samples", "0"]]
    )
    def test_flag_below_its_minimum_is_rejected(self, flag, tmp_path, capsys):
        scn = tmp_path / "ok.scn"
        scn.write_text(T4_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scn), *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, pencil, code, where",
        [
            ("chart base=(y1*) fibre=(p1) domain=abc\n", None, 2, "line 1"),
            ("chart base=(y1*) fibre=(p1) domain=\n", None, 2, "line 1"),
            ("chart base=(y1*\n", None, 2, "line 1"),
            ("chart base=(y1* fibre=(p1)\n", None, 2, "line 1"),
            (T4_TEXT, "1 0\n3 x\n", 3, "line 2"),
            # columns count from the start of the line, not from the '='
            (CHART + "f = 1 + * 2\n", None, 2, "line 2, col 9"),
            (CHART + "longname = 1 + * 2\n", None, 2, "line 2, col 16"),
            (CHART + "  g = sin(pi*y1)\n", None, 2, "line 2, col 7"),
            # sin/cos arguments that are not 2*pi times an integer combination
            # of periodic coordinates
            (CHART + "f = sin(pi*y1)\n", None, 2, "line 2, col 5"),
            (CHART + "f = sin(2*pi*y1 + 1)\n", None, 2, "line 2, col 5"),
            (CHART + "f = sin(2*pi*y1^2)\n", None, 2, "line 2, col 5"),
            (CHART + "f = sin(2*i*pi*y1)\n", None, 2, "line 2, col 5"),
            (CHART + "f = sin(2*pi*x)\n", None, 2, "line 2, col 14"),
            (CHART + "f = sin(@y1)\n", None, 2, "line 2, col 5"),
            (CHART + "f = inv_form(dy1)\n", None, 2, "line 2, col 5"),
        ],
        ids=[
            "domain_abc", "empty_domain", "missing_paren", "unclosed_base",
            "pencil_token", "col_after_short_name", "col_after_long_name",
            "col_after_indent", "sin_odd_multiple", "sin_constant_phase",
            "sin_square", "sin_imaginary", "sin_non_periodic", "sin_vector",
            "inv_form_of_a_1_form",
        ],
    )
    def test_malformed_input_has_a_documented_outcome(
        self, scenario, pencil, code, where, tmp_path, capsys
    ):
        scn = tmp_path / "bad.scn"
        scn.write_text(scenario)
        if pencil is not None:
            (tmp_path / "rational_pencil.txt").write_text(pencil)
        assert main(["run", str(scn)]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert err.startswith(f"parse error: {where}:")
        else:
            # the pencil check reports its error and the other checks still run
            assert f"pencil rational_pencil.txt 6: error\n    message: {where}:" in out
            assert "pass=5 fail=0 inconclusive=0 error=1" in out

    @pytest.mark.parametrize(
        "body, name, where",
        [
            ("f = sin(2*pi*x)\n", "'x'", "line 2, col 14"),
            ("f = sin(@x)\n", "'@x'", "line 2, col 9"),
            ("f = cos(2*pi*p1)\n", "'p1'", "line 2, col 14"),
            ("g = 1/2\nf = sin(2*pi*g)\n", "'g'", "line 3, col 14"),
        ],
        ids=["plain_base", "vector_symbol", "fibre", "binding"],
    )
    def test_sin_cos_argument_names_only_periodic_coordinates(
        self, body, name, where, tmp_path, capsys
    ):
        scn = tmp_path / "bad.scn"
        scn.write_text(CHART + body)
        assert main(["run", str(scn)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"parse error: {where}: only periodic coordinates may appear "
            f"in a sin/cos argument, not {name}\n"
        )

    def test_out_flag(self, tmp_path, capsys):
        scn = tmp_path / "t.scn"
        scn.write_text(
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "a = (sin(2*pi*y1), sin(2*pi*y2))\n"
            "check kuranishi a\n"
        )
        out = tmp_path / "report.txt"
        code = main(["run", str(scn), "--format", "text", "--out", str(out)])
        assert code == 0
        assert "NONZERO" in out.read_text()
        assert capsys.readouterr().out == ""
