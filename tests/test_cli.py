"""Scenario language, runner determinism, report formats, exit codes."""

import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coisokit import (
    CoisoKitError,
    InvertedBivector,
    RingElement,
    ScenarioError,
    VerticalSection,
)
from coisokit.cli import (
    CHECKS,
    MAX_ORDER,
    MAX_PENCIL_TERMS,
    CheckSpec,
    RunFlags,
    Scenario,
    emit_report,
    main,
    parse_scenario,
    render_scenario,
    report_from_json,
    run,
)
from coisokit.linfty import make_coiso_algebra, mc_partial_table
from coisokit.symplectic_model import MAX_PENCIL_SIZE

DATA = os.path.join(os.path.dirname(__file__), "data")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

T4_TEXT = open(os.path.join(DATA, "t4.scn"), encoding="utf-8").read()


# two periodic coordinates and one plain one
CHART = "chart base=(y1*,y2*,x) fibre=(p1)\n"
CHART2 = "chart base=(y1*,y2*,x) fibre=(p1,p2)\n"


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
        assert s.bindings["pi"].source_form == s.bindings["omega"]
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

    def test_zero_field_adds_to_a_field_of_any_degree(self):
        s = parse_scenario(CHART + "v = 0*@p1 + @x/\\@p1\n")
        assert s.bindings["v"].degree == 2

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

    def test_round_trip_keeps_the_jet_of_an_inverted_form(self):
        # a fibre-dependent form inverts to a jet of order `truncation`; its
        # polynomial text would parse back as an exact field
        chart = "chart base=(x1,x2,q1,q2) fibre=(p1,p2)\n"
        form = "dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2 + x2*dp1/\\dx1 + p1*dx2/\\dx1"
        text = chart + f"pi = inv_form({form})\na = (x2/10, x1/10)\ncheck mc a 4\n"
        for truncation in (4, 6):
            s = parse_scenario(text, truncation=truncation)
            assert s.bindings["pi"].jet_order() == truncation
            rendered = render_scenario(s)
            assert "pi = inv_form(" in rendered
            again = parse_scenario(rendered, truncation=truncation)
            assert again == s
            assert again.bindings["pi"].jet_order() == truncation
        # a jet built by arithmetic has no text that parses back to it
        s = parse_scenario(chart + f"rho = inv_form({form})\ntwice = 2*rho\n")
        assert s.bindings["twice"].jet_order() == 6
        with pytest.raises(CoisoKitError, match="'twice'"):
            render_scenario(s)

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


    def test_one_component_section_is_written_with_a_trailing_comma(self):
        # '(x)' is the scalar x; '(x,)' is the section with the one component x
        text = (
            CHART
            + "pi = inv_form(dx/\\dp1 + dy1/\\dy2)\n"
            + "f = (x)\n"
            + "a = (x,)\n"
            + "check mc a\n"
            + "check coisotropic a\n"
            + "check jacobi a\n"
        )
        s = parse_scenario(text)
        assert isinstance(s.bindings["f"], RingElement)
        a = s.bindings["a"]
        assert isinstance(a, VerticalSection)
        assert [c.render() for c in a.components()] == ["x"]
        report = run(s, RunFlags(samples=4))
        assert [r.status for r in report.results] == ["pass"] * 3
        assert dict(report.results[0].details)["exact_match"] == "true"
        rendered = render_scenario(s)
        assert "a = (x,)\n" in rendered
        assert parse_scenario(rendered) == s

    @pytest.mark.parametrize(
        "body, value",
        [("f = sin(2*pi*y1,)\n", "sin(2*pi*y1)"), ("f = (1, 2,)\n", None)],
    )
    def test_argument_lists_take_a_trailing_comma(self, body, value):
        chart = "chart base=(y1*,y2*,x) fibre=(p1,p2)\n"
        f = parse_scenario(chart + body).bindings["f"]
        if value is None:
            assert [c.render() for c in f.components()] == ["1", "2"]
        else:
            assert f.render() == value

    @pytest.mark.parametrize(
        "line",
        [
            "check mc a x",
            "check mc a 0",
            "check pencil rational_pencil.txt -1",
            # orders above MAX_ORDER, one of them past sys.maxsize
            f"check mc a {MAX_ORDER + 1}",
            "check mc a 99999999999999999999999",
            f"check pencil rational_pencil.txt {MAX_ORDER + 1}",
            "check pencil rational_pencil.txt 99999999999999999999999",
        ],
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

    def test_orders_up_to_the_bound_parse(self):
        # parsed only: no check at this order is run
        text = T4_TEXT.split("check")[0]
        for line, param in (
            (f"check mc a {MAX_ORDER}", MAX_ORDER),
            (f"check pencil rational_pencil.txt {MAX_ORDER}", MAX_ORDER),
            # the lower bounds, an order left out, and a degree, which has no bound
            ("check mc a 1", 1), ("check pencil p.txt 0", 0), ("check mc a", None),
            ("check omega_le omega -7", -7), ("check omega_le omega 10000", 10000),
        ):
            assert parse_scenario(text + line + "\n").checks[0].param == param

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
        assert not isinstance(s.bindings["pi"], InvertedBivector)
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

    def test_aliased_inv_form_keeps_its_source(self, self_brackets):
        # pi bound to a name that holds inv_form(...) is the same bivector:
        # its inversion checked [pi, pi] = 0 and the oracle inverts the form
        text = (
            "chart base=(x1*,x2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dx1/\\dx2, q1, q2) + sin(2*pi*x1)*dp1/\\dx2"
            " + 2*pi*p1*cos(2*pi*x1)*dx1/\\dx2\n"
            "sigma = inv_form(omega)\n"
            "pi = sigma\n"
            "a = (sin(2*pi*x1)/100, sin(2*pi*x2)/100)\n"
            "check mc a 3\n"
        )
        s = parse_scenario(text)
        assert s.bindings["pi"].source_form == s.bindings["omega"]
        report = run(s, RunFlags(samples=4))
        assert self_brackets == [s.bindings["pi"]]
        direct = parse_scenario(text.replace("sigma = inv_form(omega)\npi = sigma",
                                             "pi = inv_form(omega)"))
        assert emit_report(report, "csv") == emit_report(
            run(direct, RunFlags(samples=4)), "csv"
        )

    # the overflow is the point here: the suite's error filter stays on elsewhere
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mc_table_that_overflows_to_nan_is_an_error(self):
        # lambda_2(b, b) ~ 10^308 overflows on the grid, and inf - inf is NaN
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "pi = inv_form(gotay(dy1/\\dy2, q1, q2))\n"
            "b = (10^154*sin(2*pi*y1), 10^154*sin(2*pi*y2))\n"
            "check mc b 2\n"
        )
        result = run(parse_scenario(text), RunFlags(samples=4)).results[0]
        assert result.status == "error"
        assert "not a number at (" in dict(result.details)["message"]

    @pytest.mark.parametrize(
        "section, check",
        [
            ("a = (10^400*sin(2*pi*y1), sin(2*pi*y2))", "coisotropic a"),
            ("a = (10^400*sin(2*pi*y1), sin(2*pi*y2))", "mc a 2"),
            # lambda_2(b, b) has coefficients of 10^400
            ("b = (10^200*sin(2*pi*y1), 10^200*sin(2*pi*y2))", "mc b 2"),
        ],
    )
    def test_a_coefficient_beyond_the_float_range_is_a_per_check_error(
        self, section, check, tmp_path, capsys
    ):
        scn = tmp_path / "overflow.scn"
        scn.write_text(
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "pi = inv_form(gotay(dy1/\\dy2, q1, q2))\n"
            f"{section}\ncheck {check}\n"
        )
        assert main(["run", str(scn)]) == 3
        out = capsys.readouterr().out
        assert f"[1] {check}: error\n    message: a coefficient is beyond the float range\n" in out

    def test_mc_table_between_the_pass_bound_and_a_looser_one_fails(self):
        # the order-4 error of this jet lies between 1e-8 (the bound) and
        # 1e-4, so a looser bound would pass it
        text = (
            "chart base=(x1,x2,q1,q2) fibre=(p1,p2)\n"
            "omega = dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2 + x2*dp1/\\dx1 + p1*dx2/\\dx1\n"
            "pi = inv_form(omega)\n"
            "a = (x2/10, x1/10)\n"
            "check mc a 4\n"
        )
        result = run(parse_scenario(text)).results[0]
        assert result.status == "fail"
        assert dict(result.details)["max_error_at_order"] == "1.111111111111e-05"
        assert 1e-8 < result.defect < 1e-4

    @pytest.mark.parametrize(
        "scale, defect", [(10000, "3.947841760436e-07"), (100000, "3.947841760436e-09")]
    )
    def test_coisotropic_section_past_the_bound_fails(self, scale, defect):
        # both defects lie between the bound 1e-9 and 1e-3, so a looser bound
        # would pass them
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "pi = inv_form(gotay(dy1/\\dy2, q1, q2))\n"
            f"a = (1/{scale}*sin(2*pi*y1), 1/{scale}*sin(2*pi*y2))\n"
            "check coisotropic a\n"
        )
        result = run(parse_scenario(text)).results[0]
        assert result.status == "fail"
        assert result.details == (("max_defect", defect),)

    def test_report_states_the_parse_truncation(self):
        s = parse_scenario(T4_TEXT, name="t4.scn", base_dir=DATA, truncation=9)
        assert s.truncation == 9
        report = run(s)
        text = emit_report(report, "text")
        assert text.splitlines()[2] == "flags: truncation=9 samples=32 strict=false"
        assert json.loads(emit_report(report, "json"))["flags"]["truncation"] == 9

    def test_t4_checks_all_pass(self):
        report = run(t4_scenario())
        assert [r.status for r in report.results] == ["pass"] * 6
        assert report.exit_code() == 0

    def test_golden_text_report(self):
        for name in ("t4", "t4_exact"):
            text = open(os.path.join(DATA, f"{name}.scn"), encoding="utf-8").read()
            report = run(parse_scenario(text, name=f"{name}.scn", base_dir=DATA))
            golden = open(os.path.join(DATA, f"{name}_report.txt"), encoding="utf-8").read()
            assert emit_report(report, "text") == golden, name

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

    def test_complex_section_is_a_per_check_error(self, tmp_path, capsys):
        # the partial sums of an imaginary section are not real: the table
        # check reports the first such value instead of a traceback
        scn = tmp_path / "complex.scn"
        scn.write_text(
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "pi = inv_form(dy1/\\dy2 + dq1/\\dp1 + dq2/\\dp2)\n"
            "a = (i*sin(2*pi*y1), sin(2*pi*y2))\n"
            "check mc a 2\n"
        )
        assert main(["run", str(scn)]) == 3
        out = capsys.readouterr().out
        assert "[1] mc a 2: error\n    message: expected a real value, got " in out
        assert "error=1" in out

    def test_gotay_form_lives_on_the_bounded_scenario_chart(self):
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2) domain=1/2\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "c = (1/4, -1/3)\n"
            "check mc c\n"
            "check coisotropic c\n"
        )
        s = parse_scenario(text)
        assert s.bindings["omega"].chart == s.chart
        assert s.chart.fibre_bound == Fraction(1, 2)
        report = run(s)
        assert [r.status for r in report.results] == ["pass", "pass"]

    def test_every_check_of_a_section_reads_the_domain_bound(self, tmp_path, capsys):
        # mc a, mc a N and coisotropic a share one domain rule: a section
        # outside the tube is an error in each, one inside passes in each
        text = (
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2) domain=1/2\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "a = (1, 0)\n"
            "c = (1/4, -1/3)\n"
            "check mc a\n"
            "check mc a 2\n"
            "check coisotropic a\n"
            "check mc c\n"
            "check mc c 2\n"
            "check coisotropic c\n"
        )
        report = run(parse_scenario(text), RunFlags(samples=2))
        statuses = [r.status for r in report.results]
        assert statuses == ["error"] * 3 + ["pass"] * 3
        for r in report.results[:3]:
            message = dict(r.details)["message"]
            assert "leaves the tubular domain" in message and "> 0.5" in message
        scn = tmp_path / "domain.scn"
        scn.write_text(text)
        assert main(["run", str(scn), "--samples", "2"]) == 3
        assert "error=3" in capsys.readouterr().out

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


# the T^4 scenario up to its first check: a check line added to it is line 7
T4_BINDINGS = T4_TEXT.split("check")[0]
# a bivector inverted from a fibre-dependent form is a jet
JET_PI = (
    "chart base=(x1,x2,q1,q2) fibre=(p1,p2)\n"
    "pi = inv_form(dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2 + x2*dp1/\\dx1 + p1*dx2/\\dx1)\n"
    "a = (x2/10, x1/10)\n"
)


class TestCheckKinds:
    """``cli.CHECKS`` is the one list of check kinds; every message a check
    line or a check run can give, pinned as it reads."""

    def test_readme_grammar_names_the_kinds_in_order(self):
        readme = open(README, encoding="utf-8").read()
        production = readme.split('check    := "check" (', 1)[1].split(")", 1)[0]
        kinds = [alt.split()[0] for alt in production.split("|")]
        assert kinds == list(CHECKS)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("check", "unknown check (expected one of coisotropic, mc, kuranishi, "
                      "jacobi, omega_le, pencil)"),
            ("check bogus a", "unknown check (expected one of coisotropic, mc, "
                              "kuranishi, jacobi, omega_le, pencil)"),
            ("check coisotropic", "check coisotropic takes exactly one name"),
            ("check kuranishi a a", "check kuranishi takes exactly one name"),
            ("check jacobi", "check jacobi takes exactly one name"),
            ("check mc", "check mc takes a name and an optional order"),
            ("check mc a 1 2", "check mc takes a name and an optional order"),
            ("check omega_le omega", "check omega_le takes a name and a degree"),
            ("check pencil p.txt", "check pencil takes a file and an order"),
            ("check coisotropic b", "undefined name 'b' in check"),
            # the binding is read before the integer, but a pencil names a file
            ("check mc b x", "undefined name 'b' in check"),
            ("check omega_le b x", "undefined name 'b' in check"),
            ("check pencil b x", "check pencil: order must be an integer, found 'x'"),
            ("check mc a x", "check mc: order must be an integer, found 'x'"),
            ("check mc a 0", "check mc: order must be at least 1, found 0"),
            (f"check mc a {MAX_ORDER + 1}",
             f"check mc: order must be at most {MAX_ORDER}, found {MAX_ORDER + 1}"),
            ("check omega_le omega 1.5",
             "check omega_le: degree must be an integer, found '1.5'"),
            ("check pencil p.txt -1", "check pencil: order must be at least 0, found -1"),
            (f"check pencil p.txt {MAX_ORDER + 1}",
             f"check pencil: order must be at most {MAX_ORDER}, found {MAX_ORDER + 1}"),
        ],
    )
    def test_parse_error_messages(self, line, message):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(T4_BINDINGS + line + "\n")
        assert str(err.value) == f"line 7: {message}"

    @pytest.mark.parametrize(
        "text, check, message",
        [
            (T4_BINDINGS, CheckSpec("bogus", "a"), "unknown check kind 'bogus'"),
            (T4_BINDINGS, CheckSpec("kuranishi", "b"), "binding 'b' is not defined"),
            (T4_BINDINGS, CheckSpec("coisotropic", "omega"),
             "check target must be a vertical section"),
            (T4_BINDINGS, CheckSpec("omega_le", "a", 1),
             "omega_le target must be a differential form"),
            (JET_PI, CheckSpec("mc", "a"), "jet-mode bivector: give an order, e.g. 'check mc a 8'"),
        ],
        ids=["unknown_kind", "undefined_binding", "form_as_section", "section_as_form",
             "jet_mc_without_order"],
    )
    def test_run_error_messages(self, text, check, message):
        # a Scenario built in code holds checks no scenario line would parse to
        s = parse_scenario(text)
        report = run(Scenario(s.chart, s.bindings, (check,)))
        assert [(r.status, r.details) for r in report.results] == [
            ("error", (("message", message),))
        ]
        assert report.exit_code() == 3

    @pytest.mark.parametrize(
        "content, reason",
        [(None, "[Errno 2] No such file or directory"),
         (b"1 \xff\n", "'utf-8' codec can't decode byte 0xff in position 2")],
        ids=["missing", "not_utf8"],
    )
    def test_an_unreadable_pencil_file_is_a_per_check_error(self, content, reason, tmp_path):
        if content is not None:
            (tmp_path / "p.txt").write_bytes(content)
        report = run(parse_scenario(T4_BINDINGS + "check pencil p.txt 2\n",
                                    base_dir=str(tmp_path)))
        message = dict(report.results[0].details)["message"]
        assert message.startswith(f"cannot read pencil file: {reason}")
        assert report.exit_code() == 3

    @pytest.mark.parametrize("order, count", [(62, MAX_PENCIL_TERMS), (63, 2080)])
    def test_a_pencil_series_is_bounded_in_monomials(self, order, count, tmp_path):
        """Two parameter blocks have C(order + 2, 2) monomials: 2016 at order
        62, the bound, runs; 2080 at order 63 is a per-check error."""
        (tmp_path / "p.txt").write_text("2\n\n1\n\n-1/2\n")
        report = run(parse_scenario(T4_BINDINGS + f"check pencil p.txt {order}\n",
                                    base_dir=str(tmp_path)))
        result = report.results[0]
        if count <= MAX_PENCIL_TERMS:
            assert (result.status, report.exit_code()) == ("pass", 0)
        else:
            assert (result.status, report.exit_code()) == ("error", 3)
            assert dict(result.details)["message"] == (
                f"pencil series at order 63 with 2 parameter blocks has 2080 "
                f"monomials, above the bound {MAX_PENCIL_TERMS}")


    @staticmethod
    def dense_pencil_text(n):
        """A = I + (all ones), det n + 1, and one dense block B: no zero entry."""
        a = "\n".join(" ".join("2" if i == j else "1" for j in range(n)) for i in range(n))
        b = "\n".join(" ".join(f"{(i + 2 * j) % 5 - 2 or 3}/2" for j in range(n))
                      for i in range(n))
        return f"{a}\n\n{b}\n"

    def test_a_dense_pencil_of_the_bound_size_passes(self, tmp_path):
        (tmp_path / "p.txt").write_text(self.dense_pencil_text(MAX_PENCIL_SIZE))
        report = run(parse_scenario(T4_BINDINGS + "check pencil p.txt 3\n",
                                    base_dir=str(tmp_path)))
        result = report.results[0]
        assert (result.status, report.exit_code()) == ("pass", 0)
        assert dict(result.details)["size"] == str(MAX_PENCIL_SIZE)

    @pytest.mark.parametrize("size", [MAX_PENCIL_SIZE + 1, 24])
    def test_a_pencil_above_the_bound_size_is_refused_at_once(self, size, tmp_path):
        """One row more than the bound is a per-check error naming the size
        and the bound, raised before A's determinant: a dense 24 x 24 file
        ran for minutes in its Laplace expansion."""
        (tmp_path / "p.txt").write_text(self.dense_pencil_text(size))
        scenario = parse_scenario(T4_BINDINGS + "check pencil p.txt 2\n",
                                  base_dir=str(tmp_path))
        start = time.perf_counter()
        report = run(scenario)
        assert time.perf_counter() - start < 1
        result = report.results[0]
        assert (result.status, report.exit_code()) == ("error", 3)
        assert dict(result.details)["message"] == (
            f"A has {size} rows, above the bound MAX_PENCIL_SIZE = {MAX_PENCIL_SIZE}")


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

    def test_mc_table_samples_the_library_grid(self):
        # pi depends on the fibre coordinate p1, which is not a grid axis:
        # the grid varies x1 and x2 only, 32 points each
        text = (
            "chart base=(x1*,x2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dx1/\\dx2, q1, q2) + sin(2*pi*x1)*dp1/\\dx2"
            " + 2*pi*p1*cos(2*pi*x1)*dx1/\\dx2\n"
            "pi = inv_form(omega)\n"
            "a = (sin(2*pi*x1)/100, sin(2*pi*x2)/100)\n"
            "check mc a 3\n"
        )
        s = parse_scenario(text)
        assert "p1" in s.bindings["pi"].support_names()
        lines = emit_report(run(s), "csv").splitlines()
        alg = make_coiso_algebra(s.bindings["pi"])
        table = mc_partial_table(alg, s.bindings["a"], 3)
        assert len(lines) - 2 == len(table.rows) == 32 * 32 * 3
        assert lines[2:] == table.to_csv().splitlines()[1:]

    def test_unknown_format_is_refused(self, tmp_path):
        path = tmp_path / "out.xml"
        with pytest.raises(CoisoKitError, match=r"^unknown format 'xml' \(use text, json or csv\)$"):
            emit_report(run(t4_scenario()), "xml", str(path))
        assert not path.exists()

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

    def test_a_scenario_file_that_is_not_utf8_is_a_runtime_error(self, tmp_path, capsys):
        scn = tmp_path / "latin1.scn"
        scn.write_bytes(T4_TEXT.encode("utf-8") + b"# caf\xe9\n")
        assert main(["run", str(scn)]) == 3
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xe9")

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
            # a bound <= 0 leaves no tubular domain, not even the zero section
            ("chart base=(y1*) fibre=(p1) domain=-1\n", None, 2, "line 1"),
            ("chart base=(y1*) fibre=(p1) domain=0\n", None, 2, "line 1"),
            ("chart base=(y1*\n", None, 2, "line 1"),
            ("chart base=(y1* fibre=(p1)\n", None, 2, "line 1"),
            # names the grammar reads as a constant or a form symbol
            ("chart base=(pi,x) fibre=(p)\n", None, 2, "line 1"),
            ("chart base=(i) fibre=(p)\n", None, 2, "line 1"),
            ("chart base=(x,dx) fibre=(p)\n", None, 2, "line 1"),
            ("chart base=(x) fibre=(dx)\n", None, 2, "line 1"),
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
            # a sum of two nonzero fields of different degrees
            (CHART + "v = @p1 + @x/\\@p1\n", None, 2, "line 2, col 9"),
            (CHART + "w = dp1 - dx/\\dp1\n", None, 2, "line 2, col 9"),
        ],
        ids=[
            "domain_abc", "empty_domain", "negative_domain", "zero_domain",
            "missing_paren", "unclosed_base",
            "coordinate_pi", "coordinate_i", "base_form_symbol", "fibre_form_symbol",
            "pencil_token", "col_after_short_name", "col_after_long_name",
            "col_after_indent", "sin_odd_multiple", "sin_constant_phase",
            "sin_square", "sin_imaginary", "sin_non_periodic", "sin_vector",
            "inv_form_of_a_1_form", "mixed_degree_vectors", "mixed_degree_forms",
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

    @pytest.mark.parametrize("check", ["coisotropic a", "mc a 2", "mc a", "kuranishi a"])
    def test_section_of_degree_two_is_a_per_check_error(self, check, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
            "omega = gotay(dy1/\\dy2, q1, q2)\n"
            "pi = inv_form(omega)\n"
            "a = @p1/\\@p2\n"
            f"check {check}\n"
            "check jacobi a\n"
        )
        assert main(["run", str(scn)]) == 3
        out = capsys.readouterr().out
        assert (
            f"[1] {check}: error\n"
            "    message: a deformation section has degree 1, not 2\n"
            "[2] jacobi a: pass\n"
        ) in out

    @pytest.mark.parametrize(
        "chart, body, message",
        [
            (
                "chart base=(x) fibre=(p)\n", "v = @z\n",
                "line 2, col 5: 'z' is not a coordinate of (x, p)",
            ),
            (
                "chart base=(x,q) fibre=(p)\n", "omega = gotay(dx/\\dq, p)\n",
                "line 2, col 9: 'p' is not a coordinate of (x, q)",
            ),
        ],
        ids=["vector_symbol", "gotay_kernel"],
    )
    def test_unknown_coordinate_lists_the_chart_names(
        self, chart, body, message, tmp_path, capsys
    ):
        scn = tmp_path / "bad.scn"
        scn.write_text(chart + body)
        assert main(["run", str(scn)]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: {message}\n"
        assert "ChartSpec(" not in err

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

    @pytest.mark.parametrize(
        "chart, body, message",
        [
            # the library's value types decide which operand kinds combine
            (CHART2, "f = dx * @p1\n",
             "line 2, col 8: '*' multiplies scalars or scales by a scalar"),
            (CHART2, "f = @p1 * @p2\n",
             "line 2, col 9: '*' multiplies scalars or scales by a scalar"),
            (CHART2, "f = x - dx\n", "line 2, col 7: cannot add values of different kinds"),
            (CHART2, "f = @x + dx\n", "line 2, col 8: cannot add values of different kinds"),
            (CHART2, "f = 2 + @x\n", "line 2, col 7: cannot add values of different kinds"),
            # a number is a run of decimal digits; '²' is read as a name
            (CHART2, "f = ²\n", "line 2, col 5: undefined name '²'"),
            (CHART2, "f = x^²\n", "line 2, col 7: exponent must be an integer"),
            (CHART2, "f = @1x\n", "line 2, col 5: '@' must be followed by a coordinate"),
            # chart names follow the ChartSpec rule, reported on the chart line
            ("chart base=(x-1)\n", "", "line 1: invalid chart coordinate name 'x-1'"),
            ("chart base=(x,y1**) fibre=(p)\n", "",
             "line 1: invalid chart coordinate name 'y1*'"),
            ("chart base=(x) fibre=(p,1q)\n", "",
             "line 1: invalid chart coordinate name '1q'"),
            # a Gotay model whose fibre names differ from the chart's
            ("chart base=(y1*,y2*,q*) fibre=(r)\n", "omega = gotay(dy1/\\dy2, q)\n",
             "line 2, col 9: gotay produces fibre coordinates ('p',), "
             "scenario chart has ('r',)"),
            # the Gotay determinant vanishes at a sampled base point
            ("chart base=(y1*,y2*,q*) fibre=(p)\n",
             "omega = gotay(sin(2*pi*y1)*dy1/\\dy2, q)\n",
             "line 2, col 9: form is numerically degenerate at (0.0, 0.0, 0.0, 0.0)"),
            # inv_form names the whole determinant, not one of its blocks
            ("chart base=(y1*,y2*,q1*) fibre=(p1)\n",
             "omega = dy1/\\dy2 + (1+pi)*dq1/\\dp1\npi = inv_form(omega)\n",
             "line 3, col 6: form is not exactly invertible at y = 0: "
             "cannot invert Scalar((1 + 2*pi + pi^2)): not a single pi-power term"),
            ("chart base=(x,y2*,q1*) fibre=(p1)\n",
             "omega = x*dx/\\dy2 + dq1/\\dp1\npi = inv_form(omega)\n",
             "line 3, col 6: form is not exactly invertible at y = 0: "
             "x^2 has a monomial factor and no inverse in the ring"),
            # a library error is reported at the node whose evaluation raised it
            ("chart base=(x*) fibre=(y)\n", "f = @z\n",
             "line 2, col 5: 'z' is not a coordinate of (x, y)"),
            ("chart base=(x*) fibre=(y)\n", "f = 1/(1+pi)\n",
             "line 2, col 6: cannot invert Scalar((1 + pi)): not a single pi-power term"),
            ("chart base=(x) fibre=(y)\n", "f = x/0\n",
             "line 2, col 6: cannot invert Scalar(0): not a single pi-power term"),
            ("chart base=(x*) fibre=(y)\n", "f = (pi+1)^-1\n",
             "line 2, col 11: cannot invert Scalar((1 + pi)): not a single pi-power term"),
            ("chart base=(x*) fibre=(y)\n", "a = (y,)\n",
             "line 2, col 5: coefficient 'y' depends on a fibre coordinate"),
            ("chart base=(x) fibre=(y1,y2)\n", "a = (x,)\n",
             "line 2, col 5: expected 2 components, got 1"),
            ("chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n", "w = gotay(dy1/\\dy2, q1)\n",
             "line 2, col 5: form is degenerate along the zero section"),
            # a kernel direction given twice is named, not blamed on the form
            ("chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n",
             "omega = gotay(dy1/\\dy2, q1, q1)\n",
             "line 2, col 9: kernel direction 'q1' is repeated"),
            # operand kinds that a constructor or an operator refuses
            (CHART2, "a = (@x, x)\n", "line 2, col 5: tuple entries must be scalar expressions"),
            (CHART, "f = dx^2\n",
             "line 2, col 7: '^' needs a scalar base (negative powers: constants)"),
            (CHART, "f = x^-1\n",
             "line 2, col 6: '^' needs a scalar base (negative powers: constants)"),
            (CHART, "f = dx /\\ @x\n", "line 2, col 8: wedge needs two vectors or two forms"),
            (CHART, "f = x /\\ x\n", "line 2, col 7: wedge needs two vectors or two forms"),
            (CHART, "f = 1/x\n", "line 2, col 6: '/' divides by a constant only"),
            (CHART, "f = dx/@x\n", "line 2, col 7: '/' divides by a constant only"),
            # argument lists of the built-in functions
            (CHART, "f = cos(2*pi*y1, 2*pi*y2)\n", "line 2, col 5: cos takes one argument"),
            (CHART, "f = inv_form(dx/\\dy1, dy2)\n",
             "line 2, col 5: inv_form takes one form argument"),
            ("chart base=(y1*,y2*,q*) fibre=(p)\n", "omega = gotay(dy1/\\dy2)\n",
             "line 2, col 9: gotay(form, kernel coordinates...) expected"),
            ("chart base=(y1*,y2*,q*) fibre=(p)\n", "omega = gotay(@q, q)\n",
             "line 2, col 9: gotay needs a differential form"),
            ("chart base=(y1*,y2*,q*) fibre=(p)\n", "omega = gotay(dy1/\\dy2, 2*q)\n",
             "line 2, col 9: gotay kernel entries must be names"),
            (CHART, "chart base=(x) fibre=(y)\n", "line 2: chart is already declared"),
        ],
        ids=[
            "form_times_vector", "vector_times_vector", "scalar_minus_form",
            "vector_plus_form", "scalar_plus_vector", "superscript_two",
            "superscript_exponent", "vector_symbol_digit", "chart_difference",
            "chart_double_star", "chart_digit_start", "gotay_fibre_names",
            "gotay_degenerate", "inv_form_pi_polynomial_det",
            "inv_form_monomial_det", "vector_not_a_coordinate",
            "divide_by_non_monomial", "divide_by_zero", "negative_power_of_sum",
            "section_in_fibre", "section_too_short", "gotay_degenerate_at_zero",
            "gotay_repeated_kernel_direction", "tuple_of_a_vector", "power_of_a_form",
            "negative_power_of_a_coordinate", "wedge_of_form_and_vector", "wedge_of_scalars",
            "divide_by_a_coordinate", "divide_by_a_vector", "cos_of_two_arguments",
            "inv_form_of_two_arguments", "gotay_without_kernel", "gotay_of_a_vector",
            "gotay_kernel_expression", "second_chart",
        ],
    )
    def test_parse_error_message(self, chart, body, message, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(chart + body, encoding="utf-8")
        assert main(["run", str(scn)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_nondegenerate_gotay_determinant_passes_the_sampling(self, tmp_path, capsys):
        scn = tmp_path / "ok.scn"
        scn.write_text(
            "chart base=(y1*,y2*,q*) fibre=(p)\n"
            "omega = gotay((2 + cos(2*pi*y1))*dy1/\\dy2, q)\n"
            "check omega_le omega 1\n"
        )
        assert main(["run", str(scn)]) == 0
        assert "summary: total=1 pass=1" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_timings_flag(self, fmt, tmp_path, capsys):
        scn = tmp_path / "t4.scn"
        scn.write_text(T4_TEXT)
        (tmp_path / "rational_pencil.txt").write_text(
            open(os.path.join(DATA, "rational_pencil.txt"), encoding="utf-8").read()
        )
        reports = []
        for extra in ([], ["--timings"]):
            assert main(["run", str(scn), "--format", fmt, "--samples", "2", *extra]) == 0
            reports.append(capsys.readouterr().out)
        plain, timed = reports
        if fmt == "text":
            assert "time_ms" not in plain
            times = [ln for ln in timed.splitlines() if ln.startswith("    time_ms: ")]
            assert len(times) == 6
            assert [ln for ln in timed.splitlines() if "time_ms" not in ln] == plain.splitlines()
        else:
            checks = [json.loads(out)["checks"] for out in reports]
            assert all("time_ms" not in c for c in checks[0])
            assert all(c["time_ms"] >= 0 for c in checks[1])
            assert [{k: v for k, v in c.items() if k != "time_ms"} for c in checks[1]] == checks[0]

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

    def test_out_flag_into_a_missing_directory(self, tmp_path, capsys):
        scn = tmp_path / "t.scn"
        scn.write_text(CHART + "w = dx\ncheck omega_le w 0\n")
        out = tmp_path / "missing" / "report.txt"
        assert main(["run", str(scn), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory: ")
        assert captured.err.count("\n") == 1


# characters of the scenario grammar, a few non-ASCII digits and letters, and
# any other character hypothesis draws
FUZZ_CHARS = st.one_of(
    st.sampled_from(list("xyp12()+-*/^\\@d,=#* \n") + ["²", "½", "٣", "ξ"]),
    st.characters(),
)


@st.composite
def t4_mutations(draw):
    """t4.scn with up to three short spans replaced by fuzz text."""
    text = T4_TEXT
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.text(FUZZ_CHARS, max_size=3)) + text[j:]
    return text


class TestFrontEndFuzz:
    """Any scenario text ends in an exit code of 0-3, never in a traceback."""

    @staticmethod
    def run_text(text, directory):
        scn = directory / "fuzz.scn"
        scn.write_text(text, encoding="utf-8")
        code = main(["run", str(scn), "--samples", "2", "--truncation", "1"])
        assert code in (0, 1, 2, 3)

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz")
        (path / "rational_pencil.txt").write_text(
            open(os.path.join(DATA, "rational_pencil.txt"), encoding="utf-8").read()
        )
        return path

    @settings(max_examples=300, deadline=None)
    @given(body=st.text(FUZZ_CHARS, max_size=30))
    @example(body="f = ²")
    @example(body="f = x^²")
    def test_binding_lines(self, body, directory):
        self.run_text(CHART2 + body + "\n", directory)

    @settings(max_examples=200, deadline=None)
    @given(text=t4_mutations())
    def test_t4_mutations(self, text, directory):
        self.run_text(text, directory)
