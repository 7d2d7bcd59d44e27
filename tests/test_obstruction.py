"""The torus obstruction pipeline: closedness, Kuranishi class, certificate."""

import json
from fractions import Fraction

import pytest

from conftest import rng_for
from coisokit import (
    CoisoKitError,
    DifferentialForm,
    NotClosedError,
    RingElement,
    Scalar,
    VerticalSection,
    beta_of,
    build_T4_example,
    fibre_torus_integral,
    lambda_n,
    leafwise_d,
    leaf_subbundle,
    make_chart,
    musical_inverse,
    obstructedness_certificate,
    projection_P,
    schouten_bracket,
)


@pytest.fixture(scope="module")
def t4():
    return build_T4_example()


class TestBuildExample:
    def test_bivector_is_exact_and_constant(self, t4):
        pi = t4.algebra.pi
        assert pi.jet_order() is None
        assert schouten_bracket(pi, pi).is_zero()
        assert projection_P(pi).is_zero()
        assert all(c.is_constant() for _, c in pi.terms)

    def test_default_section_renders(self, t4):
        comps = t4.section.components()
        assert [c.render() for c in comps] == ["sin(2*pi*y1)", "sin(2*pi*y2)"]

    def test_chart_shape(self, t4):
        chart = t4.algebra.chart
        assert chart.base == ("y1", "y2", "q1", "q2")
        assert chart.fibre == ("p1", "p2")
        assert all(chart.periodic)


class TestBeta:
    def test_default_section_value(self, t4):
        beta = beta_of(t4.algebra, t4.section)
        base = t4.algebra.chart.base_chart()
        coeff = (
            RingElement.cos_of(base, {"y1": 1}) * RingElement.cos_of(base, {"y2": 1})
        ).scale(Scalar.pi_power(2, 8))
        assert beta == DifferentialForm(base, 2, (((2, 3), coeff),))

    def test_zero_section(self, t4):
        z = VerticalSection.from_components(
            t4.algebra.chart, [RingElement.zero(t4.algebra.chart)] * 2
        )
        assert beta_of(t4.algebra, z).is_zero()

    def test_constant_section(self, t4):
        chart = t4.algebra.chart
        const = VerticalSection.from_components(
            chart, [RingElement.constant(chart, 1), RingElement.constant(chart, -3)]
        )
        assert beta_of(t4.algebra, const).is_zero()

    def test_closedness_guard(self, t4):
        chart = t4.algebra.chart
        bad = VerticalSection.from_components(
            chart, [RingElement.sin_of(chart, {"q2": 1}), RingElement.zero(chart)]
        )
        with pytest.raises(NotClosedError):
            beta_of(t4.algebra, bad)

    def test_closedness_equals_leafwise_closedness(self, t4):
        # P([pi, a]) = 0 iff the leafwise image of a is d_F-closed
        alg = t4.algebra
        chart = alg.chart
        F = leaf_subbundle(alg.pi)
        rng = rng_for("closed-eq")
        for _ in range(20):
            comps = []
            for _ in range(2):
                nm = rng.choice(["y1", "y2", "q1", "q2"])
                maker = (
                    RingElement.sin_of if rng.random() < 0.5 else RingElement.cos_of
                )
                comps.append(maker(chart, {nm: rng.randint(1, 2)}))
            a = VerticalSection.from_components(chart, comps)
            lam_closed = lambda_n(alg, a).is_zero()
            leaf = musical_inverse(alg.pi, a)
            leaf_closed = leafwise_d(leaf, F).is_zero()
            assert lam_closed == leaf_closed


class TestFibreTorusIntegral:
    def test_torus_integral_value(self, t4):
        beta = beta_of(t4.algebra, t4.section)
        F = fibre_torus_integral(beta, ("q1", "q2"))
        assert F.render() == "8*pi^2*cos(2*pi*y1)*cos(2*pi*y2)"

    def test_pure_mode_integrates_to_zero(self):
        base = make_chart("y* q1* q2*")
        c = RingElement.cos_of(base, {"q1": 1})
        beta = DifferentialForm(base, 2, (((1, 2), c),))
        assert fibre_torus_integral(beta, ("q1", "q2")).is_zero()

    def test_constant_coefficient(self):
        base = make_chart("y* q1* q2*")
        c = RingElement.constant(base, Fraction(5, 3))
        beta = DifferentialForm(base, 2, (((1, 2), c),))
        assert fibre_torus_integral(beta, ("q1", "q2")) == c

    def test_orientation_sign(self):
        base = make_chart("y* q1* q2*")
        c = RingElement.constant(base, 2)
        beta = DifferentialForm(base, 2, (((1, 2), c),))
        assert fibre_torus_integral(beta, ("q2", "q1")) == -c

    def test_linear_and_kills_modes(self):
        base = make_chart("y* q1* q2*")
        rng = rng_for("torus-linear")
        for _ in range(20):
            c1 = RingElement.cos_of(base, {"q1": rng.randint(1, 3)})
            c2 = RingElement.sin_of(base, {"y": 1}) * RingElement.cos_of(
                base, {"y": 1}
            )
            b1 = DifferentialForm(base, 2, (((1, 2), c1),))
            b2 = DifferentialForm(base, 2, (((1, 2), c2),))
            lhs = fibre_torus_integral(b1 + b2, ("q1", "q2"))
            assert lhs == fibre_torus_integral(b1, ("q1", "q2")) + fibre_torus_integral(
                b2, ("q1", "q2")
            )
            assert fibre_torus_integral(b1, ("q1", "q2")).is_zero()

    def test_wrong_degree_rejected(self):
        base = make_chart("y* q1* q2*")
        beta = DifferentialForm(base, 1, (((1,), RingElement.one(base)),))
        with pytest.raises(CoisoKitError):
            fibre_torus_integral(beta, ("q1", "q2"))


class TestCertificate:
    def test_default_section_nonzero(self, t4):
        report = obstructedness_certificate(t4.algebra, t4.section)
        assert report.closed
        assert report.verdict == "NONZERO"
        assert report.integral.render() == "8*pi^2*cos(2*pi*y1)*cos(2*pi*y2)"

    def test_zero_section_inconclusive(self, t4):
        z = VerticalSection.from_components(
            t4.algebra.chart, [RingElement.zero(t4.algebra.chart)] * 2
        )
        report = obstructedness_certificate(t4.algebra, z)
        assert report.closed
        assert report.verdict == "INCONCLUSIVE"
        assert report.integral.is_zero()

    def test_constant_section_inconclusive(self, t4):
        chart = t4.algebra.chart
        const = VerticalSection.from_components(
            chart,
            [RingElement.constant(chart, Fraction(1, 2)), RingElement.constant(chart, 3)],
        )
        report = obstructedness_certificate(t4.algebra, const)
        assert report.verdict == "INCONCLUSIVE"
        assert report.integral.is_zero()

    def test_a_nonzero_constant_integral_is_inconclusive(self, t4, monkeypatch):
        """Only a non-constant integral function certifies NONZERO; a
        constant one, zero or not, leaves the class undecided.  No section
        is known whose integral is a nonzero constant (none of 169 sine and
        cosine sections on T^4 has one), so the integral is replaced here."""
        from coisokit import obstruction

        base = t4.algebra.chart.base_chart()
        monkeypatch.setattr(obstruction, "fibre_torus_integral",
                            lambda beta, dirs: RingElement.constant(base, 3))
        report = obstructedness_certificate(t4.algebra, t4.section)
        assert report.closed and report.verdict == "INCONCLUSIVE"
        assert report.integral.render() == "3"

    def test_unclosed_section_reported(self, t4):
        chart = t4.algebra.chart
        bad = VerticalSection.from_components(
            chart, [RingElement.sin_of(chart, {"q2": 1}), RingElement.zero(chart)]
        )
        report = obstructedness_certificate(t4.algebra, bad)
        assert not report.closed
        assert report.verdict == "INCONCLUSIVE"
        assert report.kuranishi is None

    def test_integral_is_real_for_real_sections(self, t4):
        rng = rng_for("certificate-real")
        chart = t4.algebra.chart
        for _ in range(10):
            comps = [
                RingElement.sin_of(chart, {"y1": rng.randint(1, 2)}).scale(
                    Fraction(rng.randint(-2, 2), 2)
                ),
                RingElement.cos_of(chart, {"y2": rng.randint(1, 2)}),
            ]
            a = VerticalSection.from_components(chart, comps)
            report = obstructedness_certificate(t4.algebra, a)
            if report.integral is not None:
                assert report.integral.is_real_element()

    def test_json_round_trip(self, t4):
        report = obstructedness_certificate(t4.algebra, t4.section)
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "NONZERO"
        assert doc["integral"] == "8*pi^2*cos(2*pi*y1)*cos(2*pi*y2)"

    def test_non_product_chart_rejected(self):
        from coisokit import coiso_algebra_from_form

        # the leaf direction x is not periodic, so the torus pipeline refuses
        chart = make_chart("q* x", "p1 p2")
        one = RingElement.one(chart)
        omega = DifferentialForm(chart, 2, (((0, 2), one), ((1, 3), one)))
        alg = coiso_algebra_from_form(omega)
        a = VerticalSection.from_components(chart, [RingElement.zero(chart)] * 2)
        with pytest.raises(CoisoKitError):
            obstructedness_certificate(alg, a)
