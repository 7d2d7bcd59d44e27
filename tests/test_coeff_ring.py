"""Exact coefficient ring: canonical form, calculus, evaluation, rendering."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_fraction, rand_ring, rng_for, small_chart
from coisokit import (
    ChartMismatchError,
    DimensionMismatchError,
    FibreDependenceError,
    NonInvertibleScalarError,
    PeriodicCoordinateError,
    RingElement,
    Scalar,
    UnknownCoordinateError,
    eval_point,
    make_chart,
    partial_derivative,
    ring_mul,
    taylor_shift,
)
from coisokit.coeff_ring import GridEvaluator


class TestScalar:
    def test_pi_exponents_add(self):
        a = Scalar.pi_power(2, 3)
        b = Scalar.pi_power(-1, Fraction(1, 2))
        assert a * b == Scalar.pi_power(1, Fraction(3, 2))

    def test_gaussian_product(self):
        # (1 + i)(1 - i) = 2
        assert Scalar.gaussian(1, 1) * Scalar.gaussian(1, -1) == Scalar.rational(2)

    def test_imaginary_unit_squares_to_minus_one(self):
        assert Scalar.imag_unit() * Scalar.imag_unit() == Scalar.rational(-1)

    def test_no_zero_terms_stored(self):
        s = Scalar.rational(1) + Scalar.rational(-1)
        assert s.is_zero() and s.terms == ()

    def test_inverse_single_term(self):
        s = Scalar.pi_power(2, Fraction(3, 4))
        assert s * s.inverse() == Scalar.one()

    def test_inverse_of_sum_rejected(self):
        with pytest.raises(NonInvertibleScalarError):
            (Scalar.one() + Scalar.pi_power(1)).inverse()

    def test_render(self):
        assert Scalar.pi_power(2, 8).render() == "8*pi^2"
        assert Scalar.rational(-1, 2).render() == "-1/2"
        assert Scalar.imag_unit().render() == "i"


@st.composite
def scalars(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-2, 2),
                st.fractions(min_value=-4, max_value=4, max_denominator=4),
                st.fractions(min_value=-4, max_value=4, max_denominator=4),
            ),
            max_size=3,
        )
    )
    return Scalar(terms)


class TestScalarAxioms:
    @settings(max_examples=200, deadline=None)
    @given(scalars(), scalars(), scalars())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a

    @settings(max_examples=100, deadline=None)
    @given(scalars())
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a


@pytest.fixture
def chart():
    return small_chart()


class TestRingMul:
    def test_sin_squared(self, chart):
        # sin(2 pi x2)^2 = 1/2 - (1/2) cos(4 pi x2), frozen from the
        # exponential-basis expansion e^{ik} e^{il} = e^{i(k+l)}
        s = RingElement.sin_of(chart, {"x2": 1})
        expected = RingElement.constant(chart, Fraction(1, 2)) + RingElement.cos_of(
            chart, {"x2": 2}
        ).scale(Fraction(-1, 2))
        assert ring_mul(s, s) == expected

    def test_multiplicative_identity(self, chart):
        rng = rng_for("ring-one")
        for _ in range(10):
            f = rand_ring(rng, chart)
            assert f * RingElement.one(chart) == f

    def test_fibre_monomials(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        assert y1 * y1 == y1 ** 2

    def test_chart_mismatch_rejected(self, chart):
        other = make_chart("a b*", "c d")
        with pytest.raises(ChartMismatchError):
            ring_mul(RingElement.one(chart), RingElement.one(other))

    def test_ring_axioms_random(self, chart):
        rng = rng_for("ring-axioms")
        for _ in range(40):
            f, g, h = (rand_ring(rng, chart) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f

    def test_canonical_form_construction_order(self, chart):
        rng = rng_for("canonical")
        for _ in range(20):
            parts = [rand_ring(rng, chart, nterms=1) for _ in range(4)]
            a = ((parts[0] + parts[1]) + parts[2]) + parts[3]
            b = (parts[3] + parts[2]) + (parts[1] + parts[0])
            assert a == b and a.terms == b.terms and hash(a) == hash(b)

    def test_jet_truncation_to_minimum(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        f = (1 + y1) ** 3
        assert (f.truncate(2) * f.truncate(4)).jet_order == 2
        assert f.truncate(2) * f == (f * f).truncate(2)
        rng = rng_for("jet-minimum")
        for _ in range(30):
            f, g = (rand_ring(rng, chart, max_ydeg=3, nterms=3) for _ in range(2))
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            assert f.truncate(a) * g.truncate(b) == (f * g).truncate(min(a, b))


def _schoolbook(contributions, jet=None):
    """Canonical terms from (xe, k, ye, pi_exp, re, im) contributions, summed
    per (xe, k, ye, pi_exp), in the layout ((xe, k, ye, scalar terms), ...)."""
    acc = {}
    for xe, k, ye, e, re, im in contributions:
        if jet is None or sum(ye) <= jet:
            a, b = acc.get((xe, k, ye, e), (0, 0))
            acc[(xe, k, ye, e)] = (a + re, b + im)
    out = {}
    for (xe, k, ye, e), (re, im) in sorted(acc.items()):
        if re or im:
            out.setdefault((xe, k, ye), []).append((e, Fraction(re), Fraction(im)))
    return tuple(key + (tuple(ts),) for key, ts in out.items())


def _flat(f):
    return [
        (xe, k, ye, e, re, im) for xe, k, ye, s in f.terms for e, re, im in s.terms
    ]


def _product(f, g):
    def add(u, v):
        return tuple(map(operator.add, u, v))

    return [
        (add(xe1, xe2), add(k1, k2), add(ye1, ye2), e1 + e2,
         a * c - b * d, a * d + b * c)
        for xe1, k1, ye1, e1, a, b in _flat(f)
        for xe2, k2, ye2, e2, c, d in _flat(g)
    ]


def _rand_scalar(rng):
    return Scalar(
        (rng.randint(-2, 2), rand_fraction(rng), rand_fraction(rng) * rng.randint(0, 1))
        for _ in range(rng.randint(0, 3))
    )


def _rand_jet(rng, chart):
    """Complex element with Fourier modes, several pi-powers per key and a
    random jet order (or none)."""
    f = rand_ring(rng, chart, max_ydeg=3, nterms=3, real=False)
    f = f.scale(_rand_scalar(rng)) + rand_ring(rng, chart, nterms=2, real=False)
    order = rng.choice((None, 0, 1, 2, 3))
    return f if order is None else f.truncate(order)


def _terms(f):
    return tuple((xe, k, ye, s.terms) for xe, k, ye, s in f.terms)


def _assert_canonical_scalar(s):
    exps = [e for e, _, _ in s.terms]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    for _, re, im in s.terms:
        assert (re, im) != (0, 0)
        assert type(re) is Fraction and type(im) is Fraction


class TestFlatAccumulation:
    """Ring and scalar products against a schoolbook sum over term pairs."""

    def test_products_and_sums_match_schoolbook(self, chart):
        rng = rng_for("flat-accumulation")
        for _ in range(60):
            f, g = _rand_jet(rng, chart), _rand_jet(rng, chart)
            orders = [o for o in (f.jet_order, g.jet_order) if o is not None]
            jet = min(orders, default=None)
            assert _terms(f * g) == _schoolbook(_product(f, g), jet)
            assert _terms(f + g) == _schoolbook(_flat(f) + _flat(g), jet)
            s, t = _rand_scalar(rng), _rand_scalar(rng)
            one = RingElement.one(chart)
            expected = _schoolbook(_product(one.scale(s), one.scale(t)))
            assert (s * t).terms == (expected[0][3] if expected else ())

    def test_canonical_form(self, chart):
        rng = rng_for("flat-canonical")
        for _ in range(40):
            f, g = _rand_jet(rng, chart), _rand_jet(rng, chart)
            for h in (f, f * g, f + g, f - f, f.scale(_rand_scalar(rng))):
                keys = [t[:3] for t in h.terms]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                for *_, s in h.terms:
                    assert not s.is_zero()
                    _assert_canonical_scalar(s)
        s = Scalar([(0, 1, 0)])
        assert s.terms == ((0, Fraction(1), Fraction(0)),)
        _assert_canonical_scalar(s)
        assert Scalar([(0, 1, 0), (0, -1, 0)]).terms == ()
        mixed = Scalar([(1, 2, 3), (0, Fraction(1, 2), 0), (1, -2, 0)])
        assert mixed.terms == (
            (0, Fraction(1, 2), Fraction(0)),
            (1, Fraction(0), Fraction(3)),
        )
        _assert_canonical_scalar(mixed)


class TestPartialDerivative:
    def test_sin_derivative(self, chart):
        # d/dx sin(2 pi x) = 2 pi cos(2 pi x)
        s = RingElement.sin_of(chart, {"x2": 1})
        expected = RingElement.cos_of(chart, {"x2": 1}).scale(Scalar.pi_power(1, 2))
        assert partial_derivative(s, "x2") == expected

    def test_fibre_power_rule(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        y2 = RingElement.coordinate(chart, "y2")
        f = y1 ** 2 * y2
        assert partial_derivative(f, "y1") == y1.scale(2) * y2
        # d/dy of y^3 + O(y^4) is known only through y^2; d/dx keeps the order
        jet = (y1 ** 3).truncate(3)
        assert partial_derivative(jet, "y1") == (y1 ** 2).scale(3).truncate(2)
        x1 = RingElement.coordinate(chart, "x1")
        assert partial_derivative(x1 * jet, "x1") == jet

    def test_unknown_coordinate(self, chart):
        with pytest.raises(UnknownCoordinateError):
            partial_derivative(RingElement.one(chart), "nope")

    def test_product_rule_random(self, chart):
        rng = rng_for("leibniz-ring")
        for _ in range(100):
            f, g = rand_ring(rng, chart), rand_ring(rng, chart)
            nm = rng.choice(["x1", "x2", "y1", "y2"])
            lhs = partial_derivative(f * g, nm)
            rhs = partial_derivative(f, nm) * g + f * partial_derivative(g, nm)
            assert lhs == rhs

    def test_mixed_partials_commute(self, chart):
        rng = rng_for("schwarz")
        for _ in range(30):
            f = rand_ring(rng, chart)
            for a, b in (("x1", "x2"), ("x1", "y1"), ("x2", "y2")):
                assert f.partial(a).partial(b) == f.partial(b).partial(a)


class TestTaylorShift:
    def test_square_shift(self, chart):
        # (y + c)^2 = y^2 + 2 c y + c^2
        y1 = RingElement.coordinate(chart, "y1")
        c = RingElement.constant(chart, Fraction(3, 2))
        shifted = taylor_shift(y1 ** 2, [c, RingElement.zero(chart)])
        assert shifted == y1 ** 2 + y1.scale(3) + RingElement.constant(
            chart, Fraction(9, 4)
        )

    def test_zero_shift_is_identity(self, chart):
        rng = rng_for("shift-zero")
        zero = [RingElement.zero(chart)] * 2
        for _ in range(10):
            f = rand_ring(rng, chart)
            assert taylor_shift(f, zero) == f

    def test_jet_shift_truncates(self, chart):
        # order-2 jet of the shift of y^3 by c = 2: y^3 is dropped, the
        # lower terms 3c y^2 + 3c^2 y + c^3 survive; shift-then-truncate
        # agrees with truncate-at-own-order, shift, re-truncate
        y1 = RingElement.coordinate(chart, "y1")
        zero = RingElement.zero(chart)
        c = RingElement.constant(chart, 2)
        shifted = taylor_shift(y1 ** 3, [c, zero]).truncate(2)
        expected = (y1 ** 2).scale(6) + y1.scale(12) + RingElement.constant(chart, 8)
        assert shifted.without_truncation() == expected
        via_jet = taylor_shift((y1 ** 3).truncate(3), [c, zero]).truncate(2)
        assert via_jet == shifted

    def test_fibre_dependent_shift_rejected(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        with pytest.raises(FibreDependenceError):
            taylor_shift(y1, [y1, RingElement.zero(chart)])

    def test_shift_evaluation_identity(self, chart):
        # eval(shift(f, a), (x, 0)) == eval(f, (x, a(x)))
        rng = rng_for("shift-eval")
        for _ in range(25):
            f = rand_ring(rng, chart)
            alphas = [
                rand_ring(rng, chart, max_ydeg=0),
                rand_ring(rng, chart, max_ydeg=0),
            ]
            g = taylor_shift(f, alphas)
            x = (rng.uniform(-1, 1), rng.uniform(0, 1))
            base = x + (0.0, 0.0)
            target = x + tuple(a.eval(base).real for a in alphas)
            lhs = g.eval(base)
            rhs = f.eval(target)
            assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + 1)


class TestEvalPoint:
    def test_sin_quarter_period(self, chart):
        s = RingElement.sin_of(chart, {"x2": 1})
        v = eval_point(s, (0.0, 0.25, 0.0, 0.0))
        assert abs(v - 1.0) <= 1e-12

    def test_eval_is_multiplicative(self, chart):
        rng = rng_for("eval-mul")
        for _ in range(100):
            f, g = rand_ring(rng, chart), rand_ring(rng, chart)
            p = tuple(rng.uniform(-1, 1) for _ in range(4))
            lhs = eval_point(f * g, p)
            rhs = eval_point(f, p) * eval_point(g, p)
            assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + 1)

    def test_finite_difference_oracle(self, chart):
        rng = rng_for("eval-fd")
        h = 1e-5
        for _ in range(40):
            f = rand_ring(rng, chart)
            p = [rng.uniform(-0.5, 0.5) for _ in range(4)]
            for axis, nm in enumerate(("x1", "x2", "y1", "y2")):
                up = list(p)
                dn = list(p)
                up[axis] += h
                dn[axis] -= h
                fd = (f.eval(up) - f.eval(dn)) / (2 * h)
                ex = f.partial(nm).eval(p)
                assert abs(fd - ex) <= 1e-6 * (abs(ex) + 1)

    def test_dimension_mismatch(self, chart):
        with pytest.raises(DimensionMismatchError):
            eval_point(RingElement.one(chart), (0.0, 0.0))

    def test_real_element_has_tiny_imaginary_part(self, chart):
        rng = rng_for("eval-real")
        for _ in range(30):
            f = rand_ring(rng, chart, real=True)
            assert f.is_real_element()
            p = tuple(rng.uniform(-1, 1) for _ in range(4))
            v = f.eval(p)
            assert abs(v.imag) <= 1e-12 * (abs(v) + 1)


class TestGridEvaluator:
    """The compiled evaluator against ``RingElement.eval``, its reference."""

    @staticmethod
    def _elements(rng, chart):
        yield from (rand_ring(rng, chart, max_ydeg=0, nterms=3).fourier_zero_mode(["x2"])
                    for _ in range(5))
        yield from (rand_ring(rng, chart, max_xdeg=0, max_ydeg=0, real=False)
                    for _ in range(5))
        yield from (rand_ring(rng, chart, max_ydeg=4, nterms=4, real=False)
                    for _ in range(10))
        yield from (_rand_jet(rng, chart) for _ in range(10))
        yield RingElement.zero(chart)

    def test_matches_eval_at_complex_fibre_points(self, chart):
        rng = rng_for("grid-eval")
        for _ in range(4):
            elements = list(self._elements(rng, chart))
            base = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(40)])
            base[:4, 1] = (0.0, 0.25, 0.5, -0.75)  # exact phases, including zero
            fibre = np.array(
                [[complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                  for _ in range(2)] for _ in range(40)]
            )
            got = GridEvaluator(elements)(base, fibre)
            assert got.shape == (40, len(elements))
            for p in range(40):
                point = tuple(base[p].tolist()) + tuple(fibre[p].tolist())
                for k, f in enumerate(elements):
                    want = f.eval(point)
                    assert abs(got[p, k] - want) <= 1e-12 * abs(want)

    def test_fibre_values_needed_only_for_fibre_terms(self, chart):
        x1 = RingElement.coordinate(chart, "x1")
        y1 = RingElement.coordinate(chart, "y1")
        base = np.array([[0.5, 0.125]])
        assert GridEvaluator([x1 ** 3])(base)[0, 0] == 0.125
        with pytest.raises(DimensionMismatchError):
            GridEvaluator([x1 + y1])(base)
        assert GridEvaluator([])(base).shape == (1, 0)


class TestReality:
    def test_preserved_by_operations(self, chart):
        rng = rng_for("reality")
        for _ in range(30):
            f = rand_ring(rng, chart, real=True)
            g = rand_ring(rng, chart, real=True)
            alphas = [
                rand_ring(rng, chart, max_ydeg=0, real=True),
                rand_ring(rng, chart, max_ydeg=0, real=True),
            ]
            assert (f + g).is_real_element()
            assert (f * g).is_real_element()
            assert f.partial("x2").is_real_element()
            assert taylor_shift(f, alphas).is_real_element()

    def test_imaginary_detected(self, chart):
        f = RingElement.fourier_mode(chart, {"x2": 1})
        assert not f.is_real_element()


class TestRendering:
    def test_trig_product_basis(self, chart):
        f = RingElement.cos_of(chart, {"x2": 1}).scale(Scalar.pi_power(2, 8))
        assert f.render() == "8*pi^2*cos(2*pi*x2)"

    def test_double_mode(self, chart):
        f = RingElement.cos_of(chart, {"x2": 2})
        assert f.render() == "cos(4*pi*x2)"

    def test_sum_with_signs(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        f = RingElement.constant(chart, Fraction(1, 2)) - y1 ** 2
        assert f.render() == "1/2 - y1^2"

    def test_periodic_coordinate_not_polynomial(self, chart):
        with pytest.raises(PeriodicCoordinateError):
            RingElement.coordinate(chart, "x2")


class TestChartSpec:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            make_chart("x x", "y")

    def test_kind_classification(self, chart):
        assert chart.kind("x1") == ("poly", 0)
        assert chart.kind("x2") == ("periodic", 0)
        assert chart.kind("y2") == ("fibre", 1)

    def test_base_chart_roundtrip(self, chart):
        assert chart.base_chart().extend(chart.fibre) == ChartStripBound(chart)


def ChartStripBound(chart):
    return type(chart)(chart.base, chart.periodic, chart.fibre, None)
