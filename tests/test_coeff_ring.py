"""Exact coefficient ring: canonical form, calculus, evaluation, rendering."""

import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraction_scalar as fs
from conftest import rand_fraction, rand_ring, rng_for, small_chart
from coisokit import (
    ChartMismatchError,
    DimensionMismatchError,
    FibreDependenceError,
    JetOrderError,
    NonInvertibleScalarError,
    PeriodicCoordinateError,
    RingElement,
    Scalar,
    UnknownCoordinateError,
    make_chart,
)
from coisokit.coeff_ring import ChartSpec, GridEvaluator


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


# operands for the differential tests: numerators above 2**64 and unrelated
# denominators, so sums take the common-denominator path and products carry
# large unreduced numerators; pi-exponents of both signs
_NUMS = st.one_of(st.integers(-6, 6), st.integers(-(2 ** 70), 2 ** 70))
_DENS = st.one_of(st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12)), st.integers(1, 2 ** 66))
_WIDE_TERM = st.tuples(st.integers(-3, 3), st.builds(Fraction, _NUMS, _DENS),
                       st.builds(Fraction, _NUMS, _DENS))
_WIDE_TERMS = st.lists(_WIDE_TERM, max_size=4)
_SINGLE_TERM = _WIDE_TERM.filter(lambda t: t[1] or t[2])


def _bits(z: complex) -> tuple:
    """A complex value bit for bit, signed zeros included."""
    return z.real.hex(), z.imag.hex()


def assert_canonical(s: Scalar):
    """The stored quads: ints, den > 0, gcd 1, no zero pair, increasing e."""
    exps = [q[0] for q in s._terms]
    assert exps == sorted(set(exps))
    for e, re, im, den in s._terms:
        assert all(type(v) is int for v in (e, re, im, den))
        assert den > 0 and (re, im) != (0, 0) and math.gcd(re, im, den) == 1
    back = Scalar(s.terms)
    assert back == s and hash(back) == hash(s)


class TestScalarAgainstFractionReference:
    """Every operation agrees with Fraction-triple arithmetic (fraction_scalar)."""

    @settings(max_examples=150, deadline=None)
    @given(_WIDE_TERMS, _WIDE_TERMS)
    def test_sums_negation_and_conjugate(self, ta, tb):
        a, b = Scalar(ta), Scalar(tb)
        ra, rb = fs.canon(ta), fs.canon(tb)
        assert a.terms == ra and b.terms == rb
        assert (a + b).terms == fs.add(ra, rb)
        assert (a - b).terms == fs.add(ra, fs.neg(rb))
        assert (-a).terms == fs.neg(ra)
        assert a.conjugate().terms == fs.conjugate(ra)
        q = Fraction(3, 4)
        assert (a + q).terms == fs.add(ra, fs.canon([(0, q, 0)]))
        assert (2 - a).terms == fs.add(fs.canon([(0, 2, 0)]), fs.neg(ra))
        for s in (a + b, a - b, -a, a.conjugate(), 2 - a):
            assert_canonical(s)

    @settings(max_examples=150, deadline=None)
    @given(_WIDE_TERMS, _WIDE_TERMS, _WIDE_TERMS)
    def test_products(self, ta, tb, tc):
        a, b, c = Scalar(ta), Scalar(tb), Scalar(tc)
        ra, rb, rc = fs.canon(ta), fs.canon(tb), fs.canon(tc)
        assert (a * b).terms == fs.mul(ra, rb)
        assert (a * b * c).terms == fs.mul(fs.mul(ra, rb), rc)
        assert (a * Fraction(-5, 6)).terms == fs.mul(ra, fs.canon([(0, Fraction(-5, 6), 0)]))
        for s in (a * b, a * b * c):
            assert_canonical(s)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((1, -1)), _WIDE_TERMS, _WIDE_TERMS),
                    min_size=1, max_size=4))
    def test_dot(self, products):
        got = Scalar.dot([(sign, Scalar(f), Scalar(g)) for sign, f, g in products])
        assert got.terms == fs.dot([(sign, fs.canon(f), fs.canon(g)) for sign, f, g in products])
        assert_canonical(got)

    @settings(max_examples=150, deadline=None)
    @given(_SINGLE_TERM, _WIDE_TERMS)
    def test_inverse_and_division(self, t, ta):
        s, a = Scalar([t]), Scalar(ta)
        rs, ra = fs.canon([t]), fs.canon(ta)
        assert s.inverse().terms == fs.inverse(rs)
        assert (a / s).terms == fs.mul(ra, fs.inverse(rs))
        assert_canonical(s.inverse())
        assert_canonical(a / s)
        if len(ra) > 1:
            with pytest.raises(NonInvertibleScalarError):
                a.inverse()

    @settings(max_examples=150, deadline=None)
    @given(_WIDE_TERMS, _WIDE_TERMS)
    def test_render(self, ta, tb):
        a, b = Scalar(ta), Scalar(tb)
        ra, rb = fs.canon(ta), fs.canon(tb)
        assert a.render() == fs.render(ra)
        assert (a * b).render() == fs.render(fs.mul(ra, rb))
        assert (a + b).render() == fs.render(fs.add(ra, rb))

    @settings(max_examples=150, deadline=None)
    @given(_WIDE_TERMS, _WIDE_TERMS)
    def test_evalf_bit_for_bit(self, ta, tb):
        a, b = Scalar(ta), Scalar(tb)
        ra, rb = fs.canon(ta), fs.canon(tb)
        assert _bits(a.evalf()) == _bits(fs.evalf(ra))
        assert _bits((a * b).evalf()) == _bits(fs.evalf(fs.mul(ra, rb)))
        assert _bits((a - b).evalf()) == _bits(fs.evalf(fs.add(ra, fs.neg(rb))))

    def test_signed_zero_parts(self):
        # a zero real or imaginary part evaluates to +0.0, as float(Fraction(0))
        for s in (Scalar.imag_unit(), Scalar.rational(-1, 3), -Scalar.imag_unit(),
                  Scalar.pi_power(-2, Fraction(-7, 2))):
            assert _bits(s.evalf()) == _bits(fs.evalf(s.terms))


class TestScalarCanonicalForm:
    def test_constructors_store_canonical_quads(self):
        for s in (Scalar.zero(), Scalar.one(), Scalar.imag_unit(), Scalar.of(True),
                  Scalar.of(-4), Scalar.of(Fraction(6, -4)), Scalar.rational(10, 4),
                  Scalar.gaussian(Fraction(1, 6), Fraction(-1, 4)),
                  Scalar.pi_power(-3, Fraction(9, 12)), Scalar.pi_power(2, 0)):
            assert_canonical(s)

    def test_two_routes_to_one_value_hash_alike(self):
        a = Scalar.rational(1, 2) + Scalar.rational(1, 3)
        b = Scalar.rational(5, 6)
        assert a == b and hash(a) == hash(b)
        c = Scalar.gaussian(Fraction(1, 4), Fraction(1, 6)) * Scalar.rational(4)
        d = Scalar.gaussian(1, Fraction(2, 3))
        assert c == d and hash(c) == hash(d)

    @settings(max_examples=100, deadline=None)
    @given(_WIDE_TERMS, _WIDE_TERMS, _WIDE_TERMS)
    def test_equal_values_from_different_routes(self, ta, tb, tc):
        a, b, c = Scalar(ta), Scalar(tb), Scalar(tc)
        for x, y in (((a + b) + c, a + (b + c)), (a * b, b * a),
                     (a * (b + c), Scalar.dot([(1, a, b), (1, a, c)])),
                     (Scalar(ta + tb), a + b)):
            assert x == y and hash(x) == hash(y)
            assert_canonical(x)


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
        assert s * s == expected

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
            RingElement.one(chart) * RingElement.one(other)

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


DOT_CHART = small_chart()


@st.composite
def ring_elements(draw):
    """Elements of DOT_CHART (x1, periodic x2, fibre y1 y2): Fourier modes,
    several pi-powers per key, zero elements, and an absent or set jet order."""
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(-2, 2),
                st.tuples(st.integers(0, 2), st.integers(0, 2)),
                scalars(),
            ),
            max_size=3,
        )
    )
    jet = draw(st.none() | st.integers(0, 3))
    return RingElement(DOT_CHART, [((a,), (k,), ye, c) for a, k, ye, c in terms], jet)


SIGNS = st.sampled_from((1, -1))

# one quad of each shape ``dot`` tells apart (real, real times a power of
# pi, imaginary, both parts), and Scalars of several quads
_NONZERO = st.builds(Fraction, _NUMS, _DENS).filter(bool)
_SHAPED_SCALARS = st.one_of(
    st.builds(lambda q: Scalar([(0, q, 0)]), _NONZERO),
    st.builds(lambda e, q: Scalar([(e, q, 0)]), st.integers(-3, 3), _NONZERO),
    st.builds(lambda e, q: Scalar([(e, 0, q)]), st.integers(-3, 3), _NONZERO),
    st.builds(lambda e, p, q: Scalar([(e, p, q)]), st.integers(-3, 3), _NONZERO, _NONZERO),
    st.builds(Scalar, _WIDE_TERMS),
)


@st.composite
def shaped_elements(draw):
    """Elements of DOT_CHART whose Scalars take every shape above, with an
    absent or set jet order."""
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(-2, 2),
                  st.tuples(st.integers(0, 2), st.integers(0, 2)), _SHAPED_SCALARS),
        max_size=4,
    ))
    jet = draw(st.none() | st.integers(0, 3))
    return RingElement(DOT_CHART, [((a,), (k,), ye, c) for a, k, ye, c in terms], jet)


def _pairwise(products):
    """The sum of the signed products sign * f * g, one + at a time."""
    total = None
    for sign, f, g in products:
        prod = f * g if sign > 0 else -(f * g)
        total = prod if total is None else total + prod
    return total


class TestDot:
    """``dot`` against the pairwise sum of its signed products."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(SIGNS, ring_elements(), ring_elements()), min_size=1, max_size=4))
    def test_ring_dot_is_the_pairwise_sum(self, products):
        got = RingElement.dot(products)
        expected = _pairwise(products)
        assert got.terms == expected.terms
        assert got.jet_order == expected.jet_order
        orders = [h.jet_order for _, f, g in products for h in (f, g)]
        jet = min((o for o in orders if o is not None), default=None)
        contributions = []
        for sign, f, g in products:
            contributions += _product(f if sign > 0 else -f, g)
        assert _terms(got) == _schoolbook(contributions, jet)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(SIGNS, scalars(), scalars()), min_size=1, max_size=4))
    def test_scalar_dot_is_the_pairwise_sum(self, products):
        got = Scalar.dot(products)
        assert got.terms == _pairwise(products).terms
        _assert_canonical_scalar(got)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(SIGNS, shaped_elements(), shaped_elements()), min_size=1, max_size=4))
    def test_ring_dot_matches_the_fraction_reference(self, products):
        """A pair of single real quads is multiplied inline and every other
        pair by ``_acc_mul``; both agree with Fraction arithmetic per key."""
        got = RingElement.dot(products)
        orders = [h.jet_order for _, f, g in products for h in (f, g)]
        jet = min((o for o in orders if o is not None), default=None)
        groups = {}
        for sign, f, g in products:
            for xe1, k1, ye1, s1 in f.terms:
                for xe2, k2, ye2, s2 in g.terms:
                    key = tuple(tuple(map(operator.add, u, v))
                                for u, v in ((xe1, xe2), (k1, k2), (ye1, ye2)))
                    if jet is None or sum(key[2]) <= jet:
                        groups.setdefault(key, []).append((sign, s1.terms, s2.terms))
        expected = tuple(key + (t,) for key, group in sorted(groups.items())
                         if (t := fs.dot(group)))
        assert _terms(got) == expected
        assert got.jet_order == jet
        assert_canonical_element(got)

    def test_zero_operands_keep_their_jet_order(self, chart):
        f = RingElement.coordinate(chart, "y1") + RingElement.coordinate(chart, "x1")
        zero_jet = RingElement.zero(chart).truncate(0)
        got = RingElement.dot([(1, f, f), (-1, f, zero_jet)])
        assert got.jet_order == 0 and got == _pairwise([(1, f, f), (-1, f, zero_jet)])
        assert got.terms == (f * f).truncate(0).terms
        assert RingElement.dot([(1, f, RingElement.zero(chart))]).is_zero()

    def test_cancelling_products_leave_zero(self, chart):
        rng = rng_for("dot-cancel")
        f, g = _rand_jet(rng, chart), _rand_jet(rng, chart)
        assert RingElement.dot([(1, f, g), (-1, g, f)]).is_zero()

    def test_chart_mismatch_rejected(self, chart):
        other = make_chart("a b*", "c d")
        one, alien = RingElement.one(chart), RingElement.one(other)
        with pytest.raises(ChartMismatchError):
            RingElement.dot([(1, one, alien)])
        with pytest.raises(ChartMismatchError):
            RingElement.dot([(1, one, one), (-1, alien, alien)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            RingElement.dot([])
        with pytest.raises(ValueError):
            Scalar.dot(iter(()))


# charts for the wrap tests: every axis kind, and charts without poly, without
# periodic and without fibre axes; a pencil chart has fibre labels only
WRAP_CHARTS = (
    make_chart("x1 x2*", "y1 y2"),
    make_chart("a* b*", "y1"),
    make_chart("x1 x2", "y1 y2"),
    make_chart("x1 t*"),
    ChartSpec((), (), ("v1", "v2")),
)


@st.composite
def wrap_elements(draw, chart):
    """Elements of ``chart`` built by the canonicalising constructor: keys
    met more than once, negative Fourier modes, numerators up to 2**70, and
    jet orders of None, 0 and -1 (the fibre derivative of an order-0 jet)
    included; an empty element may carry a jet order."""
    nx, nk, ny = len(chart.poly_axes), len(chart.periodic_axes), chart.n_fibre
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 3)] * nx),
            st.tuples(*[st.integers(-3, 3)] * nk),
            st.tuples(*[st.integers(0, 3)] * ny),
            st.builds(Scalar, _WIDE_TERMS),
        ),
        max_size=5,
    ))
    return RingElement(chart, terms, draw(st.none() | st.integers(-1, 3)))


@st.composite
def chart_and_elements(draw, n=3):
    chart = draw(st.sampled_from(WRAP_CHARTS))
    return chart, [draw(wrap_elements(chart)) for _ in range(n)]


def assert_canonical_element(h: RingElement):
    """Keys strictly increasing, no zero Scalar, no term above the jet order,
    and every Scalar canonical."""
    keys = [t[:3] for t in h.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for xe, k, ye, c in h.terms:
        assert not c.is_zero()
        assert h.jet_order is None or sum(ye) <= h.jet_order
        assert_canonical(c)


def assert_same(got: RingElement, expected: RingElement):
    assert got.terms == expected.terms
    assert got.jet_order == expected.jet_order
    assert_canonical_element(got)


class TestWrapsAgainstConstructor:
    """Each result wrapped as produced (``partial``, negation, ``scale``,
    the filters and ``dot``) equals the canonicalising constructor applied
    to the same terms, as the operation is defined term by term."""

    @settings(max_examples=80, deadline=None)
    @given(chart_and_elements(n=1))
    def test_partial_along_every_coordinate(self, drawn):
        chart, (f,) = drawn
        for name in chart.names:
            kind, idx = chart.kind(name)
            out = []
            for xe, k, ye, c in f.terms:
                if kind == "periodic" and k[idx]:
                    out.append((xe, k, ye, c * Scalar.gaussian(0, 2 * k[idx]) * Scalar.pi_power(1)))
                elif kind == "poly" and xe[idx]:
                    lowered = xe[:idx] + (xe[idx] - 1,) + xe[idx + 1:]
                    out.append((lowered, k, ye, c * Scalar.of(xe[idx])))
                elif kind == "fibre" and ye[idx]:
                    lowered = ye[:idx] + (ye[idx] - 1,) + ye[idx + 1:]
                    out.append((xe, k, lowered, c * Scalar.of(ye[idx])))
            jet = f.jet_order
            if kind == "fibre" and jet is not None:
                jet -= 1
            assert_same(f.partial(name), RingElement(chart, out, jet))

    @settings(max_examples=80, deadline=None)
    @given(chart_and_elements(n=1), _WIDE_TERMS)
    def test_negation_and_scale(self, drawn, factor):
        chart, (f,) = drawn
        minus_one = Scalar.of(-1)
        assert_same(-f, RingElement(chart, [(xe, k, ye, c * minus_one) for xe, k, ye, c in f.terms],
                                    f.jet_order))
        for c in (Scalar(factor), Scalar.zero(), Fraction(-7, 3), 0):
            s = Scalar.of(c)
            assert_same(f.scale(c), RingElement(chart, [(xe, k, ye, d * s) for xe, k, ye, d in f.terms],
                                                f.jet_order))

    @settings(max_examples=80, deadline=None)
    @given(chart_and_elements(n=1), st.integers(-1, 4))
    def test_filters(self, drawn, order):
        chart, (f,) = drawn
        jet = order if f.jet_order is None else min(order, f.jet_order)
        assert_same(f.truncate(order), RingElement(chart, f.terms, jet))
        if f.jet_order is not None and f.jet_order < 0:
            # an order < 0 jet knows no y-degree-0 term, so it has no exact value at y = 0
            with pytest.raises(JetOrderError):
                f.at_zero_fibre()
        else:
            assert_same(f.at_zero_fibre(),
                         RingElement(chart, [t for t in f.terms if sum(t[2]) == 0], None))
        assert_same(f.fibre_part(),
                    RingElement(chart, [t for t in f.terms if sum(t[2]) > 0], f.jet_order))
        periodic = [chart.base[i] for i in chart.periodic_axes]
        for names in (periodic, periodic[:1], periodic[1:]):
            idxs = [chart.kind(n)[1] for n in names]
            kept = [t for t in f.terms if all(t[1][i] == 0 for i in idxs)]
            assert_same(f.fourier_zero_mode(names), RingElement(chart, kept, f.jet_order))

    @settings(max_examples=80, deadline=None)
    @given(chart_and_elements(n=4), st.lists(SIGNS, min_size=2, max_size=2))
    def test_dot(self, drawn, signs):
        chart, (f, g, u, v) = drawn
        products = [(signs[0], f, g), (signs[1], u, v)]
        terms = []
        for sign, a, b in products:
            for xe1, k1, ye1, c1 in a.terms:
                for xe2, k2, ye2, c2 in b.terms:
                    key = tuple(tuple(map(operator.add, p, q))
                                for p, q in ((xe1, xe2), (k1, k2), (ye1, ye2)))
                    terms.append(key + (c1 * c2 * Scalar.of(sign),))
        orders = [h.jet_order for h in (f, g, u, v) if h.jet_order is not None]
        expected = RingElement(chart, terms, min(orders, default=None))
        assert_same(RingElement.dot(products), expected)
        assert_same(-(f * g), RingElement.dot([(-1, f, g)]))

    def test_empty_operands_keep_the_jet_order(self):
        for chart in WRAP_CHARTS:
            one = RingElement.one(chart)
            for empty in (RingElement(chart, (), 2), RingElement(chart, (), -1)):
                got = RingElement.dot([(1, one, empty), (-1, empty, one)])
                assert got.terms == () and got.jet_order == empty.jet_order
                assert (-empty).jet_order == empty.jet_order
                assert empty.scale(3).jet_order == empty.jet_order


class TestPartialDerivative:
    def test_sin_derivative(self, chart):
        # d/dx sin(2 pi x) = 2 pi cos(2 pi x)
        s = RingElement.sin_of(chart, {"x2": 1})
        expected = RingElement.cos_of(chart, {"x2": 1}).scale(Scalar.pi_power(1, 2))
        assert s.partial("x2") == expected

    def test_fibre_power_rule(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        y2 = RingElement.coordinate(chart, "y2")
        f = y1 ** 2 * y2
        assert f.partial("y1") == y1.scale(2) * y2
        # d/dy of y^3 + O(y^4) is known only through y^2; d/dx keeps the order
        jet = (y1 ** 3).truncate(3)
        assert jet.partial("y1") == (y1 ** 2).scale(3).truncate(2)
        x1 = RingElement.coordinate(chart, "x1")
        assert (x1 * jet).partial("x1") == jet

    def test_unknown_coordinate(self, chart):
        with pytest.raises(UnknownCoordinateError):
            RingElement.one(chart).partial("nope")

    def test_product_rule_random(self, chart):
        rng = rng_for("leibniz-ring")
        for _ in range(100):
            f, g = rand_ring(rng, chart), rand_ring(rng, chart)
            nm = rng.choice(["x1", "x2", "y1", "y2"])
            lhs = (f * g).partial(nm)
            rhs = f.partial(nm) * g + f * g.partial(nm)
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
        shifted = (y1 ** 2).shift_fibre([c, RingElement.zero(chart)])
        assert shifted == y1 ** 2 + y1.scale(3) + RingElement.constant(
            chart, Fraction(9, 4)
        )

    def test_zero_shift_is_identity(self, chart):
        rng = rng_for("shift-zero")
        zero = [RingElement.zero(chart)] * 2
        for _ in range(10):
            f = rand_ring(rng, chart)
            assert f.shift_fibre(zero) == f

    def test_jet_shift_truncates(self, chart):
        # order-2 jet of the shift of y^3 by c = 2: y^3 is dropped, the
        # lower terms 3c y^2 + 3c^2 y + c^3 survive; a jet cannot be shifted,
        # since its unknown terms y^k, k > 3, would move into every order
        y1 = RingElement.coordinate(chart, "y1")
        zero = RingElement.zero(chart)
        c = RingElement.constant(chart, 2)
        shifted = (y1 ** 3).shift_fibre([c, zero]).truncate(2)
        expected = (y1 ** 2).scale(6) + y1.scale(12) + RingElement.constant(chart, 8)
        assert shifted.without_truncation() == expected
        with pytest.raises(JetOrderError):
            (y1 ** 3).truncate(3).shift_fibre([c, zero])

    def test_jet_substitution_keeps_only_sound_orders(self):
        # y^3 known to order 2 shifted by x: the true order-2 jet
        # 3x y^2 + 3x^2 y + x^3 comes from the unknown y^3, so it raises
        chart = make_chart("x", "y")
        x, y = (RingElement.coordinate(chart, n) for n in ("x", "y"))
        jet = (y ** 3 + x * y).truncate(2)
        with pytest.raises(JetOrderError):
            jet.shift_fibre([x])
        with pytest.raises(JetOrderError):
            jet.substitute_fibre([y.scale(2) + RingElement.one(chart)])
        # a zero shift and a linear fibre change keep the order they claim
        assert jet.shift_fibre([RingElement.zero(chart)]) == jet
        scaled = jet.substitute_fibre([y.scale(2)])
        assert scaled == (x * y).scale(2).truncate(2)
        assert scaled.jet_order == 2

    def test_negative_order_jet_has_no_value_at_zero_fibre(self):
        # an order -1 jet knows none of its terms, not even the y-degree-0
        # one, so neither y = 0 nor the restriction to the base is exact
        chart = make_chart("x", "y")
        x, y = (RingElement.coordinate(chart, n) for n in ("x", "y"))
        for order in (-1, -2):
            jet = (x + y).truncate(order)
            with pytest.raises(JetOrderError):
                jet.at_zero_fibre()
            with pytest.raises(JetOrderError):
                jet.restrict_to_base()
        assert (x + y).truncate(0).at_zero_fibre() == x
        assert x.truncate(0).restrict_to_base().jet_order is None

    def test_negative_order_jet_is_not_known_to_be_constant(self):
        chart = make_chart("x", "y")
        x, y = (RingElement.coordinate(chart, n) for n in ("x", "y"))
        for f in (x + y, RingElement.constant(chart, 3)):
            jet = f.truncate(-1)
            with pytest.raises(JetOrderError):
                jet.is_constant()
            with pytest.raises(JetOrderError):
                jet.constant_scalar()

    def test_constant_probes_hold_through_the_jet_order(self):
        chart = make_chart("x", "y")
        x, y = (RingElement.coordinate(chart, n) for n in ("x", "y"))
        jet = (y ** 2 + RingElement.constant(chart, 3)).truncate(1)
        assert jet.is_constant() and jet.constant_scalar() == Scalar.rational(3)
        assert (y ** 2).truncate(1).is_constant()
        assert (y ** 2).truncate(1).constant_scalar() == Scalar.zero()
        assert not (y ** 2).truncate(2).is_constant()
        assert not (x + y).truncate(0).is_constant()
        with pytest.raises(ValueError):
            (x + y).truncate(0).constant_scalar()

    def test_fibre_dependent_shift_rejected(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        with pytest.raises(FibreDependenceError):
            y1.shift_fibre([y1, RingElement.zero(chart)])

    def test_shift_evaluation_identity(self, chart):
        # eval(shift(f, a), (x, 0)) == eval(f, (x, a(x)))
        rng = rng_for("shift-eval")
        for _ in range(25):
            f = rand_ring(rng, chart)
            alphas = [
                rand_ring(rng, chart, max_ydeg=0),
                rand_ring(rng, chart, max_ydeg=0),
            ]
            g = f.shift_fibre(alphas)
            x = (rng.uniform(-1, 1), rng.uniform(0, 1))
            base = x + (0.0, 0.0)
            target = x + tuple(a.eval(base).real for a in alphas)
            lhs = g.eval(base)
            rhs = f.eval(target)
            assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + 1)


class TestEvalPoint:
    def test_sin_quarter_period(self, chart):
        s = RingElement.sin_of(chart, {"x2": 1})
        v = s.eval((0.0, 0.25, 0.0, 0.0))
        assert abs(v - 1.0) <= 1e-12

    def test_eval_is_multiplicative(self, chart):
        rng = rng_for("eval-mul")
        for _ in range(100):
            f, g = rand_ring(rng, chart), rand_ring(rng, chart)
            p = tuple(rng.uniform(-1, 1) for _ in range(4))
            lhs = (f * g).eval(p)
            rhs = f.eval(p) * g.eval(p)
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
            RingElement.one(chart).eval((0.0, 0.0))

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
            assert f.shift_fibre(alphas).is_real_element()

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

    @pytest.mark.parametrize(
        "base, fibre, bad",
        [("a-b", "p", "a-b"), ("1x", "", "1x"), ("y1**", "", "y1*"),
         ("x", "p q²+", "q²+")],
    )
    def test_names_the_grammar_cannot_read_back_are_rejected(self, base, fibre, bad):
        # a name like 'a-b' would render as a difference
        message = f"invalid chart coordinate name {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_chart(base, fibre)

    @pytest.mark.parametrize(
        "base, fibre, bad",
        [("pi x", "p", "pi"), ("i", "p", "i"), ("x dx", "", "dx"),
         ("x", "dx", "dx"), ("dy", "y", "dy")],
    )
    def test_names_the_grammar_reads_as_something_else_are_rejected(
        self, base, fibre, bad
    ):
        # 'pi' and 'i' are constants, 'dx' is the form symbol of a coordinate x
        message = f"chart coordinate name {bad!r} is reserved"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make_chart(base, fibre)

    def test_d_prefixed_names_without_their_coordinate_are_names(self):
        assert make_chart("dx pix", "ii d").names == ("dx", "pix", "ii", "d")

    def test_pencil_labels_follow_the_name_rule(self):
        with pytest.raises(ValueError, match="invalid chart coordinate name 'v 1'"):
            ChartSpec((), (), ("v 1",))

    def test_unicode_letters_and_underscores_are_names(self):
        chart = make_chart("ξ1* _x", "p_ξ x²")
        assert chart.names == ("ξ1", "_x", "p_ξ", "x²")

    def test_kind_classification(self, chart):
        assert chart.kind("x1") == ("poly", 0)
        assert chart.kind("x2") == ("periodic", 0)
        assert chart.kind("y2") == ("fibre", 1)

    def test_base_chart_roundtrip(self, chart):
        assert chart.base_chart().extend(chart.fibre) == ChartStripBound(chart)


def ChartStripBound(chart):
    return type(chart)(chart.base, chart.periodic, chart.fibre, None)
