"""Exterior calculus: d, fibrewise grading, pullbacks, musical isomorphisms."""

import itertools

import pytest

from conftest import rand_base_ring, rand_ring, rng_for, small_chart
from coisokit import (
    DifferentialForm,
    NotVerticalError,
    RingElement,
    SubbundleSpec,
    VerticalSection,
    build_T4_example,
    de_rham_d,
    fibrewise_degree_classify,
    interior_product,
    is_in_omega_le,
    leaf_subbundle,
    leafwise_d,
    leafwise_sharp_inverse,
    leafwise_sharp_star,
    make_chart,
    musical_inverse,
    projection_P,
    pullback_zero_section,
    sharp_star,
    sharp_star_inverse,
)


@pytest.fixture
def chart():
    return small_chart()


def linear_fibre_change(w, matrix):
    """The pullback of ``w`` along the bundle map (x, y) -> (x, M y), M an
    integer matrix."""
    chart = w.chart
    m, n = chart.n_base, chart.n_fibre
    ys = [RingElement.coordinate(chart, name) for name in chart.fibre]
    exprs = [sum((ys[k].scale(matrix[j][k]) for k in range(n)), RingElement.zero(chart))
             for j in range(n)]
    images = [DifferentialForm.basis_covector(chart, chart.direction_name(d)) for d in range(m)]
    images += [
        DifferentialForm(chart, 1, (((m + k,), RingElement.constant(chart, matrix[j][k]))
                                    for k in range(n) if matrix[j][k]))
        for j in range(n)
    ]
    return DifferentialForm.from_factor_images(
        chart, w, images, lambda c: c.substitute_fibre(exprs)
    )


def restrict_to_subbundle(w, F):
    """The terms of ``w`` whose every factor lies along F."""
    fdirs = set(F.indices(w.chart))
    return DifferentialForm(
        w.chart, w.degree, [(dirs, c) for dirs, c in w.terms if set(dirs) <= fdirs]
    )


def rand_form(rng, chart, degree, nterms=2, **kw):
    keys = list(itertools.combinations(range(chart.n_dirs), degree))
    out = DifferentialForm.zero(chart, degree)
    for _ in range(nterms):
        out = out + DifferentialForm(
            chart, degree, ((rng.choice(keys), rand_ring(rng, chart, **kw)),)
        )
    return out


class TestDeRham:
    def test_coordinate_expansion(self, chart):
        # d(y1 dx1) = dy1 ^ dx1 = -dx1 ^ dy1
        w = DifferentialForm(chart, 1, (((0,), RingElement.coordinate(chart, "y1")),))
        expected = DifferentialForm(chart, 2, (((0, 2), -RingElement.one(chart)),))
        assert de_rham_d(w) == expected

    def test_constant_is_closed(self, chart):
        w = DifferentialForm.function(chart, RingElement.constant(chart, 5))
        assert de_rham_d(w).is_zero()

    def test_constant_two_form_closed(self):
        ex = build_T4_example()
        omega = ex.algebra.pi.source_form
        assert de_rham_d(omega).is_zero()

    def test_d_squared_zero(self, chart):
        rng = rng_for("ddzero")
        for _ in range(60):
            w = rand_form(rng, chart, rng.randint(0, 2))
            assert de_rham_d(de_rham_d(w)).is_zero()


class TestFibrewiseDegree:
    def test_canonical_pairing_is_degree_one(self):
        chart = make_chart("q1* q2*", "p1 p2")
        one = RingElement.one(chart)
        w = DifferentialForm(chart, 2, (((0, 2), one), ((1, 3), one)))
        assert fibrewise_degree_classify(w) == frozenset({1})

    def test_base_pullback_is_degree_zero(self, chart):
        rng = rng_for("deg0")
        w = rand_form(rng, chart, 1, max_ydeg=0)
        w = DifferentialForm(
            chart, 1, (((d,), c) for (d,), c in w.terms if d < chart.n_base)
        )
        if not w.is_zero():
            assert fibrewise_degree_classify(w) == frozenset({0})

    def test_mixed_term(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        w = DifferentialForm(chart, 2, (((0, 2), y1),))
        assert fibrewise_degree_classify(w) == frozenset({2})
        assert not is_in_omega_le(w, 1)

    def test_stable_under_linear_fibre_change(self, chart):
        rng = rng_for("deg-stable")
        mats = [
            [[1, 2], [0, 1]],
            [[0, 1], [1, 0]],
            [[2, 1], [1, 1]],
        ]
        for _ in range(15):
            w = rand_form(rng, chart, rng.randint(1, 2))
            degrees = fibrewise_degree_classify(w)
            for m in mats:
                assert fibrewise_degree_classify(linear_fibre_change(w, m)) == degrees


class TestPullbackZeroSection:
    def test_gotay_form_pulls_back(self):
        ex = build_T4_example()
        omega = ex.algebra.pi.source_form
        base = ex.algebra.chart.base_chart()
        expected = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        assert pullback_zero_section(omega) == expected

    def test_kills_fibre_differentials(self, chart):
        # dy1 ^ dx1 = -(dx1 ^ dy1): contains a fibre differential, so it dies
        w = DifferentialForm(chart, 2, (((0, 2), -RingElement.one(chart)),))
        assert pullback_zero_section(w).is_zero()

    def test_base_form_passes_through(self, chart):
        f = rand_base_ring(rng_for("pb"), chart)
        w = DifferentialForm(chart, 1, (((0,), f),))
        out = pullback_zero_section(w)
        assert out.chart == chart.base_chart()
        assert out.coefficient((0,)) == f.restrict_to_base()

    def test_algebra_morphism_for_wedge(self, chart):
        rng = rng_for("pb-wedge")
        for _ in range(30):
            a = rand_form(rng, chart, 1)
            b = rand_form(rng, chart, rng.randint(1, 2))
            assert pullback_zero_section(a.wedge(b)) == pullback_zero_section(
                a
            ).wedge(pullback_zero_section(b))


class TestLeafwiseD:
    def test_t4_closedness_of_sine_form(self):
        ex = build_T4_example()
        base = ex.algebra.chart.base_chart()
        F = SubbundleSpec(("q1", "q2"))
        w = DifferentialForm(
            base,
            1,
            (
                ((2,), -RingElement.sin_of(base, {"y1": 1})),
                ((3,), -RingElement.sin_of(base, {"y2": 1})),
            ),
        )
        assert leafwise_d(w, F).is_zero()

    def test_constant_coefficient_closed(self):
        base = make_chart("y* q1* q2*")
        F = SubbundleSpec(("q1", "q2"))
        w = DifferentialForm(base, 1, (((1,), RingElement.constant(base, 3)),))
        assert leafwise_d(w, F).is_zero()

    def test_matches_restricted_de_rham(self):
        # coefficients depending only on F coordinates: d_F == restriction of d
        base = make_chart("q1* q2*")
        F = SubbundleSpec(("q1", "q2"))
        rng = rng_for("leafwise")
        for _ in range(20):
            f = rand_base_ring(rng, base)
            w = DifferentialForm(base, 1, (((1,), f),))
            assert leafwise_d(w, F) == de_rham_d(w)

    def test_rejects_factors_outside_subbundle(self):
        base = make_chart("y* q*")
        F = SubbundleSpec(("q",))
        w = DifferentialForm(base, 1, (((0,), RingElement.one(base)),))
        with pytest.raises(NotVerticalError):
            leafwise_d(w, F)


class TestMusical:
    def test_t4_leafwise_inverse_of_sine_section(self):
        ex = build_T4_example()
        alg, a = ex.algebra, ex.section
        base = alg.chart.base_chart()
        got = musical_inverse(alg.pi, a)
        expected = DifferentialForm(
            base,
            1,
            (
                ((2,), -RingElement.sin_of(base, {"y1": 1})),
                ((3,), -RingElement.sin_of(base, {"y2": 1})),
            ),
        )
        assert got == expected

    def test_inverse_of_zero(self):
        ex = build_T4_example()
        z = VerticalSection(ex.algebra.chart, 1, ())
        assert musical_inverse(ex.algebra.pi, z).is_zero()

    def test_full_round_trip(self):
        ex = build_T4_example()
        pi = ex.algebra.pi
        chart = pi.chart
        rng = rng_for("musical-rt")
        for _ in range(50):
            w = rand_form(rng, chart, rng.randint(1, 2))
            Z = sharp_star(pi, w)
            assert sharp_star_inverse(pi, Z) == w
            assert musical_inverse(pi, Z) == w

    def test_leafwise_round_trip(self):
        ex = build_T4_example()
        pi = ex.algebra.pi
        base = pi.chart.base_chart()
        F = leaf_subbundle(pi)
        rng = rng_for("musical-leaf-rt")
        fdirs = [base.direction_index(d) for d in F.directions]
        for _ in range(30):
            deg = rng.randint(1, 2)
            keys = list(itertools.combinations(fdirs, deg))
            w = DifferentialForm.zero(base, deg)
            for _ in range(2):
                w = w + DifferentialForm(
                    base, deg, ((rng.choice(keys), rand_base_ring(rng, base)),)
                )
            s = leafwise_sharp_star(pi, w)
            assert leafwise_sharp_inverse(pi, s) == w

    def test_projection_compatibility(self):
        # P(sharp_star(w)) == leafwise_sharp_star(restriction of w to F at y=0)
        ex = build_T4_example()
        pi = ex.algebra.pi
        chart = pi.chart
        F = leaf_subbundle(pi)
        rng = rng_for("eq-sh")
        for _ in range(60):
            w = rand_form(rng, chart, rng.randint(1, 2))
            lhs = projection_P(sharp_star(pi, w))
            rhs = leafwise_sharp_star(
                pi, restrict_to_subbundle(pullback_zero_section(w), F)
            )
            assert lhs == rhs


class TestInteriorProduct:
    def test_contraction_signs(self, chart):
        one = RingElement.one(chart)
        w = DifferentialForm(chart, 2, (((0, 1), one),))
        assert interior_product("x1", w) == DifferentialForm(chart, 1, (((1,), one),))
        assert interior_product("x2", w) == DifferentialForm(
            chart, 1, (((0,), -one),)
        )
