"""Multibrackets, Maurer-Cartan series, coisotropy checks, twisted algebra."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    rand_multivector,
    rand_poisson_disjoint,
    rand_section,
    rng_for,
    small_chart,
    zero_section,
)
from coisokit import (
    DegenerateBivectorError,
    DomainBoundError,
    JetOrderError,
    MultiVectorField,
    NotClosedError,
    NotCoisotropicError,
    NotPoissonError,
    RingElement,
    Scalar,
    TwistedElement,
    VerticalSection,
    build_T4_example,
    coiso_algebra_from_form,
    coisotropic_brackets,
    coisotropy_check_numeric,
    de_rham_d,
    exp_ad,
    fibre_translate_pushforward,
    higher_jacobi_verify,
    kuranishi_rep,
    lambda_n,
    make_chart,
    make_coiso_algebra,
    mc_partial_table,
    mc_series_exact,
    projection_P,
    pushforward_oracle_numeric,
    sample_grid,
    schouten_bracket,
    twisted_brackets,
    twisted_lambda,
    twisted_mc,
    DifferentialForm,
)
from coisokit.multivector import default_exp_cap


def centered_bivector(rng, chart, **kw):
    """Random bivector post-processed so that P(pi) = 0."""
    pi = rand_multivector(rng, chart, 2, **kw)
    correction = MultiVectorField(chart, 2, projection_P(pi).terms)
    return pi - correction


def algebra_for(pi, **kw):
    return make_coiso_algebra(pi, require_poisson=False, **kw)


@pytest.fixture(scope="module")
def t4():
    return build_T4_example()


def t4_family(chart):
    """Twelve seeded sections on the T^4 chart: constants, sines and cos(q1)."""
    rng = rng_for("coiso-mc")
    for _ in range(12):
        comps = []
        for nm in ("y1", "y2"):
            kind = rng.randrange(3)
            if kind == 0:
                comps.append(RingElement.constant(chart, Fraction(rng.randint(-2, 2), 3)))
            elif kind == 1:
                comps.append(RingElement.sin_of(chart, {nm: 1}).scale(rng.randint(1, 2)))
            else:
                comps.append(RingElement.cos_of(chart, {"q1": 1}).scale(Fraction(1, 2)))
        yield VerticalSection.from_components(chart, comps)


class TestCoisoAlgebra:
    def test_rejects_non_coisotropic_zero_section(self):
        chart = small_chart()
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((2, 3), one),))
        with pytest.raises(NotCoisotropicError):
            make_coiso_algebra(pi, require_poisson=False)

    def test_rejects_non_poisson_when_required(self):
        chart = small_chart()
        y1 = RingElement.coordinate(chart, "y1")
        one = RingElement.one(chart)
        # @x1^@y1 + y1 @x2^@y2: the first pair moves y1, so Jacobi fails
        pi = MultiVectorField(chart, 2, (((0, 2), one), ((1, 3), y1)))
        assert not schouten_bracket(pi, pi).is_zero()
        with pytest.raises(NotPoissonError):
            make_coiso_algebra(pi, require_poisson=True)
        alg = make_coiso_algebra(pi, require_poisson=False)
        assert not alg.poisson_verified

    def test_t4_flags(self, t4):
        assert t4.algebra.poisson_verified
        assert t4.algebra.source_form is not None

    @pytest.mark.parametrize("fibre_term", [False, True])
    def test_inverted_form_is_jacobi_checked_once(self, self_brackets, fibre_term):
        # exact inversion, or a jet when the form depends on the fibre
        chart = make_chart("x1 x2 q1 q2", "p1 p2")
        one = RingElement.one(chart)
        omega = DifferentialForm(
            chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))
        )
        if fibre_term:
            p1, x2 = (RingElement.coordinate(chart, n) for n in ("p1", "x2"))
            omega = omega + de_rham_d(DifferentialForm(chart, 1, (((0,), p1 * x2),)))
        alg = coiso_algebra_from_form(omega, truncation=4)
        assert (alg.pi.jet_order() is not None) == fibre_term
        assert self_brackets == [alg.pi]
        assert alg.poisson_verified and alg.source_form == omega

    def test_outside_bivector_is_checked_once(self, self_brackets):
        chart = small_chart()
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((0, 2), one), ((1, 3), one)))
        alg = make_coiso_algebra(pi)
        assert self_brackets == [pi]
        assert alg.poisson_verified


class TestLambdaN:
    def test_t4_values(self, t4):
        alg, a = t4.algebra, t4.section
        chart = alg.chart
        assert lambda_n(alg, a).is_zero()
        expected = VerticalSection(
            chart,
            2,
            (
                (
                    (4, 5),
                    (
                        RingElement.cos_of(chart, {"y1": 1})
                        * RingElement.cos_of(chart, {"y2": 1})
                    ).scale(Scalar.pi_power(2, 8)),
                ),
            ),
        )
        assert lambda_n(alg, a, a) == expected

    def test_zero_inputs(self, t4):
        z = zero_section(t4.algebra.chart)
        for n in (1, 2, 3):
            assert lambda_n(t4.algebra, *([z] * n)).is_zero()

    def test_symmetry_in_degree_one_arguments(self):
        chart = small_chart()
        rng = rng_for("lambda-sym")
        for _ in range(25):
            pi = centered_bivector(rng, chart, max_ydeg=2)
            alg = algebra_for(pi)
            secs = [rand_section(rng, chart) for _ in range(3)]
            for perm in itertools.permutations(range(3)):
                assert lambda_n(alg, *secs) == lambda_n(
                    alg, *[secs[i] for i in perm]
                )


class TestMCSeries:
    def test_zero_section_gives_zero(self, t4):
        assert mc_series_exact(t4.algebra, zero_section(t4.algebra.chart)).is_zero()

    def test_t4_value_and_termination(self, t4):
        alg, a = t4.algebra, t4.section
        chart = alg.chart
        got = mc_series_exact(alg, a)
        expected = VerticalSection(
            chart,
            2,
            (
                (
                    (4, 5),
                    (
                        RingElement.cos_of(chart, {"y1": 1})
                        * RingElement.cos_of(chart, {"y2": 1})
                    ).scale(Scalar.pi_power(2, 4)),
                ),
            ),
        )
        assert got == expected
        # constant-coefficient pi terminates at k = 2: MC = lambda_2(a,a)/2
        assert got == lambda_n(alg, a, a).scale(Scalar.rational(1, 2))

    def test_constant_section_is_flat(self, t4):
        chart = t4.algebra.chart
        const = VerticalSection.from_components(
            chart,
            [RingElement.constant(chart, Fraction(1, 3)), RingElement.constant(chart, -2)],
        )
        assert mc_series_exact(t4.algebra, const).is_zero()

    def test_matches_pushforward_oracle_randomized(self):
        chart = small_chart()
        rng = rng_for("mc-oracle")
        for _ in range(100):
            pi = centered_bivector(rng, chart, max_ydeg=3)
            alg = algebra_for(pi)
            alpha = rand_section(rng, chart)
            got = mc_series_exact(alg, alpha)
            oracle = projection_P(fibre_translate_pushforward(pi, alpha))
            assert got == oracle

    def test_matches_exp_ad_projection(self):
        chart = small_chart()
        rng = rng_for("mc-expad")
        for _ in range(30):
            pi = centered_bivector(rng, chart, max_ydeg=2)
            alg = algebra_for(pi)
            alpha = rand_section(rng, chart)
            assert mc_series_exact(alg, alpha) == projection_P(exp_ad(pi, alpha))

    def test_jet_mode_rejected(self):
        chart = make_chart("x", "y1 y2")
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((0, 1), one.truncate(4)),))
        alg = algebra_for(pi)
        with pytest.raises(JetOrderError):
            mc_series_exact(alg, zero_section(chart))

    def test_domain_bound_enforced(self):
        chart = make_chart("u*", "y1 y2", bound=Fraction(1, 2))
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((0, 1), one),))
        alg = algebra_for(pi)
        small = VerticalSection.from_components(
            chart,
            [RingElement.sin_of(chart, {"u": 1}).scale(Fraction(1, 4)), RingElement.zero(chart)],
        )
        mc_series_exact(alg, small)  # inside the tube
        big = VerticalSection.from_components(
            chart,
            [RingElement.sin_of(chart, {"u": 1}), RingElement.zero(chart)],
        )
        with pytest.raises(DomainBoundError):
            mc_series_exact(alg, big)

    def test_domain_check_keeps_the_grid_budget(self, monkeypatch):
        # a section on four coordinates is sampled on at most 4096 points,
        # not 32 per axis
        chart = make_chart("u1* u2* u3* u4*", "y1 y2", bound=Fraction(1, 2))
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((0, 4), one), ((1, 5), one)))
        cos = [RingElement.cos_of(chart, {f"u{i}": 1}) for i in range(1, 5)]
        quarter = Fraction(1, 4)
        small = VerticalSection.from_components(
            chart, [(cos[0] * cos[1]).scale(quarter), (cos[2] * cos[3]).scale(quarter)]
        )
        grids = []

        def recording(*args, **kw):
            grids.append(sample_grid(*args, **kw))
            return grids[-1]

        from coisokit import linfty

        monkeypatch.setattr(linfty, "sample_grid", recording)
        mc_series_exact(algebra_for(pi), small)
        assert len(grids) == 1 and 2 <= len(grids[0]) <= 4096


class TestConvergenceTable:
    def test_polynomial_terminates_exactly(self):
        chart = small_chart()
        rng = rng_for("table-exact")
        pi = centered_bivector(rng, chart, max_ydeg=2)
        alg = algebra_for(pi)
        alpha = rand_section(rng, chart)
        order = 6
        table = mc_partial_table(alg, alpha, order, per_axis=3)
        assert table.max_error_at(order) <= 1e-9

    def test_zero_section_rows_are_zero(self, t4):
        table = mc_partial_table(
            t4.algebra, zero_section(t4.algebra.chart), 3, per_axis=2
        )
        for row in table.rows:
            assert all(v == 0.0 for v in row.partial)
            assert row.abs_error <= 1e-12

    def test_jet_mode_converges_geometrically(self):
        chart = make_chart("x1 x2 q1 q2", "p1 p2")
        one = RingElement.one(chart)
        x2 = RingElement.coordinate(chart, "x2")
        p1 = RingElement.coordinate(chart, "p1")
        theta = DifferentialForm(chart, 1, (((0,), p1 * x2),))
        omega = (
            DifferentialForm(chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one)))
            + de_rham_d(theta)
        )
        alg = coiso_algebra_from_form(omega, truncation=8)
        alpha = VerticalSection.from_components(
            chart,
            [
                RingElement.coordinate(chart, "x1").scale(Fraction(1, 10)),
                (RingElement.coordinate(chart, "x1") * x2).scale(Fraction(1, 10)),
            ],
        )
        table = mc_partial_table(alg, alpha, 8, per_axis=4)
        assert table.max_error_at(8) <= 1e-8
        assert table.max_error_at(1) > 1e-4  # the low orders genuinely differ

    def test_jet_order_too_small(self):
        chart = make_chart("x", "y1 y2")
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((0, 1), one.truncate(3)),))
        alg = algebra_for(pi)
        with pytest.raises(JetOrderError):
            mc_partial_table(alg, zero_section(chart), 5, per_axis=2)

    def test_explicit_points_are_respected(self, t4):
        pts = ((0.0, 0.25, 0.5, 0.75), (0.125, 0.0, 0.0, 0.0))
        table = mc_partial_table(t4.algebra, t4.section, 2, points=pts)
        assert tuple(sorted({r.point for r in table.rows})) == tuple(sorted(pts))
        res = coisotropy_check_numeric(t4.algebra, t4.section, points=pts)
        assert not res.coisotropic

    def test_csv_column_order(self, t4):
        table = mc_partial_table(t4.algebra, t4.section, 2, per_axis=2)
        header = table.to_csv().splitlines()[0].split(",")
        assert header[: 4] == ["y1", "y2", "q1", "q2"]
        assert header[4] == "n"
        assert header[5].startswith("partial_")
        assert header[-1] == "abs_error"


class TestCoisotropyNumeric:
    def test_zero_section_passes(self, t4):
        res = coisotropy_check_numeric(t4.algebra, zero_section(t4.algebra.chart))
        assert res.coisotropic and res.max_defect <= 1e-12

    def test_sine_graph_fails_with_visible_defect(self, t4):
        res = coisotropy_check_numeric(t4.algebra, t4.section, per_axis=16)
        assert not res.coisotropic
        assert res.max_defect > 1.0

    def test_constant_graph_passes(self, t4):
        chart = t4.algebra.chart
        const = VerticalSection.from_components(
            chart,
            [RingElement.constant(chart, Fraction(2, 7)), RingElement.constant(chart, -1)],
        )
        res = coisotropy_check_numeric(t4.algebra, const)
        assert res.coisotropic

    def test_agrees_with_exact_mc_on_t4_family(self, t4):
        alg = t4.algebra
        for alpha in t4_family(alg.chart):
            exact_zero = mc_series_exact(alg, alpha).is_zero()
            res = coisotropy_check_numeric(alg, alpha, per_axis=8)
            assert exact_zero == res.coisotropic

    def test_defect_is_the_sup_norm_of_the_oracle(self, t4):
        alg = t4.algebra
        chart = alg.chart
        const = VerticalSection.from_components(
            chart,
            [RingElement.constant(chart, Fraction(2, 7)), RingElement.constant(chart, -1)],
        )
        for alpha in (t4.section, const, *t4_family(chart)):
            names = sorted(alg.pi.support_names() | alpha.support_names())
            points = sample_grid(chart, names, per_axis=8)
            oracle = max(
                np.max(np.abs(pushforward_oracle_numeric(alg, alpha, x))) for x in points
            )
            res = coisotropy_check_numeric(alg, alpha, per_axis=8)
            assert res.max_defect == oracle

    def test_partials_are_taken_once_per_check(self, t4, monkeypatch):
        original = RingElement.partial
        calls = []

        def counting(self, name):
            calls.append(name)
            return original(self, name)

        monkeypatch.setattr(RingElement, "partial", counting)
        checks = (
            lambda k: mc_partial_table(t4.algebra, t4.section, 2, per_axis=k),
            lambda k: coisotropy_check_numeric(t4.algebra, t4.section, per_axis=k),
        )
        for check in checks:
            counts = []
            for per_axis in (2, 8):
                calls.clear()
                check(per_axis)
                counts.append(len(calls))
            assert counts[0] == counts[1] > 0

    def test_oracle_uses_no_symbolic_code(self, t4, monkeypatch):
        from coisokit import linfty

        def forbidden(*args, **kwargs):
            raise AssertionError("numeric oracle routed through symbolic code")

        def forbid_symbolic():
            for name in ("schouten_bracket", "projection_P", "ad_series"):
                monkeypatch.setattr(linfty, name, forbidden)

        build_oracle = linfty._pushforward_block

        def guarded(*args):
            # a table asks for its oracle once its symbolic partial sums are
            # built; its oracle columns and partial values must not go back
            forbid_symbolic()
            return build_oracle(*args)

        monkeypatch.setattr(linfty, "_pushforward_block", guarded)
        table = mc_partial_table(t4.algebra, t4.section, 3, per_axis=4)
        assert len(table.rows) == 3 * 16
        assert max(abs(v) for r in table.rows for v in r.oracle) > 1.0
        res = coisotropy_check_numeric(t4.algebra, t4.section, per_axis=4)
        assert not res.coisotropic

    def test_grid_of_several_chunks_matches_the_pointwise_oracle(self, t4):
        from coisokit.linfty import _GRID_CHUNK

        alg = t4.algebra
        names = sorted(alg.pi.support_names() | t4.section.support_names())
        points = sample_grid(alg.chart, names)  # 32 x 32
        assert len(points) > 3 * _GRID_CHUNK
        blocks = [pushforward_oracle_numeric(alg, t4.section, x) for x in points]
        res = coisotropy_check_numeric(alg, t4.section)
        assert res.max_defect == max(np.max(np.abs(b)) for b in blocks)
        table = mc_partial_table(alg, t4.section, 1, points=points)
        # one row per point; the one oracle column is the p1 p2 entry
        assert [r.oracle for r in table.rows] == [(b[0, 1].real,) for b in blocks]

    def test_nan_in_an_early_chunk_fails_the_check(self, t4, monkeypatch):
        from coisokit import linfty

        def block_at(alg_or_pi, alpha):
            def block(base):
                out = np.zeros((len(base), 2, 2), dtype=complex)
                if not base[0].any():  # the first point of the grid
                    out[0, 0, 1] = np.nan
                return out
            return block

        monkeypatch.setattr(linfty, "_pushforward_block", block_at)
        res = coisotropy_check_numeric(t4.algebra, t4.section)
        assert not res.coisotropic and np.isnan(res.max_defect)

    def test_singular_form_at_a_later_point_names_it(self):
        # omega is singular exactly where p1 = 1, so on graph(-a) where x1 = 1:
        # the last 32 points of the 32 x 32 grid, in its fourth chunk
        chart = make_chart("x1 x2 q1 q2", "p1 p2")
        d = lambda name: DifferentialForm.basis_covector(chart, name)  # noqa: E731
        x1, x2, p1 = (RingElement.coordinate(chart, n) for n in ("x1", "x2", "p1"))
        omega = (
            d("x1").wedge(d("x2")) + d("q1").wedge(d("p1")) + d("q2").wedge(d("p2"))
            + d("p1").wedge(d("x1")).scale(x2) + d("x2").wedge(d("x1")).scale(p1)
        )
        alg = coiso_algebra_from_form(omega, 2)
        a = VerticalSection.from_components(chart, [-x1, RingElement.zero(chart)])
        points = sample_grid(chart, ["p1", "x1", "x2"], per_axis=32)
        assert points.index((1.0, -1.0, 0.0, 0.0)) == 992
        message = (
            "source form is degenerate on the graph over base point "
            "(1.0, -1.0, 0.0, 0.0)"
        )
        with pytest.raises(DegenerateBivectorError) as exc:
            coisotropy_check_numeric(alg, a, per_axis=32)
        assert str(exc.value) == message
        with pytest.raises(DegenerateBivectorError) as exc:
            mc_partial_table(alg, a, 2, per_axis=32)
        assert str(exc.value) == message


class TestTwistedAlgebra:
    def test_lambda1_of_closed_section(self, t4):
        out = twisted_lambda(t4.algebra, [TwistedElement.from_section(t4.section)])
        assert out.is_zero()

    def test_lambda2_of_sections_matches_kuranishi(self, t4):
        w = TwistedElement.from_section(t4.section)
        out = twisted_lambda(t4.algebra, [w, w])
        assert out.mv is None
        assert out.section_part() == lambda_n(t4.algebra, t4.section, t4.section)

    def test_lambda2_of_bivectors_matches_schouten(self, t4):
        rng = rng_for("tw-schouten")
        chart = t4.algebra.chart
        for _ in range(20):
            X = rand_multivector(rng, chart, 2, max_ydeg=2)
            w = TwistedElement.from_multivector(X)
            out = twisted_lambda(t4.algebra, [w, w])
            # lambda_2(X[1], X[1]) = (-1)^{|X|}[X, X] with |X| = 1
            assert out.mv_part() == -schouten_bracket(X, X)

    def test_lambda1_of_multivector(self, t4):
        rng = rng_for("tw-l1")
        chart = t4.algebra.chart
        for _ in range(10):
            X = rand_multivector(rng, chart, rng.randint(1, 3), max_ydeg=1)
            out = twisted_lambda(t4.algebra, [TwistedElement.from_multivector(X)])
            assert out.mv_part() == -schouten_bracket(t4.algebra.pi, X)
            assert out.section_part() == projection_P(X)

    def test_higher_jacobi_twisted(self):
        chart = small_chart()
        rng = rng_for("tw-jacobi")
        for trial in range(12):
            pi = rand_poisson_disjoint(rng, chart)
            assert schouten_bracket(pi, pi).is_zero()
            alg = make_coiso_algebra(pi)
            fam = twisted_brackets(alg)
            n = 1 + trial % 3
            inputs = []
            for _ in range(n):
                d = rng.choice((0, 1))
                if rng.random() < 0.5:
                    inputs.append(
                        TwistedElement.from_section(rand_section(rng, chart, d + 1))
                    )
                else:
                    inputs.append(
                        TwistedElement.from_multivector(
                            rand_multivector(rng, chart, d + 2, max_ydeg=2)
                        )
                    )
            assert higher_jacobi_verify(fam, inputs)

    def test_higher_jacobi_untwisted(self):
        chart = small_chart()
        rng = rng_for("untw-jacobi")
        for trial in range(12):
            pi = rand_poisson_disjoint(rng, chart)
            alg = make_coiso_algebra(pi)
            fam = coisotropic_brackets(alg)
            n = 1 + trial % 3
            inputs = [rand_section(rng, chart, rng.randint(1, 2)) for _ in range(n)]
            assert higher_jacobi_verify(fam, inputs)

    def test_all_zero_inputs(self, t4):
        fam = twisted_brackets(t4.algebra)
        z = TwistedElement.zero(t4.algebra.chart, 0)
        for n in (1, 2, 3):
            assert higher_jacobi_verify(fam, [z] * n)

    def test_twisted_mc_equivalence_families(self, t4):
        alg = t4.algebra
        chart = alg.chart
        rng = rng_for("tw-mc")
        one = RingElement.one(chart)
        sin1 = RingElement.sin_of(chart, {"y1": 1})
        cases = []
        # (tau, alpha, expect_poisson, expect_coiso)
        zero2 = MultiVectorField.zero(chart, 2)
        const_tau = MultiVectorField(chart, 2, (((0, 2), one.scale(Fraction(1, 3))),))
        ydep_tau = MultiVectorField(
            chart, 2, (((0, 4), RingElement.coordinate(chart, "p1")),)
        )
        alpha_flat = VerticalSection.from_components(
            chart, [RingElement.constant(chart, Fraction(1, 5)), RingElement.zero(chart)]
        )
        alpha_sine = VerticalSection.from_components(
            chart, [sin1, RingElement.sin_of(chart, {"y2": 1})]
        )
        cases.append((zero2, alpha_flat, True, True))
        cases.append((zero2, alpha_sine, True, False))
        cases.append((const_tau, alpha_flat, True, True))
        if not schouten_bracket(alg.pi + ydep_tau, alg.pi + ydep_tau).is_zero():
            cases.append((ydep_tau, alpha_flat, False, True))
        for tau, alpha, want_poisson, _ in cases:
            w = TwistedElement(chart, mv=tau, section=alpha)
            mc = twisted_mc(alg, w)
            pt = alg.pi + tau
            jac_zero = schouten_bracket(pt, pt).is_zero()
            assert jac_zero == want_poisson
            coiso = projection_P(fibre_translate_pushforward(pt, alpha)).is_zero()
            numeric = coisotropy_check_numeric(pt, alpha, per_axis=6)
            assert numeric.coisotropic == coiso
            assert mc.is_zero() == (jac_zero and coiso)

    def test_twisted_mc_is_the_defining_series(self, t4):
        # the closed form equals sum_{k <= K} lambda_k(w, ..., w) / k!, summed
        # here slot by slot through twisted_lambda, to a bound K past the last
        # nonzero term
        rng = rng_for("tw-mc-series")
        small = make_coiso_algebra(rand_poisson_disjoint(rng, small_chart()))
        for alg in (t4.algebra, small):
            chart = alg.chart
            for ydeg in (0, 1, 2):
                tau = rand_multivector(rng, chart, 2, max_ydeg=ydeg)
                w = TwistedElement(chart, mv=tau, section=rand_section(rng, chart))
                bound = default_exp_cap(alg.pi) + default_exp_cap(tau) + 1
                series = TwistedElement.zero(chart, degree=1)
                fact = 1
                for k in range(1, bound + 1):
                    fact *= k
                    term = twisted_lambda(alg, [w] * k)
                    series = series + term.scale(Fraction(1, fact))
                mc = twisted_mc(alg, w)
                assert mc.mv_part().terms == series.mv_part().terms
                assert mc.section_part().terms == series.section_part().terms


class TestKuranishi:
    def test_t4_representative(self, t4):
        rep = kuranishi_rep(t4.algebra, t4.section)
        assert rep == lambda_n(t4.algebra, t4.section, t4.section)

    def test_zero_section(self, t4):
        assert kuranishi_rep(t4.algebra, zero_section(t4.algebra.chart)).is_zero()

    def test_constant_section(self, t4):
        chart = t4.algebra.chart
        const = VerticalSection.from_components(
            chart, [RingElement.constant(chart, 1), RingElement.constant(chart, 2)]
        )
        assert kuranishi_rep(t4.algebra, const).is_zero()

    def test_not_closed_rejected(self, t4):
        chart = t4.algebra.chart
        # q2-dependence along e_{p1}: the leafwise image -sin(2 pi q2) dq1
        # is not d_F-closed, so lambda_1 does not vanish
        bad = VerticalSection.from_components(
            chart,
            [RingElement.sin_of(chart, {"q2": 1}), RingElement.zero(chart)],
        )
        assert not lambda_n(t4.algebra, bad).is_zero()
        with pytest.raises(NotClosedError):
            kuranishi_rep(t4.algebra, bad)


class TestSampleGrid:
    def test_support_aware_and_deterministic(self):
        chart = make_chart("a* b c*", "y")
        g1 = sample_grid(chart, ("a",), per_axis=4)
        assert len(g1) == 4
        assert all(p[1] == 0.0 and p[2] == 0.0 for p in g1)
        assert g1 == sample_grid(chart, ("a",), per_axis=4)
