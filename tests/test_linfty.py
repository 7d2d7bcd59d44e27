"""Multibrackets, Maurer-Cartan series, coisotropy checks, twisted algebra."""

import itertools
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    jet_models,
    rand_multivector,
    rand_poisson_disjoint,
    rand_section,
    rng_for,
    small_chart,
    torus_gotay_form,
    zero_section,
)
from coisokit import (
    CoisoAlgebra,
    CoisoKitError,
    ConvergenceRow,
    ConvergenceTable,
    DegenerateBivectorError,
    DomainBoundError,
    InvertedBivector,
    JetOrderError,
    MultiVectorField,
    NotClosedError,
    NotCoisotropicError,
    NotPoissonError,
    NotVerticalError,
    RingElement,
    Scalar,
    TruncationCapError,
    TwistedElement,
    VerticalSection,
    beta_of,
    build_T4_example,
    coiso_algebra_from_form,
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
    obstructedness_certificate,
    projection_P,
    pushforward_oracle_numeric,
    sample_grid,
    schouten_bracket,
    symplectic_to_poisson,
    twisted_brackets,
    twisted_lambda,
    twisted_mc,
    DifferentialForm,
)
from coisokit import cli, linfty, multivector
from coisokit.coeff_ring import GridEvaluator
from coisokit.multivector import ad_series, default_exp_cap


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
        assert t4.algebra.pi.source_form is not None

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
        assert alg.poisson_verified and alg.pi.source_form == omega

    def test_arithmetic_on_an_inverted_bivector_drops_its_source(self, self_brackets):
        chart = make_chart("x1 x2 q1 q2", "p1 p2")
        one = RingElement.one(chart)
        omega = DifferentialForm(
            chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))
        )
        pi = symplectic_to_poisson(omega)
        assert isinstance(pi, InvertedBivector) and pi.source_form == omega
        del self_brackets[:]
        same = -(-pi)  # equal to pi, but not the inversion's result
        assert same == pi and type(same) is MultiVectorField
        assert not hasattr(same, "source_form")
        assert make_coiso_algebra(same).poisson_verified
        assert self_brackets == [same]

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

    def test_every_deformation_check_reads_the_domain_bound(self):
        chart = make_chart("u*", "y1 y2", bound=Fraction(1, 2))
        pi = MultiVectorField(chart, 2, (((0, 1), RingElement.one(chart)),))
        alg = algebra_for(pi)
        sin = RingElement.sin_of(chart, {"u": 1})
        zero = RingElement.zero(chart)
        small = VerticalSection.from_components(chart, [sin.scale(Fraction(1, 4)), zero])
        big = VerticalSection.from_components(chart, [sin, zero])
        checks = (
            mc_series_exact,
            lambda alg, a: mc_partial_table(alg, a, 1, per_axis=4),
            lambda alg, a: coisotropy_check_numeric(alg, a, per_axis=4),
        )
        for check in checks:
            check(alg, small)  # inside the tube
            with pytest.raises(DomainBoundError, match="leaves the tubular domain"):
                check(alg, big)

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

    def test_partial_sums_repeat_once_the_series_has_ended(self, t4):
        # constant-coefficient pi: lambda_3 and later vanish on the T^4 model
        table = mc_partial_table(t4.algebra, t4.section, 5, per_axis=2)
        by_point = {}
        for row in table.rows:
            by_point.setdefault(row.point, []).append(row.partial)
        for partials in by_point.values():
            assert len(partials) == 5
            assert partials[1] == partials[2] == partials[3] == partials[4]
        assert table.max_error_at(2) == table.max_error_at(5) <= 1e-9

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

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_is_a_jet_order_error(self, t4, order):
        """An order-0 table had no row and passed every check; order -1
        raised a bare ValueError from itertools.islice."""
        with pytest.raises(JetOrderError, match=f"table order {order} < 1"):
            mc_partial_table(t4.algebra, t4.section, order, per_axis=2)

    def test_a_nan_error_is_refused(self):
        rows = (ConvergenceRow((0.0,), 1, (1.0,), (0.5,), 0.5),
                ConvergenceRow((1.0,), 1, (math.nan,), (0.5,), math.nan))
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceTable(("y",), ("x",), rows)
        negative = ConvergenceRow((1.0,), 1, (0.0,), (1.0,), -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceTable(("y",), ("x",), (rows[0], negative))

    def test_max_error_keeps_a_nan_that_is_not_first(self):
        rows = tuple(ConvergenceRow((x,), 1, (x,), (0.0,), x) for x in (0.5, 0.25, 1.0))
        table = ConvergenceTable(("y",), ("x",), rows)
        assert table.max_error_at(1) == 1.0 and table.max_error_at(2) == 0.0
        # a row the constructor would refuse, set behind its back: Python's
        # max would read 0.5 here
        object.__setattr__(rows[1], "abs_error", math.nan)
        assert math.isnan(table.max_error_at(1))

    def test_a_nan_at_a_grid_point_is_an_error(self, t4, monkeypatch):
        original = linfty._pushforward_block

        def with_nan(alg, alpha):
            block = original(alg, alpha)

            def poisoned(base):
                out = block(base)
                out[1] = math.nan
                return out

            return poisoned

        table = mc_partial_table(t4.algebra, t4.section, 3, per_axis=2)
        point = table.rows[3].point  # rows of the second grid point start here
        monkeypatch.setattr(linfty, "_pushforward_block", with_nan)
        with pytest.raises(CoisoKitError, match=re.escape(f"not a number at {point}")):
            mc_partial_table(t4.algebra, t4.section, 3, per_axis=2)

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
        table = mc_partial_table(alg, t4.section, 1)
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


def reference_blocks(alg_or_pi, alpha, base):
    """(J Pi J^T)[m:, m:] point by point: the true matrix at (x, -alpha(x)),
    one full inverse per point and the whole (m + n)-square Jacobian."""
    pi = alg_or_pi.pi if isinstance(alg_or_pi, CoisoAlgebra) else alg_or_pi
    invert = isinstance(pi, InvertedBivector)
    true = pi.source_form if invert else pi
    chart = alpha.chart
    m, size = chart.n_base, chart.n_dirs
    comps = alpha.components()
    section = GridEvaluator(comps)
    partials = GridEvaluator([c.partial(name) for c in comps for name in chart.base])
    entries = GridEvaluator([c for _, c in true.terms])
    out = []
    for x in base:
        x = x[None]
        mat = np.zeros((size, size), dtype=complex)
        for ((i, j), _), v in zip(true.terms, entries(x, -section(x))[0]):
            mat[i, j], mat[j, i] = v, -v
        if invert:
            mat = -np.linalg.inv(mat)
        jac = np.eye(size, dtype=complex)
        jac[m:, :m] = partials(x)[0].reshape(len(comps), m)
        out.append((jac @ mat @ jac.T)[m:, m:])
    return np.array(out)


def fourier_section(rng, chart, coords):
    """One seeded sine or cosine of a coordinate among ``coords`` per component."""
    comps = []
    for j in range(chart.n_fibre):
        maker = rng.choice((RingElement.sin_of, RingElement.cos_of))
        term = maker(chart, {coords[j % len(coords)]: rng.randint(1, 2)})
        comps.append(term.scale(Fraction(rng.randint(1, 3), rng.randint(1, 2))))
    return VerticalSection.from_components(chart, comps)


class TestOracleReference:
    """The chunked oracle against a per-point numpy reference (+-0 equal)."""

    @staticmethod
    def compare(monkeypatch, alg_or_pi, alpha, per_axis):
        from coisokit import linfty

        inverted = []
        original = linfty._inverse_or_degenerate

        def recording(mats, base):
            inverted.append(len(mats))
            return original(mats, base)

        monkeypatch.setattr(linfty, "_inverse_or_degenerate", recording)
        pi = alg_or_pi.pi if isinstance(alg_or_pi, CoisoAlgebra) else alg_or_pi
        names = sorted(pi.support_names() | alpha.support_names())
        points = sample_grid(alpha.chart, names, per_axis=per_axis)
        block = linfty._pushforward_block(alg_or_pi, alpha)
        chunks = []
        for _, base in linfty._grid_chunks(alpha.chart, points):
            chunks.append(len(base))
            got = block(base)
            assert np.array_equal(got, reference_blocks(alg_or_pi, alpha, base))
        return chunks, inverted

    @pytest.mark.parametrize("k, r", list(itertools.product((1, 2, 3), (2, 4))))
    def test_gotay_models_invert_one_matrix_per_chunk(self, monkeypatch, k, r):
        alg = coiso_algebra_from_form(torus_gotay_form(k, r))
        chart = alg.chart
        rng = rng_for(f"oracle-reference-{k}-{r}")
        for size in (1, 2):
            alpha = fourier_section(rng, chart, rng.sample(chart.base, size))
            chunks, inverted = self.compare(monkeypatch, alg, alpha, per_axis=32)
            assert len(alpha.support_names()) == size
            assert inverted == [1] * len(chunks)

    def test_jet_models_invert_every_point(self, monkeypatch):
        for omega, alpha in jet_models():
            alg = coiso_algebra_from_form(omega, 12)
            chunks, inverted = self.compare(monkeypatch, alg, alpha, per_axis=4)
            assert inverted == chunks and max(chunks) > 1

    def test_constant_plain_bivector(self, monkeypatch, t4):
        chart = t4.algebra.chart
        one = RingElement.one(chart)
        pi = MultiVectorField(chart, 2, (((0, 1), one.scale(2)), ((2, 4), one),
                                         ((3, 5), one.scale(Fraction(-1, 3)))))
        for alpha in (t4.section, *t4_family(chart)):
            chunks, inverted = self.compare(monkeypatch, pi, alpha, per_axis=8)
            assert inverted == [] and chunks


def weight_parts(X: MultiVectorField) -> dict:
    """{w: X_w}: the terms of X split by weight (fibre degree plus base wedge
    factors), each coefficient at its jet order in X."""
    chart = X.chart
    parts = {}
    for dirs, c in X.terms:
        b = sum(d < chart.n_base for d in dirs)
        for t in c.terms:
            parts.setdefault(b + sum(t[2]), {}).setdefault(dirs, (c.jet_order, []))[1].append(t)
    return {
        w: MultiVectorField(chart, X.degree, [(dirs, RingElement(chart, ts, jet))
                                              for dirs, (jet, ts) in by_dirs.items()])
        for w, by_dirs in parts.items()
    }


def term_weights(X: MultiVectorField) -> set:
    chart = X.chart
    return {sum(d < chart.n_base for d in dirs) + sum(ye)
            for dirs, c in X.terms for _, _, ye, _ in c.terms}


def reference_partials(alg, alpha, order, points) -> np.ndarray:
    """(point, n, component) partial sums of the unpruned series
    sum_{k <= n} P(ad_a^k pi) / k!, evaluated at ``points``."""
    chart = alg.chart
    acc, sums = MultiVectorField.zero(chart, 2), []
    for term, coeff in itertools.islice(ad_series(alg.pi, alpha), order):
        acc = acc + projection_P(term).scale(coeff)
        sums.append(acc)
    sums += [acc] * (order - len(sums))
    dirs = list(itertools.combinations(range(chart.n_base, chart.n_dirs), 2))
    values = GridEvaluator([beta.coefficient(d) for beta in sums for d in dirs])
    return values(np.array(points, dtype=float)).real.reshape(len(points), order, len(dirs))


def assert_partials_match_reference(alg, alpha, order, per_axis):
    table = mc_partial_table(alg, alpha, order, per_axis=per_axis)
    points = list(dict.fromkeys(row.point for row in table.rows))
    ref = reference_partials(alg, alpha, order, points)
    at = {x: i for i, x in enumerate(points)}
    assert len(table.rows) == len(points) * order
    for row in table.rows:
        expected = ref[at[row.point], row.n - 1]
        assert [v.hex() for v in row.partial] == [float(v).hex() for v in expected]


class TestWeightTruncation:
    """A table takes its series of pi_{<= N}: every bracket with a vertical
    base-only section lowers each term's weight by one, so P(ad_a^k pi)
    reads the weight-k part of pi only."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 3), st.sampled_from((None, 0, 1, 2, 3)),
           st.sampled_from(("small", "wide")))
    def test_bracket_lowers_every_weight_by_one(self, seed, degree, jet, chart_name):
        rng = rng_for(f"weights-{seed}")
        chart = small_chart() if chart_name == "small" else make_chart("b0* b1 b2", "f0 f1 f2")
        X = rand_multivector(rng, chart, degree, nterms=4, max_ydeg=3, real=False)
        if jet is not None:
            X = X.truncate(jet)
        a = rand_section(rng, chart, nterms=3, real=False)
        parts = weight_parts(X)
        for w, part in parts.items():
            assert term_weights(part) == {w}
            assert term_weights(schouten_bracket(part, a)) <= {w - 1}
        if jet is None:
            total = MultiVectorField.zero(chart, degree)
            for part in parts.values():
                total = total + schouten_bracket(part, a)
            assert total == schouten_bracket(X, a)
        for order in range(4):
            kept = MultiVectorField.zero(chart, degree)
            for w, part in parts.items():
                if w <= order:
                    kept = kept + part
            pruned = linfty._weight_part(X, order)
            assert pruned.without_truncation() == kept.without_truncation()
            # a component with b base factors is a jet of order N - b
            for dirs, c in pruned.terms:
                b = sum(d < chart.n_base for d in dirs)
                jet = X.coefficient(dirs).jet_order
                assert c.jet_order == (order - b if jet is None else min(jet, order - b))

    @pytest.mark.parametrize("order", [1, 5, 12])
    def test_jet_tables_equal_the_unpruned_series(self, order):
        for omega, alpha in jet_models():
            alg = coiso_algebra_from_form(omega, 12)
            assert_partials_match_reference(alg, alpha, order, per_axis=4)

    @pytest.mark.parametrize("base, fibre", [("x1 x2*", "y1 y2"), ("b0* b1", "f0 f1 f2")])
    def test_exact_tables_below_the_series_length_equal_the_unpruned_series(self, base, fibre):
        chart = make_chart(base, fibre)
        rng = rng_for(f"weight-tables-{base}")
        lengths = []
        for _ in range(6):
            pi = centered_bivector(rng, chart, max_ydeg=3, nterms=4)
            alpha = rand_section(rng, chart, nterms=3)
            length = sum(1 for _ in ad_series(pi, alpha))
            lengths.append(length)
            for order in range(1, length):
                assert_partials_match_reference(algebra_for(pi), alpha, order, per_axis=3)
        assert max(lengths) >= 4


class TestTwistedAlgebra:
    def test_parts_of_disagreeing_degree_raise(self, t4):
        chart = t4.algebra.chart
        pi = t4.algebra.pi  # W-degree 0
        top = VerticalSection(chart, 2, (((4, 5), RingElement.one(chart)),))  # W-degree 1
        assert TwistedElement(pi, t4.section).degree == 0
        for mv, section in (
            (pi, top),
            (MultiVectorField.zero(chart, 3), t4.section),
            (pi, VerticalSection(chart, 2, ())),
        ):
            with pytest.raises(ValueError, match="inhomogeneous twisted element"):
                TwistedElement(mv, section)

    @pytest.mark.parametrize("degree", [-1, 0, 1, 2])
    def test_zero_has_parts_of_the_degrees_its_w_degree_fixes(self, t4, degree):
        z = TwistedElement.zero(t4.algebra.chart, degree)
        assert z.is_zero() and z.degree == degree
        assert (z.mv.degree, z.section.degree) == (degree + 2, degree + 1)
        assert isinstance(z.section, VerticalSection)
        assert z.chart == t4.algebra.chart

    def test_brackets_of_functions_keep_their_w_degree(self, t4):
        # [f, g] of two functions is the zero field of degree -1; the
        # results are the zero elements of the W-degree sum + 1
        chart = t4.algebra.chart
        f = MultiVectorField.function(chart, RingElement.coordinate(chart, "p1"))
        g = VerticalSection(chart, 0, (((), RingElement.sin_of(chart, {"y1": 1})),))
        h = VerticalSection(chart, 0, (((), RingElement.sin_of(chart, {"q1": 1})),))
        fw, gw, hw = (TwistedElement.from_multivector(f), TwistedElement.from_section(g),
                      TwistedElement.from_section(h))
        for args, degree in (([fw, fw], -3), ([fw, gw], -2), ([gw, hw, gw], -2)):
            out = twisted_lambda(t4.algebra, args)
            assert out.is_zero() and out.degree == degree

    def test_lambda_is_multilinear_over_the_parts(self):
        # lambda_n of elements with both parts nonzero is the sum, over the
        # choice of part in each slot, of lambda_n of the pure parts
        chart = small_chart()
        rng = rng_for("tw-multilinear")
        alg = make_coiso_algebra(rand_poisson_disjoint(rng, chart))
        mixed_terms = 0
        for n in (1, 2, 3):
            for _ in range(4):
                elements = []
                for _ in range(n):
                    d = rng.choice((-1, 0, 1))
                    X = rand_multivector(rng, chart, d + 2, nterms=3, max_ydeg=1)
                    a = rand_section(rng, chart, d + 1, nterms=3)
                    assert not (X.is_zero() or a.is_zero())
                    elements.append(TwistedElement(X, a))
                pure = [
                    (TwistedElement.from_multivector(e.mv), TwistedElement.from_section(e.section))
                    for e in elements
                ]
                expected = TwistedElement.zero(chart, sum(e.degree for e in elements) + 1)
                for choice in itertools.product(*pure):
                    term = twisted_lambda(alg, list(choice))
                    mixed = len({c.mv.is_zero() for c in choice}) == 2
                    mixed_terms += mixed and not term.is_zero()
                    expected = expected + term
                got = twisted_lambda(alg, elements)
                assert got.mv.terms == expected.mv.terms
                assert got.section.terms == expected.section.terms
        assert mixed_terms  # a nonzero term has a multivector slot and a section slot

    def test_lambda1_of_closed_section(self, t4):
        out = twisted_lambda(t4.algebra, [TwistedElement.from_section(t4.section)])
        assert out.is_zero()

    def test_lambda2_of_sections_matches_kuranishi(self, t4):
        w = TwistedElement.from_section(t4.section)
        out = twisted_lambda(t4.algebra, [w, w])
        assert out.mv.is_zero()
        assert out.section == lambda_n(t4.algebra, t4.section, t4.section)

    def test_lambda2_of_bivectors_matches_schouten(self, t4):
        rng = rng_for("tw-schouten")
        chart = t4.algebra.chart
        for _ in range(20):
            X = rand_multivector(rng, chart, 2, max_ydeg=2)
            w = TwistedElement.from_multivector(X)
            out = twisted_lambda(t4.algebra, [w, w])
            # lambda_2(X[1], X[1]) = (-1)^{|X|}[X, X] with |X| = 1
            assert out.mv == -schouten_bracket(X, X)

    def test_lambda1_of_multivector(self, t4):
        rng = rng_for("tw-l1")
        chart = t4.algebra.chart
        for _ in range(10):
            X = rand_multivector(rng, chart, rng.randint(1, 3), max_ydeg=1)
            out = twisted_lambda(t4.algebra, [TwistedElement.from_multivector(X)])
            assert out.mv == -schouten_bracket(t4.algebra.pi, X)
            assert out.section == projection_P(X)

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

    @pytest.mark.parametrize("fibre", ["y1 y2", "y1 y2 y3"])
    def test_higher_jacobi_twisted_odd_degrees(self, fibre):
        # W-degree -1 draws (vector fields, base functions) make the Koszul
        # signs of the multivector slot nonzero; rank 3 leaves room for them
        chart = make_chart("x1 x2*", fibre)
        rng = rng_for(f"tw-jacobi-odd/{fibre}")
        for trial in range(20):
            alg = make_coiso_algebra(rand_poisson_disjoint(rng, chart))
            fam = twisted_brackets(alg)
            inputs = []
            for _ in range(2 + trial % 2):
                d = rng.choice((-1, -1, 0, 1))
                X = rand_multivector(rng, chart, d + 2, max_ydeg=2)
                a = rand_section(rng, chart, d + 1)
                inputs.append(TwistedElement.from_multivector(X) + TwistedElement.from_section(a))
            assert higher_jacobi_verify(fam, inputs)

    def test_higher_jacobi_untwisted(self):
        chart = small_chart()
        rng = rng_for("untw-jacobi")
        for trial in range(12):
            pi = rand_poisson_disjoint(rng, chart)
            alg = make_coiso_algebra(pi)
            fam = lambda args, alg=alg: lambda_n(alg, *args)
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
            w = TwistedElement(tau, alpha)
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
                w = TwistedElement(tau, rand_section(rng, chart))
                bound = default_exp_cap(alg.pi) + default_exp_cap(tau) + 1
                series = TwistedElement.zero(chart, degree=1)
                fact = 1
                for k in range(1, bound + 1):
                    fact *= k
                    term = twisted_lambda(alg, [w] * k)
                    series = series + term.scale(Fraction(1, fact))
                mc = twisted_mc(alg, w)
                assert mc.mv.terms == series.mv.terms
                assert mc.section.terms == series.section.terms


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


def t4_scenario():
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "t4.scn"), encoding="utf-8") as fh:
        return cli.parse_scenario(fh.read(), name="t4.scn", base_dir=data)


def memo_levels(alg):
    return [level for chain in alg._chains.values() for _, level in chain.values()]


def direct_chain(pi, sections):
    """P([...[pi, a_1], ..., a_k]) bracketed here, with no algebra."""
    X = pi
    for a in sections:
        X = schouten_bracket(X, a)
    return projection_P(X)


def count_brackets(monkeypatch) -> list:
    """The (X, Y) of every ``schouten_bracket`` call that coisokit makes from
    now on, in order."""
    original = multivector.schouten_bracket
    calls = []

    def counting(X, Y):
        calls.append((X, Y))
        return original(X, Y)

    for name, module in list(sys.modules.items()):
        if name == "coisokit" or name.startswith("coisokit."):
            if getattr(module, "schouten_bracket", None) is original:
                monkeypatch.setattr(module, "schouten_bracket", counting)
    return calls


class TestBracketMemo:
    """An algebra brackets each chain [...[pi, a_1], ..., a_k] once, keyed by
    the identity of each section, and keeps no derivative table."""

    def test_t4_scenario_takes_each_bracket_of_its_section_once(self, monkeypatch):
        original = multivector.schouten_bracket
        calls = count_brackets(monkeypatch)
        scenario = t4_scenario()
        report = cli.run(scenario)
        assert report.exit_code() == 0
        pi, a = scenario.bindings["pi"], scenario.bindings["a"]
        first = original(pi, a)
        second = original(first, a)
        assert sum(X == pi and Y == a for X, Y in calls) == 1
        assert sum(X == first and Y == a for X, Y in calls) == 1
        # [pi, pi] at the inversion, the three brackets of the MC series
        # (the last one zero), and [pi, P([[pi, a], a])] of the Jacobi check
        assert len(calls) == 5
        assert original(second, a).is_zero()

    def test_jacobi_check_brackets_each_argument_tuple_once(self, monkeypatch):
        ex = build_T4_example()
        alg, pi = ex.algebra, ex.algebra.pi
        chart = pi.chart
        unclosed = VerticalSection.from_components(
            chart, [RingElement.sin_of(chart, {"q2": 1}), RingElement.zero(chart)]
        )
        # as in a scenario, the mc check has left [pi, a] and [[pi, a], a]
        # in the memo before the Jacobi check runs
        mc_series_exact(alg, unclosed)
        calls = count_brackets(monkeypatch)
        w = TwistedElement.from_section(unclosed)
        family = twisted_brackets(alg)
        assert [higher_jacobi_verify(family, [w] * n) for n in (1, 2)] == [True, True]
        first = direct_chain(pi, (unclosed,))
        assert not first.is_zero() and direct_chain(pi, (unclosed, unclosed)).is_zero()
        # order 1 takes [pi, P([pi, a])]; order 2 takes it and
        # [[pi, P([pi, a])], a] once for both unshuffles that choose one input
        assert [(X == pi, Y == first, Y == unclosed) for X, Y in calls] == [
            (True, True, False), (True, True, False), (False, False, True),
        ]

    def test_equal_sections_and_rebound_names_match_a_fresh_algebra(self):
        ex = build_T4_example()
        alg, pi, a = ex.algebra, ex.algebra.pi, ex.section
        twin = VerticalSection(a.chart, a.degree, a.terms)  # equal, not identical
        chart = a.chart
        other = VerticalSection.from_components(
            chart, [RingElement.sin_of(chart, {"y1": 1}).scale(2), RingElement.sin_of(chart, {"y2": 1})]
        )
        calls = [
            ("mc", lambda g, x, y: mc_series_exact(g, x)),
            ("kuranishi", lambda g, x, y: kuranishi_rep(g, x)),
            ("lambda_2", lambda g, x, y: lambda_n(g, x, y)),
            ("lambda_3", lambda g, x, y: lambda_n(g, y, x, x)),
            ("lambda_1", lambda g, x, y: lambda_n(g, x)),
        ]
        for x, y in ((a, twin), (twin, a), (a, other), (other, twin), (a, a)):
            for name, call in calls:
                got = call(alg, x, y)
                fresh = call(make_coiso_algebra(pi), x, y)
                assert got == fresh, name
        # the chains against brackets taken here
        assert kuranishi_rep(alg, twin) == direct_chain(pi, (a, a))
        assert not direct_chain(pi, (a, a)).is_zero()
        assert lambda_n(alg, other, a) == direct_chain(pi, (other, a))
        assert lambda_n(alg, a, other, a) == direct_chain(pi, (a, other, a))
        # a key whose id now names another object (as in a copy of the
        # algebra) is bracketed again: a hit must hold the very section
        unclosed = VerticalSection.from_components(
            chart, [RingElement.sin_of(chart, {"q2": 1}), RingElement.zero(chart)]
        )
        forged = make_coiso_algebra(pi)
        lambda_n(forged, unclosed)
        (chain,) = forged._chains.values()
        forged._chains.clear()
        forged._chains[(id(other),)] = {(id(other),): chain[(id(unclosed),)]}
        assert lambda_n(forged, other) == direct_chain(pi, (other,)) != direct_chain(pi, (unclosed,))
        # a name rebound to a new section: the memo holds the old one, so its
        # id is not reused while the old chain is kept
        s = VerticalSection(a.chart, a.degree, a.terms)
        assert kuranishi_rep(alg, s) == direct_chain(pi, (a, a))
        for n in range(1, 5):
            s = VerticalSection.from_components(
                chart, [RingElement.sin_of(chart, {"y1": 1}).scale(n), RingElement.sin_of(chart, {"y2": 1})]
            )
            assert kuranishi_rep(alg, s) == direct_chain(pi, (s, s))
            assert mc_series_exact(alg, s) == projection_P(exp_ad(pi, s))

    def test_no_section_or_memo_level_keeps_a_derivative_table(self):
        ex = build_T4_example()
        alg, a = ex.algebra, ex.section
        w = TwistedElement.from_section(a)
        family = twisted_brackets(alg)
        steps = (
            lambda: mc_series_exact(alg, a),
            lambda: kuranishi_rep(alg, a),
            lambda: [higher_jacobi_verify(family, [w] * n) for n in (1, 2)],
        )
        for step in steps:
            step()
            levels = memo_levels(alg)
            assert levels and all(X._partials is None for X in levels)
            assert a._partials is None and alg.pi._partials is None

    def test_memo_keeps_lambda_values_and_hands_out_copies(self):
        ex = build_T4_example()
        alg, pi, a = ex.algebra, ex.algebra.pi, ex.section
        chart = a.chart
        b = VerticalSection.from_components(
            chart, [RingElement.sin_of(chart, {"q2": 1}), RingElement.sin_of(chart, {"y1": 1})]
        )
        mc_series_exact(alg, a)
        lambda_n(alg, b, a, b)
        # lambda_1 and lambda_2 of each chain; no bracket and no deeper level
        want = [direct_chain(pi, s) for s in ((a,), (a, a), (b,), (b, a))]
        assert sorted(map(repr, memo_levels(alg))) == sorted(map(repr, want))
        assert all(type(X) is VerticalSection for X in memo_levels(alg))
        # a value read from the memo is a new section: a caller's bracket
        # fills its table, not the memo's
        for got in (lambda_n(alg, b), lambda_n(alg, b, a), kuranishi_rep(alg, a)):
            assert all(got is not X for X in memo_levels(alg))
            schouten_bracket(pi, got)
            assert got._partials is not None
        assert all(X._partials is None for X in memo_levels(alg))

    def test_mc_series_leaves_the_levels_past_its_end_as_zero(self, monkeypatch):
        ex = build_T4_example()
        alg, pi = ex.algebra, ex.algebra.pi
        chart = pi.chart
        flat = VerticalSection.from_components(
            chart, [RingElement.constant(chart, Fraction(1, 4)), RingElement.zero(chart)]
        )
        assert len(list(ad_series(pi, flat))) < 2
        mc_series_exact(alg, flat)
        calls = []
        monkeypatch.setattr(linfty, "schouten_bracket", lambda X, Y: calls.append(X))
        assert lambda_n(alg, flat) == direct_chain(pi, (flat,))
        assert lambda_n(alg, flat, flat) == direct_chain(pi, (flat, flat))
        assert lambda_n(alg, flat, flat).is_zero()
        assert calls == []

    def test_mc_series_raises_exactly_past_its_cap(self, monkeypatch):
        ex = build_T4_example()
        n = len(list(ad_series(ex.algebra.pi, ex.section)))
        assert n == 2
        want = mc_series_exact(ex.algebra, ex.section)
        for cap in range(n + 2):
            monkeypatch.setattr(multivector, "default_exp_cap", lambda X, cap=cap: cap)
            alg = make_coiso_algebra(ex.algebra.pi)
            if cap < n:
                with pytest.raises(TruncationCapError):
                    mc_series_exact(alg, ex.section)
            else:
                assert mc_series_exact(alg, ex.section) == want

    def test_memo_is_not_part_of_equality_or_repr(self):
        ex = build_T4_example()
        used, pi = ex.algebra, ex.algebra.pi
        fresh = make_coiso_algebra(pi)
        kuranishi_rep(used, ex.section)
        assert memo_levels(used) and not memo_levels(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == (
            f"CoisoAlgebra(chart={used.chart!r}, pi={pi!r}, poisson_verified=True)"
        )
        assert used != CoisoAlgebra(used.chart, pi, False)


DEFORMATION_ENTRY_POINTS = {
    "mc_series_exact": mc_series_exact,
    "mc_partial_table": lambda alg, a: mc_partial_table(alg, a, 2, per_axis=2),
    "coisotropy_check_numeric": lambda alg, a: coisotropy_check_numeric(alg, a, per_axis=2),
    "pushforward_oracle_numeric": lambda alg, a: pushforward_oracle_numeric(
        alg, a, (0.0, 0.0, 0.0, 0.0)
    ),
    "kuranishi_rep": kuranishi_rep,
    "beta_of": beta_of,
    "obstructedness_certificate": obstructedness_certificate,
}


class TestDeformationSectionRule:
    """Every function that deforms by a section takes degree 1 only, with one message."""

    @pytest.mark.parametrize("entry", sorted(DEFORMATION_ENTRY_POINTS))
    def test_degree_two_section_is_rejected(self, t4, entry):
        chart = t4.algebra.chart
        a = MultiVectorField.basis_vector(chart, "p1").wedge(
            MultiVectorField.basis_vector(chart, "p2")
        )
        with pytest.raises(
            NotVerticalError, match="^a deformation section has degree 1, not 2$"
        ):
            DEFORMATION_ENTRY_POINTS[entry](t4.algebra, a)


class TestSampleGrid:
    def test_support_aware_and_deterministic(self):
        chart = make_chart("a* b c*", "y")
        g1 = sample_grid(chart, ("a",), per_axis=4)
        assert len(g1) == 4
        assert all(p[1] == 0.0 and p[2] == 0.0 for p in g1)
        assert g1 == sample_grid(chart, ("a",), per_axis=4)

    @pytest.mark.parametrize(
        "names, per_axis, count",
        [
            (("a",), 32, 32),
            (("a", "y"), 32, 32),  # a fibre name is not a grid axis
            (("a", "b"), 32, 32),
            (("a", "b", "c"), 32, 16),  # 16^3 = 4096 points
            (("a", "b", "c", "y"), 32, 16),
            (("a", "b", "c"), 8, 8),
            (("a", "b"), 1, 2),  # at least 2 points per axis
            (("y",), 32, 1),  # no base axis varies
        ],
    )
    def test_per_axis_is_an_upper_bound_within_the_budget(self, names, per_axis, count):
        chart = make_chart("a* b c*", "y")
        grid = sample_grid(chart, names, per_axis)
        varied = sum(1 for nm in chart.base if nm in names)
        assert len(grid) == count ** varied
        for i, nm in enumerate(chart.base):
            assert len({p[i] for p in grid}) == (count if nm in names else 1)
