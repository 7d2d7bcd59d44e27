"""Schouten calculus: bracket axioms, projection, pushforward, adjoint series."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    rand_base_ring,
    rand_fraction,
    rand_multivector,
    rand_ring,
    rand_section,
    rng_for,
    small_chart,
    zero_section,
)
from coisokit import (
    DifferentialForm,
    JetOrderError,
    MultiVectorField,
    NotVerticalError,
    RingElement,
    Scalar,
    TruncationCapError,
    VerticalSection,
    deformation_section,
    exp_ad,
    fibre_translate_pushforward,
    make_chart,
    projected_pushforward,
    projection_P,
    schouten_bracket,
    sharp_star,
    sharp_star_inverse,
)
from coisokit import multivector
from coisokit._graded import GradedTerms, inversion_sign
from coisokit.multivector import ad_series


@pytest.fixture
def chart():
    return small_chart()


def sharp_contract(pi, xi):
    """The vector field pi(xi, .) of a bivector and a 1-form."""
    out = []
    for (i, j), c in pi.terms:
        for (d,), xc in xi.terms:
            # pi(xi, .)_j = sum_i xi_i Pi_{ij} with Pi antisymmetric
            if d == i:
                out.append(((j,), xc * c))
            elif d == j:
                out.append(((i,), -(xc * c)))
    return MultiVectorField(pi.chart, 1, out)  # sums repeated directions


def lie_bracket_oracle(X, Y):
    """Coordinate Jacobian formula for vector fields, independent of the
    bracket implementation: [X, Y]_k = X(Y_k) - Y(X_k)."""
    chart = X.chart
    xs = {d: c for (d,), c in X.terms}
    ys = {d: c for (d,), c in Y.terms}
    out = []
    for k in range(chart.n_dirs):
        acc = RingElement.zero(chart)
        for d, c in xs.items():
            yk = ys.get(k)
            if yk is not None:
                acc = acc + c * yk.partial(chart.direction_name(d))
        for d, c in ys.items():
            xk = xs.get(k)
            if xk is not None:
                acc = acc - c * xk.partial(chart.direction_name(d))
        if not acc.is_zero():
            out.append(((k,), acc))
    return MultiVectorField(chart, 1, out)


class TestSchoutenBracket:
    def test_coordinate_lie_bracket(self, chart):
        x1 = MultiVectorField.basis_vector(chart, "x1")
        v = MultiVectorField.basis_vector(chart, "y1").scale(
            RingElement.coordinate(chart, "x1")
        )
        assert schouten_bracket(x1, v) == MultiVectorField.basis_vector(chart, "y1")

    def test_vector_fields_match_jacobian_oracle(self, chart):
        rng = rng_for("lie-oracle")
        for _ in range(50):
            X = rand_multivector(rng, chart, 1)
            Y = rand_multivector(rng, chart, 1)
            assert schouten_bracket(X, Y) == lie_bracket_oracle(X, Y)

    def test_bracket_of_two_functions_has_degree_minus_one(self, chart):
        # degree p + q - 1 holds for p = q = 0 too, so a zero sum keeps its
        # degree in either summand order
        f = MultiVectorField.function(chart, RingElement.coordinate(chart, "x1"))
        g = MultiVectorField.function(chart, RingElement.coordinate(chart, "y2"))
        bracket = schouten_bracket(f, g)
        assert bracket.is_zero() and bracket.degree == -1
        assert (MultiVectorField.zero(chart, -1) + bracket).degree == -1
        assert (bracket + MultiVectorField.zero(chart, -1)).degree == -1

    def test_self_bracket_of_vector_field_vanishes(self, chart):
        rng = rng_for("self-bracket")
        for _ in range(20):
            X = rand_multivector(rng, chart, 1)
            assert schouten_bracket(X, X).is_zero()

    def test_function_bracket_is_directional_derivative(self, chart):
        # [f @I, g] = sum_k (-1)^{p-k} f (dg/du_{i_k}) @I\k, which is X(g) for
        # p = 1; for p = 2 a left theta-derivative would flip the sign
        rng = rng_for("fn-bracket")
        for p in (1, 2, 3):
            for _ in range(20):
                X = rand_multivector(rng, chart, p)
                g = rand_ring(rng, chart)
                out = []
                for I, f in X.terms:
                    for k in range(1, p + 1):
                        c = f * g.partial(chart.direction_name(I[k - 1]))
                        out.append((I[: k - 1] + I[k:], c if (p - k) % 2 == 0 else -c))
                expected = MultiVectorField(chart, p - 1, out)
                G = MultiVectorField.function(chart, g)
                assert schouten_bracket(X, G) == expected
                # antisymmetry: [g, X] = -(-1)^{p-1} [X, g]
                flip = Scalar.rational(1 if p % 2 == 0 else -1)
                assert schouten_bracket(G, X) == expected.scale(flip)

    def test_graded_antisymmetry(self, chart):
        rng = rng_for("antisym")
        for _ in range(100):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            X = rand_multivector(rng, chart, p)
            Y = rand_multivector(rng, chart, q)
            sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
            assert schouten_bracket(X, Y) == schouten_bracket(Y, X).scale(
                Scalar.rational(sign)
            )

    def test_graded_leibniz(self, chart):
        rng = rng_for("leibniz")
        for _ in range(100):
            p, q, r = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            X = rand_multivector(rng, chart, p)
            Y = rand_multivector(rng, chart, q)
            Z = rand_multivector(rng, chart, r)
            s = Scalar.rational(-1 if ((p - 1) * q) % 2 else 1)
            lhs = schouten_bracket(X, Y.wedge(Z))
            rhs = schouten_bracket(X, Y).wedge(Z) + Y.wedge(
                schouten_bracket(X, Z)
            ).scale(s)
            assert lhs == rhs

    def test_graded_jacobi(self, chart):
        rng = rng_for("jacobi")
        for _ in range(100):
            p, q, r = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            X = rand_multivector(rng, chart, p)
            Y = rand_multivector(rng, chart, q)
            Z = rand_multivector(rng, chart, r)
            s = Scalar.rational(-1 if ((p - 1) * (q - 1)) % 2 else 1)
            lhs = schouten_bracket(X, schouten_bracket(Y, Z))
            rhs = schouten_bracket(schouten_bracket(X, Y), Z) + schouten_bracket(
                Y, schouten_bracket(X, Z)
            ).scale(s)
            assert lhs == rhs


class TestVerticalSection:
    def test_rejects_base_wedge_factor(self, chart):
        with pytest.raises(NotVerticalError):
            VerticalSection(chart, 1, (((0,), RingElement.one(chart)),))

    def test_rejects_fibre_dependent_coefficient(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        with pytest.raises(NotVerticalError):
            VerticalSection(chart, 1, (((2,), y1),))

    def test_components_round_trip(self, chart):
        rng = rng_for("vs-comps")
        comps = [rand_base_ring(rng, chart) for _ in range(2)]
        s = VerticalSection.from_components(chart, comps)
        assert s.components() == comps


class TestDeformationSection:
    """A deformation section is vertical of degree 1, one rule for every caller."""

    def test_degree_one_section_passes(self, chart):
        rng = rng_for("deform-ok")
        a = rand_section(rng, chart)
        assert deformation_section(a) is a
        plain = MultiVectorField(a.chart, 1, a.terms)
        assert deformation_section(plain) == a

    @pytest.mark.parametrize("degree", [0, 2])
    def test_other_degrees_are_rejected_with_one_message(self, chart, degree):
        a = rand_section(rng_for(f"deform-{degree}"), chart, degree=degree, nterms=1)
        message = f"a deformation section has degree 1, not {degree}"
        with pytest.raises(NotVerticalError, match=f"^{message}$"):
            deformation_section(a)
        with pytest.raises(NotVerticalError, match=f"^{message}$"):
            a.components()
        X = rand_multivector(rng_for("deform-x"), chart, 2)
        for call in (exp_ad, fibre_translate_pushforward):
            with pytest.raises(NotVerticalError, match=f"^{message}$"):
                call(X, a)

    def test_base_wedge_factor_is_not_vertical(self, chart):
        with pytest.raises(NotVerticalError, match="base direction"):
            deformation_section(MultiVectorField.basis_vector(chart, "x1"))


class TestProjection:
    def test_keeps_vertical_base_coefficients(self, chart):
        f = rand_base_ring(rng_for("proj"), chart)
        X = MultiVectorField(chart, 2, (((2, 3), f),))
        out = projection_P(X)
        assert isinstance(out, VerticalSection)
        assert out == X

    def test_discards_base_directions(self, chart):
        g = rand_ring(rng_for("proj2"), chart)
        X = MultiVectorField(chart, 2, (((0, 2), g),))
        assert projection_P(X).is_zero()

    def test_discards_positive_fibre_degree(self, chart):
        y1 = RingElement.coordinate(chart, "y1")
        X = MultiVectorField(chart, 2, (((2, 3), y1),))
        assert projection_P(X).is_zero()

    def test_linear_and_depends_only_on_vertical_zero_jet(self, chart):
        rng = rng_for("proj-lin")
        for _ in range(20):
            X = rand_multivector(rng, chart, 2)
            Y = rand_multivector(rng, chart, 2)
            assert projection_P(X + Y) == projection_P(X) + projection_P(Y)
            noise = MultiVectorField(
                chart, 2, (((0, 3), rand_ring(rng, chart)),)
            )
            assert projection_P(X + noise) == projection_P(X)


class TestPushforward:
    def test_basis_vector_formula(self, chart):
        # @x_i picks up sum_j (d alpha_j / d x_i) @y_j
        rng = rng_for("push-basis")
        alpha = rand_section(rng, chart)
        comps = alpha.components()
        for i, nm in enumerate(chart.base):
            pushed = fibre_translate_pushforward(
                MultiVectorField.basis_vector(chart, nm), alpha
            )
            expected = MultiVectorField.basis_vector(chart, nm)
            for j, c in enumerate(comps):
                dc = c.partial(nm)
                if not dc.is_zero():
                    expected = expected + MultiVectorField.basis_vector(
                        chart, chart.fibre[j]
                    ).scale(dc)
            assert pushed == expected

    def test_zero_translation_is_identity(self, chart):
        rng = rng_for("push-zero")
        zero = VerticalSection.from_components(
            chart, [RingElement.zero(chart)] * 2
        )
        for _ in range(10):
            X = rand_multivector(rng, chart, rng.randint(1, 3))
            assert fibre_translate_pushforward(X, zero) == X

    def test_round_trip(self, chart):
        rng = rng_for("push-roundtrip")
        for _ in range(50):
            X = rand_multivector(rng, chart, rng.randint(1, 3))
            alpha = rand_section(rng, chart)
            neg = VerticalSection.from_components(
                chart, [-c for c in alpha.components()]
            )
            there = fibre_translate_pushforward(X, alpha)
            assert fibre_translate_pushforward(there, neg) == X

    def test_commutes_with_wedge(self, chart):
        rng = rng_for("push-wedge")
        for _ in range(30):
            X = rand_multivector(rng, chart, rng.randint(1, 2))
            Y = rand_multivector(rng, chart, rng.randint(1, 2))
            alpha = rand_section(rng, chart)
            lhs = fibre_translate_pushforward(X.wedge(Y), alpha)
            rhs = fibre_translate_pushforward(X, alpha).wedge(
                fibre_translate_pushforward(Y, alpha)
            )
            assert lhs == rhs

    def test_rejects_non_vertical_translation(self, chart):
        X = MultiVectorField.basis_vector(chart, "x1")
        with pytest.raises(NotVerticalError):
            fibre_translate_pushforward(X, X)


# base with poly and periodic axes, periodic only, poly only, and no base
PROJECTED_CHARTS = (("x1 x2*", "y1 y2"), ("u1* u2*", "y1"), ("x1 x2", "y1 y2 y3"), ("", "y1 y2"))


def _sections(rng, chart):
    """The zero section, one with constant components and random ones."""
    zero = RingElement.zero(chart)
    comps = [RingElement.constant(chart, rand_fraction(rng)) for _ in chart.fibre]
    yield VerticalSection.from_components(chart, [zero] * chart.n_fibre)
    yield VerticalSection.from_components(chart, comps)
    if chart.n_base:
        # one constant component: its @y direction gets no image from any @x
        comps[0] = rand_base_ring(rng, chart, nterms=3)
        yield VerticalSection.from_components(chart, comps)
    for _ in range(3):
        yield rand_section(rng, chart, nterms=3)


class TestProjectedPushforward:
    @pytest.mark.parametrize("spec", PROJECTED_CHARTS)
    def test_equals_projection_of_the_pushforward(self, spec):
        chart = make_chart(*spec)
        rng = rng_for(f"projected-push-{spec}")
        for degree in range(min(3, chart.n_dirs) + 1):
            for alpha in _sections(rng, chart):
                X = rand_multivector(rng, chart, degree, nterms=4)
                got = projected_pushforward(X, alpha)
                want = projection_P(fibre_translate_pushforward(X, alpha))
                assert isinstance(got, VerticalSection)
                assert got == want
                assert got.render() == want.render()

    def test_needs_no_bracket(self, chart, monkeypatch):
        from coisokit import multivector

        def forbidden(*args, **kw):
            raise AssertionError("the projected pushforward took a bracket")

        for name in ("schouten_bracket", "ad_series"):
            monkeypatch.setattr(multivector, name, forbidden)
        rng = rng_for("projected-routing")
        X = rand_multivector(rng, chart, 2, nterms=4)
        assert projected_pushforward(X, rand_section(rng, chart)).degree == 2

    def test_jet_with_a_nonzero_section_raises(self, chart):
        rng = rng_for("projected-jet")
        X = MultiVectorField(chart, 2, (((2, 3), rand_ring(rng, chart).truncate(1)),))
        alpha = VerticalSection.from_components(chart, [RingElement.one(chart)] * 2)
        with pytest.raises(JetOrderError):
            projected_pushforward(X, alpha)


def every_direction_translation(X, alpha):
    """The translation images of every direction of the chart, used or not:
    (images, -alpha) as ``multivector._translation`` built them before it
    kept only the directions X uses."""
    chart = X.chart
    comps = deformation_section(alpha).components()
    images = {}
    for d in range(chart.n_dirs):
        name = chart.direction_name(d)
        if chart.is_fibre_dir(d):
            images[d] = MultiVectorField.basis_vector(chart, name)
            continue
        terms = [((d,), RingElement.one(chart))]
        for j, a in enumerate(comps):
            da = a.partial(name)
            if not da.is_zero():
                terms.append(((chart.n_base + j,), da))
        images[d] = MultiVectorField(chart, 1, terms)
    return images, [-a for a in comps]


def field_on(rng, chart, dirs, degree, nterms=3):
    """A random field of ``degree`` whose wedge factors lie in ``dirs``."""
    keys = list(itertools.combinations(sorted(dirs), degree))
    return MultiVectorField(chart, degree, (
        (rng.choice(keys), rand_ring(rng, chart)) for _ in range(nterms)))


def same_terms(got, want):
    assert got.degree == want.degree
    assert [(d, c.terms, c.jet_order) for d, c in got.terms] == \
        [(d, c.terms, c.jet_order) for d, c in want.terms]


class TestTranslationOfUsedDirections:
    """The pushforwards build images only for the directions X uses; on
    fields over a strict subset of a chart's directions they must agree with
    a translation that builds the image of every direction."""

    @pytest.mark.parametrize("spec", PROJECTED_CHARTS + (("x1 x2* x3", "y1 y2"),))
    def test_fields_on_a_strict_subset_of_directions(self, spec):
        chart = make_chart(*spec)
        rng = rng_for(f"used-directions-{spec}")
        n = chart.n_dirs
        base, fibre = set(range(chart.n_base)), set(range(chart.n_base, n))
        subsets = [base, fibre] + [set(rng.sample(range(n), rng.randint(1, n - 1)))
                                   for _ in range(4)]
        subsets = [dirs for dirs in subsets if len(dirs) < n]
        checked = 0
        for dirs in subsets:
            for degree in range(min(3, len(dirs)) + 1):
                for alpha in _sections(rng, chart):
                    X = field_on(rng, chart, dirs, degree)
                    used = {d for ds, _ in X.terms for d in ds}
                    assert used <= dirs and len(used) < n
                    images, neg = every_direction_translation(X, alpha)
                    want = MultiVectorField.from_factor_images(
                        chart, X, images, lambda c: c.shift_fibre(neg))
                    same_terms(fibre_translate_pushforward(X, alpha), want)
                    fibre_images = {d: img if chart.is_fibre_dir(d) else projection_P(img)
                                    for d, img in images.items()}
                    want = MultiVectorField.from_factor_images(
                        chart, X, fibre_images, lambda c: c.substitute_fibre(neg))
                    got = projected_pushforward(X, alpha)
                    assert isinstance(got, VerticalSection)
                    same_terms(got, want)
                    checked += bool(X.terms) and not alpha.is_zero()
        assert checked

    def test_images_are_built_for_the_used_directions_only(self, chart):
        rng = rng_for("used-directions-images")
        alpha = rand_section(rng, chart, nterms=3)
        X = MultiVectorField(chart, 2, (((0, 3), rand_ring(rng, chart)),))
        images, _ = multivector._translation(X, alpha)
        assert sorted(images) == [0, 3]
        full, _ = every_direction_translation(X, alpha)
        assert all(images[d] == full[d] for d in images)
        assert multivector._translation(MultiVectorField.zero(chart, 1), alpha)[0] == {}

    def test_a_jet_on_a_subset_keeps_its_order(self, chart):
        rng = rng_for("used-directions-jet")
        X = field_on(rng, chart, {1, 2}, 1).truncate(2)
        zero = zero_section(chart)
        images, neg = every_direction_translation(X, zero)
        want = MultiVectorField.from_factor_images(
            chart, X, images, lambda c: c.shift_fibre(neg))
        got = fibre_translate_pushforward(X, zero)
        same_terms(got, want)
        assert got.jet_order() == 2


class TestExpAd:
    def test_base_vector_terminates_in_two_terms(self, chart):
        rng = rng_for("expad-basis")
        alpha = rand_section(rng, chart)
        for nm in chart.base:
            e = exp_ad(MultiVectorField.basis_vector(chart, nm), alpha)
            assert e == fibre_translate_pushforward(
                MultiVectorField.basis_vector(chart, nm), alpha
            )

    def test_zero_translation(self, chart):
        rng = rng_for("expad-zero")
        zero = VerticalSection.from_components(
            chart, [RingElement.zero(chart)] * 2
        )
        X = rand_multivector(rng, chart, 2)
        assert exp_ad(X, zero) == X

    def test_agrees_with_pushforward_at_zero_section(self, chart):
        rng = rng_for("expad-oracle")
        for _ in range(100):
            pi = rand_multivector(rng, chart, 2, nterms=2, max_ydeg=3)
            alpha = rand_section(rng, chart)
            lhs = exp_ad(pi, alpha).at_zero_fibre()
            rhs = fibre_translate_pushforward(pi, alpha).at_zero_fibre()
            assert lhs == rhs

    def test_cap_exceeded_raises(self, chart, monkeypatch):
        y1 = RingElement.coordinate(chart, "y1")
        X = MultiVectorField(chart, 2, (((2, 3), y1 ** 3),))
        alpha = VerticalSection.from_components(
            chart,
            [RingElement.constant(chart, 1), RingElement.zero(chart)],
        )
        monkeypatch.setattr(multivector, "default_exp_cap", lambda X: 1)
        with pytest.raises(TruncationCapError):
            exp_ad(X, alpha)

    def test_a_cancelled_partial_sum_keeps_its_jet_order(self, chart, monkeypatch):
        # X + [X, a] + [[X, a], a]/2 with coefficients y1 + O(y^2),
        # -y1 + O(y^6) and 1 + O(y^8) on one wedge is 1 + O(y^2); summed
        # left to right it would read 1 + O(y^8)
        y1 = RingElement.coordinate(chart, "y1")
        one = RingElement.one(chart)
        X, second, third = (MultiVectorField(chart, 1, (((0,), c),))
                            for c in (y1.truncate(1), (-y1).truncate(5), one.truncate(7)))
        monkeypatch.setattr(multivector, "ad_series", lambda X, alpha: iter(
            [(second, Scalar.one()), (third, Scalar.one())]))
        total = exp_ad(X, zero_section(chart))
        assert total.terms == (((0,), one.truncate(1)),) and total.jet_order() == 1


class TestAdSeries:
    """``ad_series`` yields the nonzero brackets and ends by itself."""

    def test_yields_at_most_the_degree_bound_of_nonzero_brackets(self, chart):
        # each bracket lowers fibre degree + base wedge factors by one per term
        rng = rng_for("ad-series-bound")
        lengths = set()
        for _ in range(60):
            X = rand_multivector(rng, chart, rng.randint(1, 3), nterms=3, max_ydeg=3)
            alpha = rand_section(rng, chart)
            brackets = [term for term, _ in ad_series(X, alpha)]
            assert all(not term.is_zero() for term in brackets)
            assert len(brackets) <= X.max_y_degree() + X.degree
            # the bracket after the last one yielded is zero
            last = brackets[-1] if brackets else X
            assert schouten_bracket(last, alpha).is_zero()
            lengths.add(len(brackets))
        assert len(lengths) > 3  # the draws reach series of several lengths

    def test_exp_ad_raises_exactly_past_its_cap(self, chart, monkeypatch):
        rng = rng_for("ad-series-cap")
        for _ in range(10):
            X = rand_multivector(rng, chart, 2, nterms=2, max_ydeg=2)
            alpha = rand_section(rng, chart)
            n = len(list(ad_series(X, alpha)))
            full = exp_ad(X, alpha)
            for cap in range(n + 2):
                monkeypatch.setattr(multivector, "default_exp_cap", lambda X, cap=cap: cap)
                if cap < n:
                    with pytest.raises(TruncationCapError):
                        exp_ad(X, alpha)
                else:
                    assert exp_ad(X, alpha) == full
            monkeypatch.undo()


class TestSharpContract:
    def test_basis_pairing(self, chart):
        pi = MultiVectorField(chart, 2, (((0, 2), RingElement.one(chart)),))
        xi = DifferentialForm.basis_covector(chart, "x1")
        assert sharp_contract(pi, xi) == MultiVectorField.basis_vector(chart, "y1")
        # the library's anchor is the transpose pi(., xi)
        assert sharp_star(pi, xi) == -sharp_contract(pi, xi)

    def test_zero_covector(self, chart):
        rng = rng_for("sharp-zero")
        pi = rand_multivector(rng, chart, 2)
        assert sharp_contract(pi, DifferentialForm.zero(chart, 1)).is_zero()

    def test_antisymmetry_of_evaluation(self, chart):
        rng = rng_for("sharp-anti")
        for _ in range(50):
            pi = rand_multivector(rng, chart, 2)
            xi = DifferentialForm(
                chart,
                1,
                (
                    ((rng.randrange(chart.n_dirs),), rand_ring(rng, chart)),
                    ((rng.randrange(chart.n_dirs),), rand_ring(rng, chart)),
                ),
            )
            eta = DifferentialForm(
                chart,
                1,
                (((rng.randrange(chart.n_dirs),), rand_ring(rng, chart)),),
            )

            def pair(v, w):
                acc = RingElement.zero(chart)
                for (d,), c in v.terms:
                    for (e,), g in w.terms:
                        if d == e:
                            acc = acc + c * g
                return acc

            lhs = pair(sharp_contract(pi, xi), eta)
            rhs = pair(sharp_contract(pi, eta), xi)
            assert lhs == -rhs


def _graded_key(w):
    """Type, degree and every coefficient's terms and jet order."""
    return type(w), w.degree, tuple((d, c.terms, c.jet_order) for d, c in w.terms)


@st.composite
def graded_pairs(draw, kinds=(MultiVectorField, DifferentialForm)):
    """(chart, X, Y): seeded fields or forms of drawn degrees on one chart,
    each exact or truncated to a drawn jet order (-1 included), and Y either
    a fresh draw, X itself or -X plus a fresh draw (shared wedge indices)."""
    chart = draw(st.sampled_from((small_chart(), make_chart("x1* x2", "y1 y2 y3"))))
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def field(degree):
        keys = list(itertools.combinations(range(chart.n_dirs), degree))
        terms = [(rng.choice(keys), rand_ring(rng, chart, max_ydeg=2, real=rng.random() < 0.5))
                 for _ in range(rng.randint(0, 4))]
        w = kind(chart, degree, terms)
        order = draw(st.none() | st.integers(-1, 3))
        return w if order is None else w.truncate(order)

    p = draw(st.integers(0, 3))
    X = field(p)
    shape = draw(st.sampled_from(("fresh", "same", "cancel")))
    if shape == "same":
        return chart, X, X
    if shape == "fresh":
        return chart, X, field(draw(st.integers(0, 3)))
    return chart, X, kind(chart, p, [(d, -c) for d, c in X.terms] + list(field(p).terms))


class TestGradedWrapsAgainstConstructor:
    """Each result wrapped as built (the Schouten bracket, ``wedge``, ``+``,
    negation, ``scale`` and ``map_coefficients``) equals the validating
    constructor applied to the same (wedge, coefficient) pairs, as the
    operation is defined term by term: same type, degree and terms."""

    @settings(max_examples=120, deadline=None)
    @given(graded_pairs())
    def test_sum_negation_scale_and_maps(self, drawn):
        chart, X, Y = drawn
        kind = X._base_kind()
        if X.degree == Y.degree or X.is_zero() or Y.is_zero():
            got = X + Y
            expected = (Y if X.is_zero() else X if Y.is_zero()
                        else kind(chart, X.degree, X.terms + Y.terms))
            assert _graded_key(got) == _graded_key(expected)
        assert _graded_key(-X) == _graded_key(kind(chart, X.degree, [(d, -c) for d, c in X.terms]))
        f = rand_ring(random.Random(len(X.terms)), chart, max_ydeg=1)
        for s in (f, Scalar.of(Fraction(-7, 3)), 0, RingElement.zero(chart)):
            expected = kind(chart, X.degree, [
                (d, c * s if isinstance(s, RingElement) else c.scale(s)) for d, c in X.terms])
            assert _graded_key(X.scale(s)) == _graded_key(expected)
        for fn in (lambda c: c.truncate(1), RingElement.without_truncation, lambda c: c * c):
            expected = kind(chart, X.degree, [(d, fn(c)) for d, c in X.terms])
            assert _graded_key(X.map_coefficients(fn)) == _graded_key(expected)

    @settings(max_examples=120, deadline=None)
    @given(graded_pairs())
    def test_wedge(self, drawn):
        chart, X, Y = drawn
        pairs = []
        for d1, c1 in X.terms:
            for d2, c2 in Y.terms:
                if not set(d1) & set(d2):
                    sign = inversion_sign(d1 + d2)
                    pairs.append((tuple(sorted(d1 + d2)), c1 * c2 if sign > 0 else -(c1 * c2)))
        expected = X._base_kind()(chart, X.degree + Y.degree, pairs)
        assert _graded_key(X.wedge(Y)) == _graded_key(expected)

    @settings(max_examples=120, deadline=None)
    @given(graded_pairs(kinds=(MultiVectorField,)))
    def test_schouten_bracket(self, drawn):
        chart, X, Y = drawn
        p, q = X.degree, Y.degree
        yx_sign = -1 if (p - 1) * (q - 1) % 2 == 0 else 1
        products = [*multivector._compose(X, Y), *multivector._compose(Y, X, yx_sign)]
        pairs = [(dirs, f * g if sign > 0 else -(f * g)) for dirs, sign, f, g in products]
        expected = MultiVectorField(chart, p + q - 1, pairs)
        assert _graded_key(schouten_bracket(X, Y)) == _graded_key(expected)

    @settings(max_examples=60, deadline=None)
    @given(graded_pairs())
    def test_derivative_table(self, drawn):
        chart, X, _ = drawn
        for i in range(chart.n_dirs):
            name = chart.direction_name(i)
            expected = [(d, c.partial(name)) for d, c in X.terms if not c.partial(name).is_zero()]
            for _ in range(2):  # the second read is the kept table
                got = X.partials_along(i)
                assert [(d, c.terms, c.jet_order) for d, c in got] == \
                    [(d, c.terms, c.jet_order) for d, c in expected]

    def test_vertical_sections_add_to_a_field(self, chart):
        rng = rng_for("wrap-vertical-sum")
        for _ in range(10):
            a, b = rand_section(rng, chart), rand_section(rng, chart)
            expected = MultiVectorField(chart, 1, a.terms + b.terms)
            assert _graded_key(a + b) == _graded_key(expected)


class TestDerivativeTable:
    def test_a_second_bracket_takes_no_derivative_of_y(self, chart, monkeypatch):
        rng = rng_for("derivative-table")
        X = rand_multivector(rng, chart, 2, nterms=3, max_ydeg=2)
        Y = rand_multivector(rng, chart, 2, nterms=3, max_ydeg=2)
        # same wedge indices as X, other coefficients
        X2 = MultiVectorField(chart, 2, [(d, c * c + c) for d, c in X.terms])
        original = RingElement.partial
        seen = []

        def counting(self, name):
            seen.append(self)
            return original(self, name)

        monkeypatch.setattr(RingElement, "partial", counting)
        first = schouten_bracket(X, Y)
        of_y = lambda: [c for c in seen if any(c is g for _, g in Y.terms)]
        assert of_y() and not first.is_zero()
        del seen[:]
        schouten_bracket(X2, Y)
        assert seen and of_y() == []
        assert schouten_bracket(X, Y) == first

    def test_a_series_keeps_no_table_on_its_inputs(self, chart):
        # the series' tables go with the series, not with the caller's fields
        rng = rng_for("derivative-table-series")
        pi = rand_multivector(rng, chart, 2, nterms=3, max_ydeg=2)
        alpha = rand_section(rng, chart)
        assert exp_ad(pi, alpha) != pi
        assert pi._partials is None and alpha._partials is None
        schouten_bracket(pi, alpha)
        assert pi._partials and alpha._partials

    def test_oracles_do_not_read_the_table(self, monkeypatch):
        from coisokit import build_T4_example, coisotropy_check_numeric
        from coisokit._graded import GradedTerms

        t4 = build_T4_example()
        chart = small_chart()
        rng = rng_for("oracle-routing")
        pi = rand_multivector(rng, chart, 2, max_ydeg=2)
        a = rand_section(rng, chart)

        def refuse(self, i):
            raise AssertionError("an oracle read the derivative table")

        monkeypatch.setattr(GradedTerms, "partials_along", refuse)
        with pytest.raises(AssertionError):
            schouten_bracket(pi, a)
        projected_pushforward(pi, a)
        projected_pushforward(t4.algebra.pi, t4.section)
        assert coisotropy_check_numeric(pi, a, per_axis=4).max_defect >= 0
        assert not coisotropy_check_numeric(t4.algebra, t4.section, per_axis=4).coisotropic


def piecewise_factor_images(cls, chart, w, images, coeff=lambda c: c):
    """The factorwise map as one wedged piece per term, added to a running sum."""
    out = cls(chart, w.degree, ())
    for dirs, c in w.terms:
        factors = [images[d] for d in dirs]
        if any(f.is_zero() for f in factors):
            continue
        piece = cls(chart, 0, (((), coeff(c)),))
        for f in factors:
            piece = piece.wedge(f)
        out = out + piece
    return out


def piecewise_substitute_fibre(f, exprs):
    """The substitution as one product per term, one power at a time, added
    to a running sum and truncated to the minimum jet order."""
    chart = f.chart
    orders = [g.jet_order for g in (f, *exprs) if g.jet_order is not None]
    if f.jet_order is not None and any(not any(ye) for e in exprs for _, _, ye, _ in e.terms):
        raise JetOrderError("a y-degree-0 term under a jet")
    out = RingElement.zero(chart)
    for xe, k, ye, s in f.terms:
        piece = RingElement(chart, ((xe, k, (0,) * chart.n_fibre, s),))
        for j, n in enumerate(ye):
            if n:
                piece = piece * exprs[j] ** n
        out = out + piece
    return out.truncate(min(orders)) if orders else out


def piecewise(fn, *args):
    """fn(*args) with both factorwise maps replaced by the loops above; fn
    must look the maps up when called (pass a function, not a bound map)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedTerms, "from_factor_images", classmethod(piecewise_factor_images))
        mp.setattr(RingElement, "substitute_fibre", piecewise_substitute_fibre)
        return fn(*args)


def _element_key(c):
    return c.terms, c.jet_order


def _jet(x, order):
    return x if order is None else x.truncate(order)


@st.composite
def substitutions(draw):
    """(f, exprs): f exact, a jet (order -1 included) or base-only; exprs
    arbitrary for an exact f, fibre-only (no y-degree-0 term) for a jet,
    each exact or a jet."""
    chart = draw(st.sampled_from((small_chart(), make_chart("x1* x2", "y1 y2 y3"))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ydeg = draw(st.sampled_from((0, 2, 4)))
    f = _jet(rand_ring(rng, chart, max_ydeg=ydeg, nterms=rng.randint(0, 5),
                       real=rng.random() < 0.5), draw(st.none() | st.integers(-1, 3)))
    exprs = []
    for _ in chart.fibre:
        e = rand_ring(rng, chart, max_ydeg=2, nterms=rng.randint(0, 3))
        if f.jet_order is not None:
            e = e.fibre_part()
        exprs.append(_jet(e, draw(st.none() | st.integers(0, 3))))
    return f, exprs


@st.composite
def translations(draw):
    """(X, alpha): a field, exact or with base-only coefficients, and a section."""
    chart = draw(st.sampled_from((small_chart(), make_chart("x1* x2", "y1 y2 y3"))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ydeg = draw(st.sampled_from((0, 2)))
    X = rand_multivector(rng, chart, draw(st.integers(0, 3)), nterms=rng.randint(0, 4),
                         max_ydeg=ydeg)
    return X, rand_section(rng, chart, nterms=rng.randint(0, 3))


def _constant_bivector(rng, chart):
    """A nondegenerate constant bivector on a 4-direction chart: c1 @0^@2 +
    c2 @1^@3 plus constant (0, 1) and (2, 3) terms (Pfaffian -c1 c2)."""
    nonzero = lambda: rand_fraction(rng, 1, 3) * rng.choice((1, -1))
    return MultiVectorField(chart, 2, [
        ((0, 2), RingElement.constant(chart, nonzero())),
        ((1, 3), RingElement.constant(chart, nonzero())),
        ((0, 1), RingElement.constant(chart, rand_fraction(rng))),
        ((2, 3), RingElement.constant(chart, rand_fraction(rng))),
    ])


class TestFactorwiseMapsAgainstPiecewise:
    """``from_factor_images`` and ``substitute_fibre`` sum through one
    ``dot``; each equals the piece-by-piece loops above in every
    coefficient's terms and jet order.  The one exception is a jet whose
    running sum cancels to zero before its last piece: the loop drops that
    partial sum's order with it, against the jet contract, and the ``dot``
    keeps the minimum (``test_a_cancelled_partial_sum_keeps_its_jet_order``)."""

    @settings(max_examples=150, deadline=None)
    @given(substitutions())
    def test_substitute_fibre(self, drawn):
        f, exprs = drawn
        assert _element_key(f.substitute_fibre(exprs)) == \
            _element_key(piecewise_substitute_fibre(f, exprs))

    def test_substitute_fibre_by_every_power_up_to_four(self):
        chart = make_chart("x1* x2", "y1 y2 y3")
        rng = rng_for("substitute-powers")
        y1, y2, y3 = (RingElement.coordinate(chart, n) for n in chart.fibre)
        f = RingElement.zero(chart)
        for a, b, c in itertools.product(range(5), range(3), range(2)):
            f = f + rand_base_ring(rng, chart, nterms=1) * y1 ** a * y2 ** b * y3 ** c
        for order in (None, 0, 3, 6):
            exprs = [_jet(rand_ring(rng, chart, nterms=2), order),
                     y1 + y3 + rand_base_ring(rng, chart), y2.scale(2)]
            assert _element_key(f.substitute_fibre(exprs)) == \
                _element_key(piecewise_substitute_fibre(f, exprs))

    def test_a_zero_coefficient_bounds_no_jet_order(self, chart):
        # dx1 and dx2 both map to dx1; coeff(y1) is zero at order 1, and
        # the image of the exact y2 dx2 stays exact
        y1, y2 = (RingElement.coordinate(chart, n) for n in chart.fibre)
        w = DifferentialForm(chart, 1, (((0,), y1), ((1,), y2)))
        dx1 = DifferentialForm.basis_covector(chart, "x1")
        values = {y1: RingElement.zero(chart).truncate(1), y2: y2}

        def image():
            return DifferentialForm.from_factor_images(chart, w, [dx1, dx1], values.__getitem__)

        got = image()
        assert _graded_key(got) == _graded_key(piecewise(image))
        assert got.terms == (((0,), y2),) and got.jet_order() is None

    def test_a_cancelled_partial_sum_keeps_its_jet_order(self, chart):
        # y1 + O(y^2) - y1 + O(y^6) + 1 + O(y^8) is 1 + O(y^2): known through
        # order 1 only, though the first two pieces cancel
        y1 = RingElement.coordinate(chart, "y1")
        one = RingElement.one(chart)
        w = DifferentialForm(chart, 1, (((0,), y1.truncate(1)), ((1,), (-y1).truncate(5)),
                                        ((2,), one.truncate(7))))
        dx1 = DifferentialForm.basis_covector(chart, "x1")

        def image():
            return DifferentialForm.from_factor_images(chart, w, [dx1] * 4)

        assert _graded_key(image()) == _graded_key(DifferentialForm(chart, 1, (((0,), one.truncate(1)),)))
        assert piecewise(image).jet_order() == 7

    @settings(max_examples=60, deadline=None)
    @given(translations())
    def test_pushforwards_of_exact_fields(self, drawn):
        X, alpha = drawn
        for fn in (fibre_translate_pushforward, projected_pushforward):
            assert _graded_key(fn(X, alpha)) == _graded_key(piecewise(fn, X, alpha))

    @settings(max_examples=60, deadline=None)
    @given(graded_pairs(kinds=(MultiVectorField,)))
    def test_pushforwards_of_jets_by_the_zero_section(self, drawn):
        # the zero section substitutes y_j -> y_j: fibre-only expressions
        chart, X, _ = drawn
        zero = VerticalSection.from_components(chart, [RingElement.zero(chart)] * chart.n_fibre)
        for fn in (fibre_translate_pushforward, projected_pushforward):
            assert _graded_key(fn(X, zero)) == _graded_key(piecewise(fn, X, zero))

    @settings(max_examples=60, deadline=None)
    @given(graded_pairs(kinds=(DifferentialForm,)), st.integers(0, 2**32))
    def test_linear_fibre_change_of_jet_forms(self, drawn, seed):
        # the pullback along (x, y) -> (x, M y): constant covector images and
        # fibre-only substitutions, over exact forms and jets
        chart, w, _ = drawn
        rng = random.Random(seed)
        m, n = chart.n_base, chart.n_fibre
        M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        ys = [RingElement.coordinate(chart, name) for name in chart.fibre]
        exprs = [sum((ys[k].scale(M[j][k]) for k in range(n)), RingElement.zero(chart))
                 for j in range(n)]
        images = [DifferentialForm.basis_covector(chart, chart.direction_name(d))
                  for d in range(m)]
        images += [DifferentialForm(chart, 1, (((m + k,), RingElement.constant(chart, M[j][k]))
                                               for k in range(n) if M[j][k])) for j in range(n)]

        def pullback():
            return DifferentialForm.from_factor_images(
                chart, w, images, lambda c: c.substitute_fibre(exprs))

        assert _graded_key(pullback()) == _graded_key(piecewise(pullback))

    @settings(max_examples=60, deadline=None)
    @given(graded_pairs(), st.integers(0, 2**32), st.none() | st.integers(0, 3))
    def test_musical_maps_on_a_jet_bivector(self, drawn, seed, order):
        chart, w, _ = drawn
        if chart.n_dirs != 4:
            return  # a nondegenerate bivector needs an even number of directions
        pi = _jet(_constant_bivector(random.Random(seed), chart), order)
        fn = sharp_star if isinstance(w, DifferentialForm) else sharp_star_inverse
        assert _graded_key(fn(pi, w)) == _graded_key(piecewise(fn, pi, w))


def test_the_factorwise_maps_leave_no_cyclic_garbage():
    # a cycle left per call (a self-calling power closure, say) waits for
    # the cyclic collector and adds collections to every caller's loop
    rng = rng_for("factorwise-no-cycles")
    trials = []
    for nb, nf in itertools.product((1, 2, 3), repeat=2):
        chart = make_chart(" ".join(f"b{i}{'*' if i == 0 else ''}" for i in range(nb)),
                           " ".join(f"f{j}" for j in range(nf)))
        X = rand_multivector(rng, chart, 2, nterms=4, max_ydeg=3)
        trials.append((X, rand_section(rng, chart, nterms=3)))
    gc.collect()
    gc.disable()
    try:
        for X, alpha in trials:
            fibre_translate_pushforward(X, alpha)
            projected_pushforward(X, alpha)
            chart = X.chart
            exprs = [RingElement.coordinate(chart, y) - a
                     for y, a in zip(chart.fibre, alpha.components())]
            for _, c in X.terms:
                c.substitute_fibre(exprs)
        assert gc.collect() == 0
    finally:
        gc.enable()
