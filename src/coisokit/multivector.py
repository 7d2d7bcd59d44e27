"""Graded multivector fields and the Schouten-Nijenhuis calculus.

A multivector of degree k is a finite map from ascending wedge tuples of
coordinate directions to ring-element coefficients.  The Schouten bracket is
computed through the odd-cotangent composition

    X o Y = sum_i (d X / d theta_i) ^ (d Y / d u_i),
    [X, Y] = X o Y - (-1)^{(p-1)(q-1)} Y o X,

where theta_i marks the i-th coordinate direction and the theta-derivative is
the right superderivative.  With this convention [X, f] = X(f) for vector
fields, the bracket restricts to the Lie bracket in degree 1, and the torus
obstruction example reproduces +8*pi^2*cos*cos exactly; that example is the
sign calibration for the whole package.
"""

from __future__ import annotations

import itertools

from ._graded import GradedTerms, dot_by_wedge, merge_dirs
from .coeff_ring import ChartSpec, RingElement, Scalar
from .errors import NotVerticalError, TruncationCapError


class MultiVectorField(GradedTerms):
    """Fibrewise entire multivector field on a chart, in canonical form."""

    def _base_kind(self):
        return MultiVectorField

    def _symbol_prefix(self) -> str:
        return "@"

    @classmethod
    def zero(cls, chart: ChartSpec, degree: int = 0) -> "MultiVectorField":
        return cls(chart, degree, ())

    @classmethod
    def function(cls, chart: ChartSpec, f: RingElement) -> "MultiVectorField":
        return cls(chart, 0, (((), f),))

    @classmethod
    def basis_vector(cls, chart: ChartSpec, name: str) -> "MultiVectorField":
        d = chart.direction_index(name)
        return cls(chart, 1, (((d,), RingElement.one(chart)),))


class VerticalSection(MultiVectorField):
    """Element of Gamma(wedge E): fibre wedge factors, base-only coefficients."""

    def __init__(self, chart, degree, terms):
        super().__init__(chart, degree, terms)
        for dirs, coeff in self.terms:
            if any(not chart.is_fibre_dir(d) for d in dirs):
                raise NotVerticalError(f"wedge {dirs} contains a base direction")
            if not coeff.is_base_only():
                raise NotVerticalError(
                    f"coefficient {coeff.render()!r} depends on a fibre coordinate"
                )

    def _base_kind(self):
        return MultiVectorField

    @classmethod
    def from_components(cls, chart: ChartSpec, components) -> "VerticalSection":
        """Degree-1 section sum_j components[j] e_{y_j}."""
        if len(components) != chart.n_fibre:
            raise NotVerticalError(
                f"expected {chart.n_fibre} components, got {len(components)}"
            )
        m = chart.n_base
        return cls(
            chart, 1, (((m + j,), c) for j, c in enumerate(components))
        )

    def components(self):
        """Component list of a degree-1 section (``deformation_section``)."""
        deformation_section(self)
        out = [RingElement.zero(self.chart)] * self.chart.n_fibre
        m = self.chart.n_base
        for (d,), c in self.terms:
            out[d - m] = c
        return out


def as_vertical(x: MultiVectorField) -> VerticalSection:
    if isinstance(x, VerticalSection):
        return x
    return VerticalSection(x.chart, x.degree, x.terms)


def deformation_section(a: MultiVectorField) -> VerticalSection:
    """``a`` as a deformation section: vertical, of degree 1.

    graph(-a) is a submanifold only for a degree-1 section; every function
    that deforms by a section checks it here.
    """
    a = as_vertical(a)
    if a.degree != 1:
        raise NotVerticalError(f"a deformation section has degree 1, not {a.degree}")
    return a


def _compose(X: MultiVectorField, Y: MultiVectorField, sign: int = 1):
    """Yield the signed products (dirs, sign, f, g) of sign * (X o Y), with
    X o Y = sum_i (d X / d theta_i) ^ (d Y / d u_i), right derivative."""
    p = X.degree
    for I, f in X.terms:
        for k, i in enumerate(I):
            dY = Y.partials_along(i)
            if not dY:
                continue
            # the right derivative moves theta_i past the p - 1 - k factors after it
            s = -sign if (p - 1 - k) % 2 else sign
            rest = I[:k] + I[k + 1 :]
            for J, dg in dY:
                m = merge_dirs(rest, J)
                if m is not None:
                    yield m[1], s * m[0], f, dg


def schouten_bracket(X: MultiVectorField, Y: MultiVectorField) -> MultiVectorField:
    """Schouten-Nijenhuis bracket [X, Y] = X o Y - (-1)^{(p-1)(q-1)} Y o X.

    Degree p+q-1, graded Lie on the shift by 1.  Characterised by: the Lie
    bracket on vector fields, [X, f] = X(f) for vector fields, graded
    antisymmetry [X,Y] = -(-1)^{(p-1)(q-1)}[Y,X], and the Leibniz rule
    [X, Y^Z] = [X,Y]^Z + (-1)^{(p-1) q} Y^[X,Z].  Each coefficient is one
    ``dot`` over the products of both compositions, which are consumed as
    they are made.
    """
    X._check(Y)
    p, q = X.degree, Y.degree
    yx_sign = -1 if (p - 1) * (q - 1) % 2 == 0 else 1
    products = itertools.chain(_compose(X, Y), _compose(Y, X, yx_sign))
    return MultiVectorField._wrap(X.chart, p + q - 1, dot_by_wedge(products))


def is_poisson(pi: MultiVectorField) -> bool:
    """[pi, pi] = 0: exactly, or through fibre order N - 1 for a jet of order N."""
    jac = schouten_bracket(pi, pi)
    order = pi.jet_order()
    return (jac if order is None else jac.truncate(order - 1)).is_zero()


def projection_P(X: MultiVectorField) -> VerticalSection:
    """Restriction to the zero section followed by the projection onto wedge E.

    Terms with any base wedge factor are discarded; the surviving
    coefficients are evaluated at y = 0.
    """
    chart = X.chart
    out = []
    for dirs, coeff in X.terms:
        if any(not chart.is_fibre_dir(d) for d in dirs):
            continue
        c0 = coeff.at_zero_fibre()
        if not c0.is_zero():
            out.append((dirs, c0))
    return VerticalSection(chart, X.degree, out)


def _translation(X: MultiVectorField, alpha: MultiVectorField):
    """(images, -alpha) of the fibre translation (x, y) -> (x, y + alpha(x)).

    @x_i maps to @x_i + sum_j (d alpha_j / d x_i) @y_j, the fibre directions
    are fixed, and the coefficients are taken at y - alpha.  ``images`` holds
    only the directions that X's terms use, so alpha is differentiated only
    along the base directions X has a wedge factor in.
    """
    chart = X.chart
    comps = deformation_section(alpha).components()
    m, one = chart.n_base, RingElement.one(chart)
    images: dict[int, MultiVectorField] = {}
    for d in {d for dirs, _ in X.terms for d in dirs}:
        name = chart.direction_name(d)
        terms = [((d,), one)]
        if not chart.is_fibre_dir(d):
            terms += [((m + j,), a.partial(name)) for j, a in enumerate(comps)]
        images[d] = MultiVectorField._wrap(chart, 1, terms)  # zero partials are dropped
    return images, [-a for a in comps]


def fibre_translate_pushforward(
    X: MultiVectorField, alpha: MultiVectorField
) -> MultiVectorField:
    """Exact pushforward of X under the fibre translation (x, y) -> (x, y + alpha(x)).

    Coefficients are shifted by -alpha, while @x_i picks up
    sum_j (d alpha_j / d x_i) @y_j and the fibre directions are fixed.  Only
    the directions X uses get an image (``_translation``).
    """
    images, neg = _translation(X, alpha)
    return MultiVectorField.from_factor_images(
        X.chart, X, images, lambda c: c.shift_fibre(neg)
    )


def projected_pushforward(X: MultiVectorField, alpha: MultiVectorField) -> VerticalSection:
    """``projection_P(fibre_translate_pushforward(X, alpha))``, projected as built.

    P keeps fibre wedge factors at y = 0, so it acts factor by factor: each
    coefficient is evaluated once at y = -alpha(x), and the image of each
    base direction in X's terms is replaced by its fibre part (the fibre
    directions are their own images).  ``_translation`` builds the images of
    the directions X uses and no others.  A jet X with alpha != 0 raises
    JetOrderError (``RingElement.substitute_fibre``).
    """
    images, neg = _translation(X, alpha)
    chart = X.chart
    fibre = {d: img if chart.is_fibre_dir(d) else projection_P(img) for d, img in images.items()}
    return as_vertical(MultiVectorField.from_factor_images(
        chart, X, fibre, lambda c: c.substitute_fibre(neg)
    ))


def default_exp_cap(X: MultiVectorField) -> int:
    return X.max_y_degree() + X.degree + 2


def ad_series(X: MultiVectorField, alpha: VerticalSection):
    """Yield ([...[X, alpha], ..., alpha], 1/k!) with k brackets, k = 1, 2, ...,
    up to the last nonzero bracket.

    The series ends: alpha is vertical with base-only coefficients, so in
    every term a bracket with alpha lowers the fibre degree of the
    coefficient plus the number of base wedge factors by one ([., alpha]
    either differentiates a fibre coordinate, or trades a base wedge factor
    for a fibre one and differentiates alpha along the base).  So at most
    ``X.max_y_degree() + X.degree`` brackets are nonzero.
    ``default_exp_cap(X)`` is a guard that valid input never reaches: a
    nonzero bracket past it raises TruncationCapError.

    The brackets are taken with copies of X and alpha, so the derivative
    tables they fill (alpha's serves every bracket) go with the series
    rather than stay on the caller's fields for as long as those live.
    """
    cap = default_exp_cap(X)
    term, fact = MultiVectorField._wrap(X.chart, X.degree, X.terms), 1
    alpha = MultiVectorField._wrap(alpha.chart, alpha.degree, alpha.terms)
    for k in itertools.count(1):
        term = schouten_bracket(term, alpha)
        if term.is_zero():
            return
        if k > cap:
            raise TruncationCapError(
                f"adjoint series did not terminate within {cap} brackets"
            )
        fact *= k
        yield term, Scalar.rational(1, fact)


def exp_ad(X: MultiVectorField, alpha: MultiVectorField) -> MultiVectorField:
    """The series sum_k (1/k!) [...[X, alpha], ..., alpha] of ``ad_series``.

    Each wedge index is summed by one ``dot`` over the products of every
    term's coefficient with the constant 1/k!, so a jet coefficient whose
    partial sum cancels still bounds the order of the total.
    """
    chart = X.chart
    one = RingElement.one(chart)
    products = [(dirs, 1, c, one) for dirs, c in X.terms]
    for term, coeff in ad_series(X, deformation_section(alpha)):
        factor = RingElement.constant(chart, coeff)
        products.extend((dirs, 1, c, factor) for dirs, c in term.terms)
    return MultiVectorField._wrap(chart, X.degree, dot_by_wedge(products))
