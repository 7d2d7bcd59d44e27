"""Differential forms with exact coefficients: d, gradings, pullbacks, musicals.

Forms share the wedge-term container with multivector fields; the basis
symbols are the coordinate differentials ``dx_i``/``dy_j``.  The musical maps
are implemented for bivectors whose coefficient matrix is constant, which is
what every torus-type model here produces; in that case all inversions are
exact over the scalar ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._graded import GradedTerms, merge_dirs
from ._linalg import scalar_matrix_inverse
from .coeff_ring import ChartSpec, RingElement
from .errors import (
    DegenerateBivectorError,
    NonInvertibleScalarError,
    NotVerticalError,
    UnknownCoordinateError,
)
from .multivector import MultiVectorField, VerticalSection, as_vertical


class DifferentialForm(GradedTerms):
    """Exterior form with ring-element coefficients, in canonical form."""

    def _base_kind(self):
        return DifferentialForm

    def _symbol_prefix(self) -> str:
        return "d"

    @classmethod
    def zero(cls, chart: ChartSpec, degree: int = 0) -> "DifferentialForm":
        return cls(chart, degree, ())

    @classmethod
    def function(cls, chart: ChartSpec, f: RingElement) -> "DifferentialForm":
        return cls(chart, 0, (((), f),))

    @classmethod
    def basis_covector(cls, chart: ChartSpec, name: str) -> "DifferentialForm":
        d = chart.direction_index(name)
        return cls(chart, 1, (((d,), RingElement.one(chart)),))


@dataclass(frozen=True)
class SubbundleSpec:
    """A subbundle F of TC spanned by base coordinate directions."""

    directions: tuple[str, ...]

    def __post_init__(self):
        if not self.directions:
            raise ValueError("a subbundle needs at least one direction")

    def indices(self, chart: ChartSpec) -> tuple[int, ...]:
        out = []
        for name in self.directions:
            d = chart.direction_index(name)
            if chart.is_fibre_dir(d):
                raise UnknownCoordinateError(
                    f"{name!r} is a fibre coordinate, not a base direction"
                )
            out.append(d)
        return tuple(out)


def _d_along(w: DifferentialForm, directions) -> DifferentialForm:
    """The part of dw that differentiates along the given directions."""
    chart = w.chart
    out = []
    for dirs, coeff in w.terms:
        for d in directions:
            dc = coeff.partial(chart.direction_name(d))
            if dc.is_zero():
                continue
            m = merge_dirs((d,), dirs)
            if m is None:
                continue
            sign, merged = m
            out.append((merged, dc if sign > 0 else -dc))
    return DifferentialForm(chart, w.degree + 1, out)


def de_rham_d(w: DifferentialForm) -> DifferentialForm:
    """Exterior derivative; d o d = 0 exactly."""
    return _d_along(w, range(w.chart.n_dirs))


def fibrewise_degree_classify(w: DifferentialForm) -> frozenset:
    """Set of fibrewise degrees: y-degree of the coefficient plus dy count."""
    chart = w.chart
    out = set()
    for dirs, coeff in w.terms:
        dy = sum(1 for d in dirs if chart.is_fibre_dir(d))
        for _, _, ye, _ in coeff.terms:
            out.add(sum(ye) + dy)
    return frozenset(out)


def is_in_omega_le(w: DifferentialForm, k: int) -> bool:
    degrees = fibrewise_degree_classify(w)
    return max(degrees, default=0) <= k


def pullback_zero_section(w: DifferentialForm) -> DifferentialForm:
    """Pull back along the zero section: set y = 0 and dy = 0."""
    chart = w.chart
    base = chart.base_chart()
    out = []
    for dirs, coeff in w.terms:
        if any(chart.is_fibre_dir(d) for d in dirs):
            continue
        c0 = coeff.at_zero_fibre()
        if not c0.is_zero():
            out.append((dirs, c0.restrict_to_base()))
    return DifferentialForm(base, w.degree, out)


def interior_product(direction: str, w: DifferentialForm) -> DifferentialForm:
    """Contraction i_{@direction} w for a coordinate direction."""
    d = w.chart.direction_index(direction)
    out = []
    for dirs, coeff in w.terms:
        if d in dirs:
            pos = dirs.index(d)
            rest = dirs[:pos] + dirs[pos + 1 :]
            out.append((rest, coeff if pos % 2 == 0 else -coeff))
    return DifferentialForm(w.chart, max(w.degree - 1, 0), out)


def leafwise_d(w: DifferentialForm, F: SubbundleSpec) -> DifferentialForm:
    """Exterior derivative along the leaves of F only.

    Requires adapted coordinates: w may only contain dF factors and its
    coefficients must not depend on fibre coordinates.
    """
    fdirs = F.indices(w.chart)
    for dirs, coeff in w.terms:
        if not set(dirs) <= set(fdirs):
            raise NotVerticalError(
                f"form has a factor outside the subbundle: {dirs}"
            )
        if not coeff.is_base_only():
            raise NotVerticalError("leafwise form has fibre-dependent coefficients")
    return _d_along(w, fdirs)


# -- musical maps over a constant bivector ---------------------------------------


def _sharp_matrix(pi: MultiVectorField):
    """Matrix S with sharp(du_i) = sum_j S[i][j] @u_j, for constant pi.

    sharp(xi)_j = sum_i xi_i Pi_{ij}, so S is the scalar coefficient matrix
    of pi itself.
    """
    mat = pi.coefficient_matrix()
    try:
        return [[c.constant_scalar() for c in row] for row in mat]
    except ValueError:  # a coefficient that is not constant
        raise NonInvertibleScalarError(
            "musical maps need a constant-coefficient bivector; "
            "use jet mode via the pencil inversion otherwise"
        ) from None


def _image(cls, chart: ChartSpec, dirs, coeffs):
    """The degree-1 field or form sum_k coeffs[k] * (direction dirs[k])."""
    return cls(
        chart, 1, (((d,), RingElement.constant(chart, c)) for d, c in zip(dirs, coeffs))
    )


def sharp_star(pi: MultiVectorField, w: DifferentialForm) -> MultiVectorField:
    """The dualized musical map wedge T*E -> wedge TE, factor by factor.

    On covectors this is the transpose xi -> pi(., xi) of the anchor, the
    same dualization that defines the leafwise variant; with this choice
    P(sharp_star(w)) equals the leafwise image of the restriction of w.
    """
    chart = pi.chart
    S = _sharp_matrix(pi)
    n = chart.n_dirs
    images = [
        _image(MultiVectorField, chart, range(n), [S[j][i] for j in range(n)])
        for i in range(n)
    ]
    return MultiVectorField.from_factor_images(chart, w, images)


def _full_inverse_images(pi: MultiVectorField):
    """Covector images xi^(i) with sharp_star(xi^(i)) = @u_i.

    sharp_star sends xi to S xi in column convention, so xi^(i) is column i
    of S^{-1}.
    """
    chart = pi.chart
    S = _sharp_matrix(pi)
    Sinv = scalar_matrix_inverse(S)
    n = chart.n_dirs
    return [
        _image(DifferentialForm, chart, range(n), [Sinv[j][i] for j in range(n)])
        for i in range(n)
    ]


def _tilde_matrix(pi: MultiVectorField):
    """Leafwise sharp data: (F direction indices, matrix B with
    sharp(dy_j*) = sum_f B[f][j] @x_f over the F directions)."""
    chart = pi.chart
    S = _sharp_matrix(pi)
    m, n = chart.n_base, chart.n_fibre
    rows = {}
    for j in range(n):
        row = S[m + j]
        for k in range(m, m + n):
            if not row[k].is_zero():
                raise DegenerateBivectorError(
                    "zero section is not coisotropic: sharp of the conormal "
                    "has a vertical component"
                )
        for f in range(m):
            if not row[f].is_zero():
                rows.setdefault(f, None)
    fdirs = tuple(sorted(rows))
    if len(fdirs) != n:
        raise DegenerateBivectorError(
            f"leafwise image spans {len(fdirs)} directions, need {n}"
        )
    B = [[S[m + j][f] for j in range(n)] for f in fdirs]
    return fdirs, B


def leaf_subbundle(pi: MultiVectorField) -> SubbundleSpec:
    """The subbundle F = sharp(conormal) inferred from a constant bivector."""
    fdirs, _ = _tilde_matrix(pi)
    return SubbundleSpec(tuple(pi.chart.direction_name(d) for d in fdirs))


def leafwise_sharp_star(pi: MultiVectorField, w: DifferentialForm) -> VerticalSection:
    """The forward map Gamma(wedge F*) -> Gamma(wedge E), factor by factor.

    ``w`` lives on the base chart with only dF factors; the result is a
    vertical section on the bundle chart of ``pi``.
    """
    chart = pi.chart
    fdirs, B = _tilde_matrix(pi)
    m, n = chart.n_base, chart.n_fibre
    images = {
        d: _image(MultiVectorField, chart, range(m, m + n), B[r])
        for r, d in enumerate(fdirs)
    }
    if w.chart != chart.base_chart():
        raise UnknownCoordinateError("leafwise form must live on the base chart")
    stray = [d for dirs, _ in w.terms for d in dirs if d not in images]
    if stray:
        raise NotVerticalError(f"factor {stray[0]} is not an F direction")
    out = MultiVectorField.from_factor_images(
        chart, w, images, lambda c: c.extend_to(chart)
    )
    return as_vertical(out)


def leafwise_sharp_inverse(pi: MultiVectorField, z: MultiVectorField) -> DifferentialForm:
    """The inverse of the leafwise musical map on vertical sections.

    Returns a form on the base chart with only dF factors.
    """
    section = as_vertical(z)
    chart = pi.chart
    fdirs, B = _tilde_matrix(pi)
    n = chart.n_fibre
    m = chart.n_base
    # components of sharp_star~(zeta) are (B^T zeta); invert B^T exactly.
    Bt = [[B[f][j] for f in range(n)] for j in range(n)]
    BtInv = scalar_matrix_inverse(Bt)
    base = chart.base_chart()
    images = {
        m + j: _image(DifferentialForm, base, fdirs, [BtInv[f][j] for f in range(n)])
        for j in range(n)
    }
    return DifferentialForm.from_factor_images(
        base, section, images, lambda c: c.restrict_to_base()
    )


def sharp_star_inverse(pi: MultiVectorField, Z: MultiVectorField) -> DifferentialForm:
    """The factorwise inverse of sharp_star on full multivectors."""
    return DifferentialForm.from_factor_images(pi.chart, Z, _full_inverse_images(pi))


def musical_inverse(pi: MultiVectorField, Z: MultiVectorField) -> DifferentialForm:
    """Apply the inverse musical isomorphism factor by factor.

    Vertical sections go through the leafwise variant (into forms over F on
    the base chart); general multivectors through the full inverse.
    """
    if isinstance(Z, VerticalSection):
        return leafwise_sharp_inverse(pi, Z)
    return sharp_star_inverse(pi, Z)
