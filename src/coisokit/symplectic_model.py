"""Gotay local models and geometric-series inversion of affine symplectic forms.

A presymplectic base (C, omega_C) with declared coordinate-spanned kernel F
produces the local model Omega = (pullback of omega_C) + sum_f dq_f ^ dp_f
on the dual bundle chart.  A form whose fibrewise degrees lie in {0, 1} has a
coefficient matrix M = A + Y, where A = M at y = 0 and Y = M - A is
fibre-linear (Y = sum_k y_k B_k(x)).  Its inverse is the truncated Neumann
series

    M^{-1} = sum_{r>=0} (-A^{-1} Y)^r A^{-1},

computed exactly over the ring whenever det A is an invertible element
(a single scalar-times-mode term; in particular any rational constant).
M, A^{-1} and Y are block diagonal over the connected components of the
nonzero pattern of M, so the series runs on each block whose Y is nonzero,
with b x b products, and skips the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import _bits, _components, mat_mul, ring_det, ring_matrix_inverse, scalar_det
from .coeff_ring import ChartSpec, GridEvaluator, RingElement, Scalar, sample_grid
from .errors import (
    DegenerateBivectorError,
    JetOrderError,
    NonAffineFibreError,
    NonInvertibleScalarError,
    NotPoissonError,
    PencilError,
    PresymplecticError,
)
from .forms import (
    DifferentialForm,
    SubbundleSpec,
    de_rham_d,
    fibrewise_degree_classify,
    interior_product,
    is_in_omega_le,
    pullback_zero_section,
)
from .multivector import MultiVectorField, is_poisson


@dataclass(frozen=True)
class PresymplecticData:
    """A closed 2-form on a base chart together with its declared kernel."""

    chart: ChartSpec
    omega: DifferentialForm
    kernel: SubbundleSpec

    def __post_init__(self):
        if self.chart.n_fibre != 0:
            raise PresymplecticError("presymplectic data lives on a base chart")
        if self.omega.chart != self.chart:
            raise PresymplecticError("form does not live on the given chart")
        if self.omega.degree != 2 and not self.omega.is_zero():
            raise PresymplecticError("presymplectic form must have degree 2")
        if not de_rham_d(self.omega).is_zero():
            raise PresymplecticError("form is not closed")
        for name in self.kernel.directions:
            if not interior_product(name, self.omega).is_zero():
                raise PresymplecticError(
                    f"declared kernel direction {name!r} is not annihilated"
                )


@dataclass(frozen=True)
class GotayModel:
    """Bundle chart over C with the local-model symplectic form."""

    chart: ChartSpec
    omega: DifferentialForm
    fibre_for: tuple[tuple[str, str], ...]  # (kernel direction, fibre name)


def _fibre_name(direction: str, taken: set) -> str:
    if direction.startswith("q"):
        candidate = "p" + direction[1:]
        if candidate and candidate not in taken:
            return candidate
    candidate = f"p_{direction}"
    while candidate in taken:
        candidate += "_"
    return candidate


def gotay_local_model(data: PresymplecticData, bound=None) -> GotayModel:
    """Build the chart of E* = F* over C and Omega = pi*omega_C + j*omega_{T*C}."""
    base = data.chart
    taken = set(base.names)
    pairs = []
    for name in data.kernel.directions:
        fn = _fibre_name(name, taken)
        taken.add(fn)
        pairs.append((name, fn))
    chart = base.extend(
        tuple(fn for _, fn in pairs),
        None if bound is None else Fraction(bound),
    )
    omega = DifferentialForm(
        chart,
        2,
        (
            (dirs, coeff.extend_to(chart))
            for dirs, coeff in data.omega.terms
        ),
    )
    m = base.n_base
    for j, (qname, _) in enumerate(pairs):
        q = chart.direction_index(qname)
        omega = omega + DifferentialForm(
            chart, 2, (((q, m + j), RingElement.one(chart)),)
        )
    if pullback_zero_section(omega) != data.omega:
        raise PresymplecticError("local model does not pull back to omega_C")
    if not is_in_omega_le(omega, 1):
        raise PresymplecticError("local model is not fibrewise affine")
    _check_nondegenerate(omega)
    return GotayModel(chart, omega, tuple(pairs))


def _check_nondegenerate(omega: DifferentialForm) -> None:
    mat = omega.coefficient_matrix()
    at_zero = [[c.at_zero_fibre() for c in row] for row in mat]
    det = ring_det(at_zero)
    if det.is_zero():
        raise DegenerateBivectorError("form is degenerate along the zero section")
    if not det.is_constant():
        # sample the base for zeros of the determinant near the zero section,
        # all grid points in one numpy pass
        chart = omega.chart
        points = sample_grid(chart, sorted(det.support_names()), per_axis=8)
        values = GridEvaluator([det])(np.array(points, dtype=float))[:, 0]
        small = np.flatnonzero(np.abs(values) < 1e-9)
        if len(small):
            point = points[small[0]] + (0.0,) * chart.n_fibre
            raise DegenerateBivectorError(f"form is numerically degenerate at {point}")


@dataclass(frozen=True)
class AffinePencil:
    """M(lambda) = A + sum_k lambda_k B_k with exact scalar entries."""

    a: tuple
    b: tuple
    labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.a)
        if any(len(row) != n for row in self.a):
            raise PencilError("A must be square")
        if len(self.b) != len(self.labels):
            raise PencilError("one label per coefficient matrix required")
        for bk in self.b:
            if len(bk) != n or any(len(row) != n for row in bk):
                raise PencilError("B_k must match the size of A")
        if scalar_det(self.a).is_zero():
            raise PencilError("constant part A is singular")

    @property
    def size(self) -> int:
        return len(self.a)

    @classmethod
    def from_rationals(cls, a, b, labels) -> "AffinePencil":
        conv = lambda m: tuple(
            tuple(Scalar.of(Fraction(x)) for x in row) for row in m
        )
        return cls(conv(a), tuple(conv(bk) for bk in b), tuple(labels))


def parse_pencil_text(text: str) -> AffinePencil:
    """Plain-text pencil: blocks of rational rows separated by blank lines."""
    blocks, cur = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            if cur:
                blocks.append(cur)
                cur = []
            continue
        try:
            cur.append([Fraction(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError):
            raise PencilError(f"line {lineno}: not a rational row: {line!r}") from None
    if cur:
        blocks.append(cur)
    if not blocks:
        raise PencilError("empty pencil file")
    a = blocks[0]
    bs = blocks[1:]
    labels = tuple(f"v{k + 1}" for k in range(len(bs)))
    return AffinePencil.from_rationals(a, bs, labels)


def _neumann_inverse(m, order: int):
    """M^{-1} for M = A + Y, A = M at y = 0: exactly A^{-1} when Y = 0, else
    the Neumann series truncated at fibre order ``order``.  Inversion errors
    of A are left to the caller.

    The series runs block by block.  Y and A have no entry outside the
    nonzero pattern of M, so M, A^{-1}, Y and every power (-A^{-1} Y)^r A^{-1}
    are block diagonal over the connected components of that pattern (up to
    a permutation of rows and columns), and each b x b block of M whose Y is
    nonzero takes its own series; a block with Y = 0 keeps its block of
    A^{-1}.  Every entry, the zeros between blocks included, is summed at one
    jet order: ``order``, lowered to the lowest jet order among the entries
    of M once a power is taken, as the whole-matrix series gives it (each of
    its products carries the jet orders of a whole row and column)."""
    a = [[e.at_zero_fibre() for e in row] for row in m]
    ainv = ring_matrix_inverse(a)
    # Y is the positive-fibre-degree part of each entry, at its jet order
    y = [[e.fibre_part() for e in row] for row in m]
    if all(e.is_zero() for row in y for e in row):
        return ainv
    jets = [e.jet_order for row in m for e in row if e.jet_order is not None]
    jet = min([order] + jets) if order > 0 else order
    # each entry's series is summed once, after the last power; a part that
    # is exactly zero adds no term, so it is not kept (most are)
    series = [[[e] for e in row] for row in ainv]
    for rows, cols in _components(m):
        rows, cols = list(_bits(rows)), list(_bits(cols))
        block = [[y[i][j] for j in cols] for i in rows]
        if all(e.is_zero() for row in block for e in row):
            continue
        power = [[ainv[j][i] for i in rows] for j in cols]  # the block of A^{-1}
        x = mat_mul(power, [[-e for e in row] for row in block])  # -A^{-1} Y
        for _ in range(order):
            power = mat_mul(x, power)
            for j, row in zip(cols, power):
                for i, e in zip(rows, row):
                    if e.terms:
                        series[j][i].append(e)
    return [
        [RingElement(parts[0].chart, itertools.chain.from_iterable(e.terms for e in parts), jet)
         for parts in row]
        for row in series
    ]


def _pencil_matrix(pencil: AffinePencil, chart: ChartSpec):
    """M(lambda) = A + sum_k lambda_k B_k as a ring matrix on ``chart``.

    Each entry is built once, from its constant term and one term per
    lambda_k (the constructor drops the zero ones)."""
    one = RingElement.one(chart).terms[0][:3]
    keys = [RingElement.coordinate(chart, label).terms[0][:3] for label in pencil.labels]
    n = pencil.size
    return [
        [RingElement(chart, [one + (pencil.a[i][j],)]
                     + [key + (bk[i][j],) for key, bk in zip(keys, pencil.b)])
         for j in range(n)]
        for i in range(n)
    ]


def _check_pencil_order(order: int) -> None:
    if order < 0:
        raise JetOrderError(f"pencil order {order} < 0: a jet needs fibre order >= 0")


def invert_affine_pencil(pencil: AffinePencil, order: int):
    """Truncated Neumann inverse; entries are jets of fibre order ``order``,
    which must be >= 0 (JetOrderError otherwise)."""
    _check_pencil_order(order)
    chart = ChartSpec((), (), pencil.labels)
    try:
        total = _neumann_inverse(_pencil_matrix(pencil, chart), order)
    except (NonInvertibleScalarError, DegenerateBivectorError) as exc:
        raise PencilError(f"constant part is not exactly invertible: {exc}") from exc
    return tuple(tuple(e.truncate(order) for e in row) for row in total)


def pencil_product_defect(pencil: AffinePencil, inverse, order: int):
    """Exact check terms of M(lambda) * inverse - I; all must have degree > order.

    ``order`` must be >= 0 (JetOrderError otherwise), so that the check
    covers at least the constant terms."""
    _check_pencil_order(order)
    chart = inverse[0][0].chart
    n = pencil.size
    zero = RingElement.zero(chart)
    m = _pencil_matrix(pencil, chart)
    # M has fibre degree <= 1, so the terms of M * inverse through ``order``
    # only need the terms of the inverse through ``order``
    inv_jet = [[RingElement(chart, e.terms, order) for e in row] for row in inverse]
    prod = mat_mul(m, inv_jet)
    bad = []
    for i in range(n):
        for j in range(n):
            diff = prod[i][j] - (RingElement.one(chart) if i == j else zero)
            if not diff.is_zero():
                bad.append(((i, j), diff))
    return bad


class InvertedBivector(MultiVectorField):
    """A Poisson bivector inverted from a symplectic form, which it keeps.

    ``symplectic_to_poisson`` returns one after checking [pi, pi] = 0, so
    ``make_coiso_algebra`` does not check it again, and the numeric oracles
    invert ``source_form``, which is exact where the bivector may be a jet.
    Arithmetic builds plain fields, so a value that differs from the
    inversion's result carries no source.
    """

    def __init__(self, source_form: DifferentialForm, terms):
        super().__init__(source_form.chart, 2, terms)
        self.source_form = source_form


def symplectic_to_poisson(omega: DifferentialForm, order: int = 6) -> InvertedBivector:
    """Invert a fibrewise affine symplectic form into a Poisson bivector.

    Constant forms invert exactly; forms with genuine fibre dependence return
    a jet of the stated order, which must then be at least 1.  The
    coefficient matrix at y = 0 must have an exactly invertible determinant.
    The result is an ``InvertedBivector`` that keeps ``omega``.  The sign is
    calibrated so that Omega = dq /\\ dp inverts to pi = @q /\\ @p.
    """
    chart = omega.chart
    if not is_in_omega_le(omega, 1):
        raise NonAffineFibreError(
            f"fibrewise degrees {sorted(fibrewise_degree_classify(omega))} "
            "exceed the affine range {0, 1}"
        )
    try:
        minv = _neumann_inverse(omega.coefficient_matrix(), order)
    except (NonInvertibleScalarError, DegenerateBivectorError) as exc:
        raise DegenerateBivectorError(
            f"form is not exactly invertible at y = 0: {exc}"
        ) from exc
    if order < 1 and minv[0][0].jet_order is not None:
        raise JetOrderError(f"jet order {order} < 1 checks no order of [pi, pi]")
    pi = MultiVectorField.from_matrix(chart, [[-e for e in row] for row in minv])
    if not is_poisson(pi):
        raise NotPoissonError(
            "inverse bivector fails the Jacobi identity (through the checked "
            "order for a jet); the input form is probably not closed"
        )
    return InvertedBivector(omega, pi.terms)
