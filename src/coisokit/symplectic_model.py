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

An affine pencil M(lambda) = A + sum_k lambda_k B_k takes the same series
as matrices of numerators over one denominator.  The coefficient P_alpha of
each lambda-monomial of the inverse is P_0 = A^{-1} and
P_alpha = sum_{k: alpha_k > 0} X_k P_{alpha - e_k} with X_k = -A^{-1} B_k.
If D is the denominator of A^{-1} and d_k that of B_k, P_alpha has the
denominator D^{|alpha|+1} prod_k d_k^{alpha_k}, so the series is plain
products of numerator matrices, and each entry becomes a jet once, at the
end.  A rational entry (every entry of a pencil read from a file or built by
``AffinePencil.from_rationals``) has an int numerator; an entry with a pi
power or an imaginary part keeps itself as a Scalar numerator over
denominator 1, and the same products run on it.

``pencil_product_defect`` checks M(lambda) * P(lambda) = I through order N
the same way: the terms at each lambda-monomial alpha are
C_alpha = A P_alpha + sum_k B_k P_{alpha - e_k} - [alpha = 0] I, one
product of numerator matrices per alpha.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import (
    _bits,
    _components,
    _split,
    mat_mul,
    ring_matrix_inverse,
    scalar_det,
    scalar_matrix_inverse,
)
from .coeff_ring import ChartSpec, GridEvaluator, RingElement, Scalar, sample_grid
from .errors import (
    ChartMismatchError,
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
    """A closed 2-form on a base chart together with its declared kernel.

    Each kernel direction must be named once and annihilate the form
    (PresymplecticError otherwise, naming the direction)."""

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
            if self.kernel.directions.count(name) > 1:
                raise PresymplecticError(f"kernel direction {name!r} is repeated")
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
        if candidate not in taken:
            return candidate
    candidate = f"p_{direction}"
    while candidate in taken:
        candidate += "_"
    return candidate


def gotay_local_model(data: PresymplecticData, bound=None) -> GotayModel:
    """Build the chart of E* = F* over C and Omega = pi*omega_C + j*omega_{T*C}.

    Omega is one constructor call over the terms of omega_C, extended to the
    bundle chart, and the r kernel pairs dq_f /\\ dp_f.  Its coefficients
    are base-only or 1 and each pair has one fibre factor, so Omega is
    fibrewise affine by construction; the pullback is checked.  The model's
    Omega keeps the block split of its matrix at y = 0 that the
    nondegeneracy check computed (``_ModelForm``)."""
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
    one, m = RingElement.one(chart), base.n_base
    omega = DifferentialForm(chart, 2, itertools.chain(
        ((dirs, coeff.extend_to(chart)) for dirs, coeff in data.omega.terms),
        (((chart.direction_index(q), m + j), one) for j, (q, _) in enumerate(pairs)),
    ))
    if pullback_zero_section(omega) != data.omega:
        raise PresymplecticError("local model does not pull back to omega_C")
    return GotayModel(chart, _ModelForm(omega, _check_nondegenerate(omega)), tuple(pairs))


class _ModelForm(DifferentialForm):
    """A Gotay model's Omega, which keeps ``zero_split``: the block split
    (determinant and blocks, ``_split``) of its coefficient matrix at y = 0
    that the nondegeneracy check computed.  ``symplectic_to_poisson``
    inverts that matrix from it, so the blocks and their determinants are
    not expanded a second time.  Arithmetic builds plain forms, so a form
    that differs from Omega carries no split.
    """

    def __init__(self, omega: DifferentialForm, zero_split):
        super().__init__(omega.chart, 2, omega.terms)
        self.zero_split = zero_split


def _check_nondegenerate(omega: DifferentialForm):
    """The split (det, blocks) of Omega's coefficient matrix at y = 0, once
    its determinant is checked to be nonzero and, where it is not constant,
    to have no zero on a sample of the base."""
    mat = omega.coefficient_matrix()
    at_zero = [[c.at_zero_fibre() if c.terms else c for c in row] for row in mat]
    split = _split(at_zero, RingElement.zero(omega.chart))
    det = split[0]
    if det.is_zero():
        raise DegenerateBivectorError("form is degenerate along the zero section")
    if not det.is_constant():
        import numpy as np
        # sample the base for zeros of the determinant near the zero section,
        # all grid points in one numpy pass
        chart = omega.chart
        points = sample_grid(chart, sorted(det.support_names()), per_axis=8)
        values = GridEvaluator([det])(np.array(points, dtype=float))[:, 0]
        small = np.flatnonzero(np.abs(values) < 1e-9)
        if len(small):
            point = points[small[0]] + (0.0,) * chart.n_fibre
            raise DegenerateBivectorError(f"form is numerically degenerate at {point}")
    return split


# The largest size n of an affine pencil.  Its determinant and inverse are
# Laplace expansions of 2^n minors, so the size is checked before either.  A
# dense 8 x 8 pencil (entries -3..3, 30% of them over denominators 2-5)
# takes 3.9-5.8 s to invert and check with 2 blocks at order 62, the most
# monomials ``cli.MAX_PENCIL_TERMS`` allows, 2.8-3.3 s with 3 blocks at
# order 20 and 2.3-2.5 s with 5 at order 9; with 2 blocks at order 62 a
# 7 x 7 one takes 4.1 s, a 9 x 9 one 9.4 s and a 12 x 12 one 24 s (2-core
# Xeon VM).
MAX_PENCIL_SIZE = 8


@dataclass(frozen=True)
class AffinePencil:
    """M(lambda) = A + sum_k lambda_k B_k with exact scalar entries, of size
    at most ``MAX_PENCIL_SIZE`` (PencilError otherwise)."""

    a: tuple
    b: tuple
    labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.a)
        if n > MAX_PENCIL_SIZE:
            raise PencilError(
                f"A has {n} rows, above the bound MAX_PENCIL_SIZE = {MAX_PENCIL_SIZE}"
            )
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


def _neumann_inverse(m, order: int, split=None):
    """M^{-1} for M = A + Y, A = M at y = 0: exactly A^{-1} when Y = 0, else
    the Neumann series truncated at fibre order ``order``.  Inversion errors
    of A are left to the caller.  ``split`` is the block split of A
    (``_split``) where the caller has it already.

    The series runs block by block.  Y and A have no entry outside the
    nonzero pattern of M, so M, A^{-1}, Y and every power (-A^{-1} Y)^r A^{-1}
    are block diagonal over the connected components of that pattern (up to
    a permutation of rows and columns), and each b x b block of M whose Y is
    nonzero takes its own series; a block with Y = 0 keeps its block of
    A^{-1}.  Every entry, the zeros between blocks included, is summed at one
    jet order: ``order``, lowered to the lowest jet order among the entries
    of M once a power is taken, as the whole-matrix series gives it (each of
    its products carries the jet orders of a whole row and column).

    A and Y are read only off the entries of M that have terms: a zero entry
    goes into A, Y and -Y as it is, with no ``at_zero_fibre``,
    ``fibre_part`` or negation.  ``ring_matrix_inverse`` reads no jet order
    of a zero entry, and the jet order that ``fibre_part`` and negation
    would keep still reaches the products and the minimum above."""
    ainv = ring_matrix_inverse([[e.at_zero_fibre() if e.terms else e for e in row] for row in m], split)
    # Y is the positive-fibre-degree part of each entry, at its jet order
    y = [[e.fibre_part() if e.terms else e for e in row] for row in m]
    if not any(e.terms for row in y for e in row):
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
        x = mat_mul(power, [[-e if e.terms else e for e in row] for row in block])  # -A^{-1} Y
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


def _label_keys(pencil: AffinePencil, chart: ChartSpec):
    """The (xe, k, ye) key of each lambda_k on ``chart``."""
    return [RingElement.coordinate(chart, label).terms[0][:3] for label in pencil.labels]


def _check_pencil_order(order: int) -> None:
    if order < 0:
        raise JetOrderError(f"pencil order {order} < 0: a jet needs fibre order >= 0")


def _numerators(mat):
    """(numerators, den): the Scalar matrix ``mat`` over the least common
    denominator of its entries.  A rational entry's numerator is an int; an
    entry with a pi power or an imaginary part is its own numerator, a
    Scalar over denominator 1."""
    ratios = [[s.integer_ratio() or (s, 1) for s in row] for row in mat]
    den = math.lcm(*(d for row in ratios for _, d in row))
    return [[num * (den // d) for num, d in row] for row in ratios], den


def _over(num, den) -> Scalar:
    """num / den for an int or a Scalar numerator ``num``."""
    return Scalar.rational(num, den) if type(num) is int else num * Scalar.rational(1, den)


def _num_mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _scalar_mat_mul(a, b):
    """``_num_mat_mul`` for numerator matrices that hold Scalars.  An entry
    whose row of ``a`` and column of ``b`` hold only ints is an int sum of
    products; one that meets a Scalar numerator is one ``Scalar.dot`` of its
    nonzero products, with no Scalar per product or partial sum."""
    cols = list(zip(*b))
    int_cols = list(map(_ints, cols))
    return [[sum(map(operator.mul, row, col)) if int_row and int_col else _scalar_dot(row, col)
             for col, int_col in zip(cols, int_cols)]
            for row, int_row in zip(a, map(_ints, a))]


def _ints(entries) -> bool:
    return {int}.issuperset(map(type, entries))


def _scalar_dot(row, col) -> Scalar:
    products = [(1, Scalar.of(x), Scalar.of(y)) for x, y in zip(row, col) if x and y]
    return Scalar.dot(products) if products else Scalar.zero()


def _mat_mul_for(mats):
    """The product for the numerator matrices built from ``mats``: the int
    one when every entry of ``mats`` is an int, else ``_scalar_mat_mul``."""
    entries = itertools.chain.from_iterable(itertools.chain.from_iterable(mats))
    return _num_mat_mul if _ints(entries) else _scalar_mat_mul


def _pencil_series(pencil: AffinePencil, order: int):
    """The coefficients P_alpha of M(lambda)^{-1} through |alpha| = ``order``
    as (alpha, numerators, den) triples, P_alpha = numerators / den.

    With X_k = -A^{-1} B_k the series is P_0 = A^{-1} and
    P_alpha = sum_{k: alpha_k > 0} X_k P_{alpha - e_k}.  If A^{-1} has
    denominator D and B_k denominator d_k, every term of that sum has the
    denominator D^{|alpha|+1} prod_k d_k^{alpha_k}, so each P_alpha is one
    sum of numerator matrix products over that denominator.  A zero P_alpha
    is None; a zero B_k adds no monomial.  The monomials of degree r are
    those of degree r - 1 raised in one index at or after their last nonzero
    one, so each is built once."""
    try:
        ainv, big_d = _numerators(scalar_matrix_inverse(pencil.a))
    except (NonInvertibleScalarError, DegenerateBivectorError) as exc:
        raise PencilError(f"constant part is not exactly invertible: {exc}") from exc
    bs = [_numerators(bk) for bk in pencil.b]
    num_mul = _mat_mul_for([ainv] + [num for num, _ in bs])
    xs = {}  # k -> (numerators of X_k, D * d_k), for each nonzero B_k
    for k, (num, den) in enumerate(bs):
        if any(map(any, num)):
            xs[k] = ([[-e for e in row] for row in num_mul(ainv, num)], big_d * den)
    n_params = len(pencil.b)
    level = {(0,) * n_params: (ainv, big_d, 0)}  # alpha -> (P_alpha, den, last index)
    out = [((0,) * n_params, ainv, big_d)]
    for _ in range(order if xs else 0):
        nxt = {}
        for alpha, (_, den, last) in level.items():
            for k, (_, xden) in xs.items():
                if k < last:
                    continue
                beta = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]
                # X_j P_{beta - e_j} for every j with beta_j > 0, as one
                # product of the X_j side by side with the P stacked
                left, right = [], []
                for j, (x, _) in xs.items():
                    if beta[j]:
                        prev = level[beta[:j] + (beta[j] - 1,) + beta[j + 1:]][0]
                        if prev is not None:
                            left.append(x)
                            right.extend(prev)
                num = None
                if left:
                    num = num_mul([sum(rows, []) for rows in zip(*left)], right)
                    if not any(map(any, num)):
                        num = None
                nxt[beta] = (num, den * xden, k)
                if num is not None:
                    out.append((beta, num, den * xden))
        level = nxt
    return out


def invert_affine_pencil(pencil: AffinePencil, order: int):
    """Truncated Neumann inverse; entries are jets of fibre order ``order``,
    which must be >= 0 (JetOrderError otherwise).

    The series runs as numerator matrices, one per lambda-monomial alpha,
    over the denominator D^{|alpha|+1} prod_k d_k^{alpha_k} (D that of
    A^{-1}, d_k that of B_k; see ``_pencil_series``), and each entry becomes
    a jet once, at the end.  The numerators are ints when the pencil is
    rational (every pencil read from a file or built by ``from_rationals``);
    an entry with a pi power or an imaginary part rides along as a Scalar
    numerator.  A whose determinant has no exact inverse in the ring is a
    PencilError."""
    _check_pencil_order(order)
    chart = ChartSpec((), (), pencil.labels)
    series = _pencil_series(pencil, order)
    n = pencil.size
    return tuple(
        tuple(RingElement(chart, [((), (), alpha, _over(num[i][j], den))
                                  for alpha, num, den in series if num[i][j]], order)
              for j in range(n))
        for i in range(n)
    )


def pencil_product_defect(pencil: AffinePencil, inverse, order: int):
    """Exact check terms of M(lambda) * inverse - I; all must have degree > order.

    ``order`` must be >= 0 (JetOrderError otherwise), so that the check
    covers at least the constant terms, and every entry of ``inverse`` must
    live on one chart (ChartMismatchError otherwise).  Each nonzero entry
    comes as ((i, j), its terms through ``order``), a jet of order ``order``.

    The terms of the inverse through ``order`` are grouped by their key
    alpha into P_alpha = numerators / den.  With e_k the key of lambda_k,
    the terms of M(lambda) * inverse - I at alpha are
    C_alpha = A P_alpha + sum_k B_k P_{alpha - e_k} - [alpha = 0] I, one
    product of numerator matrices (A and the B_k side by side, the P
    stacked, each scaled to the least common denominator) for each alpha of
    degree <= ``order`` that a term of the inverse reaches.  The numerators
    are ints for rational entries and Scalars for entries with a pi power or
    an imaginary part, in the pencil or in the inverse.  A RingElement is
    built only for a nonzero C_alpha entry."""
    _check_pencil_order(order)
    chart = inverse[0][0].chart
    for row in inverse:
        for e in row:
            if e.chart is not chart and e.chart != chart:
                raise ChartMismatchError(
                    f"inverse entries live on different charts: {chart} vs {e.chart}"
                )
    n = pencil.size
    parts = {}  # flat key xe + k + ye -> {(row, col): (num, den)}
    for row, entries_row in enumerate(inverse):
        for col, e in enumerate(entries_row):
            for xe, k, ye, s in e.terms:
                key = xe + k + ye
                entries = parts.get(key)
                if entries is None:
                    if sum(ye) > order:
                        continue
                    parts[key] = entries = {}
                entries[row, col] = s.integer_ratio() or (s, 1)
    nx = len(chart.poly_axes)
    nk = nx + len(chart.periodic_axes)
    ps = {}  # flat key -> (numerators, den) of P_alpha
    for key, entries in parts.items():
        den = math.lcm(*(d for _, d in entries.values()))
        num = [[0] * n for _ in range(n)]
        for (row, col), (q, d) in entries.items():
            num[row][col] = q * (den // d)
        ps[key] = num, den
    zero = (0,) * (nk + chart.n_fibre)
    shifts = []  # (B_k numerators, d_k, flat key of lambda_k, its degree), B_k nonzero
    for bk, (xe, k, ye) in zip(pencil.b, _label_keys(pencil, chart)):
        num, den = _numerators(bk)
        if any(map(any, num)):
            shifts.append((num, den, xe + k + ye, sum(ye)))
    targets = {zero}  # every alpha of degree <= order that a term reaches
    for key in ps:
        targets.add(key)
        deg = sum(key[nk:])
        for _, _, step, step_deg in shifts:
            if deg + step_deg <= order:
                targets.add(tuple(map(operator.add, key, step)))
    anum, aden = _numerators(pencil.a)
    num_mul = _mat_mul_for([anum] + [bnum for bnum, *_ in shifts] + [num for num, _ in ps.values()])
    bad = {}
    for alpha in targets:
        blocks = []  # (left numerators, right numerators, their denominator)
        if alpha in ps:
            num, den = ps[alpha]
            blocks.append((anum, num, aden * den))
        for bnum, bden, step, _ in shifts:
            prev = ps.get(tuple(map(operator.sub, alpha, step)))
            if prev is not None:
                blocks.append((bnum, prev[0], bden * prev[1]))
        den = math.lcm(*(d for _, _, d in blocks))
        if blocks:
            right = []
            for _, num, d in blocks:
                f = den // d
                right.extend(num if f == 1 else [[f * x for x in r] for r in num])
            c = num_mul([sum(rows, []) for rows in zip(*(b[0] for b in blocks))], right)
        else:
            c = [[0] * n for _ in range(n)]
        if alpha == zero:
            for i in range(n):
                c[i][i] -= den
        for i, row in enumerate(c):
            for j, x in enumerate(row):
                if x:
                    bad.setdefault((i, j), []).append(
                        (alpha[:nx], alpha[nx:nk], alpha[nk:], _over(x, den)))
    return [(ij, RingElement(chart, bad[ij], order)) for ij in sorted(bad)]


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
    calibrated so that Omega = dq /\\ dp inverts to pi = @q /\\ @p.  The Omega
    of a Gotay model inverts from the block split its model computed.

    pi is one constructor call over the entries of -M^{-1} above the
    diagonal that have terms; M^{-1} is antisymmetric, so nothing on or
    below the diagonal is read.
    """
    chart = omega.chart
    if not is_in_omega_le(omega, 1):
        raise NonAffineFibreError(
            f"fibrewise degrees {sorted(fibrewise_degree_classify(omega))} "
            "exceed the affine range {0, 1}"
        )
    try:
        split = omega.zero_split if isinstance(omega, _ModelForm) else None
        minv = _neumann_inverse(omega.coefficient_matrix(), order, split)
    except (NonInvertibleScalarError, DegenerateBivectorError) as exc:
        raise DegenerateBivectorError(
            f"form is not exactly invertible at y = 0: {exc}"
        ) from exc
    if order < 1 and minv[0][0].jet_order is not None:
        raise JetOrderError(f"jet order {order} < 1 checks no order of [pi, pi]")
    pi = MultiVectorField(chart, 2, (
        ((i, j), -e) for i, row in enumerate(minv) for j, e in enumerate(row) if j > i and e.terms
    ))
    if not is_poisson(pi):
        raise NotPoissonError(
            "inverse bivector fails the Jacobi identity (through the checked "
            "order for a jet); the input form is probably not closed"
        )
    return InvertedBivector(omega, pi.terms)
