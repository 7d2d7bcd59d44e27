"""Exact linear algebra over scalars and ring elements.

Inverses are computed as adjugate over determinant, so the only division
happens once, by the determinant.  A determinant is exactly invertible when
it is a single term (one pi-power for scalars; additionally one monomial and
Fourier mode for ring elements), which covers every matrix this package
needs to invert exactly.

Every determinant and cofactor is one minor over row and column bitmasks,
memoised in a table; a minor of two or more rows is one signed ``dot`` over
its row expansion, for scalar and ring entries alike.  The inverse takes one
table per removed row, so the n cofactors of that row share their
sub-minors; one table for all n^2 cofactors would share more but holds more
minors at once.
"""

from __future__ import annotations

from typing import Sequence

from .coeff_ring import RingElement, Scalar
from .errors import DegenerateBivectorError, NonInvertibleScalarError


def _minor(mat, zero, table: dict, rows: int, cols: int):
    """The determinant of ``mat`` on the row and column bitmasks, expanded
    along the lowest remaining row as one signed ``dot`` of its nonzero
    entries with their sub-minors, and memoised in ``table``.  ``zero`` is a
    zero entry: the minor of a row of zeros, and through its type the one
    ``dot`` of scalar and ring entries alike.  The empty minor is ``None``,
    the multiplicative identity.

    The table is an argument, not a closure cell: a closure that calls itself
    is a reference cycle, so its table would outlive the call until the
    cyclic collector runs."""
    if not rows:
        return None
    entries = mat[(rows & -rows).bit_length() - 1]
    rest = rows & (rows - 1)
    if not rest:
        entry = entries[cols.bit_length() - 1]
        return zero if entry.is_zero() else entry
    key = (rows, cols)
    if key in table:
        return table[key]
    products = []
    pos = 0
    for col in range(len(mat)):
        bit = 1 << col
        if not cols & bit:
            continue
        entry = entries[col]
        if not entry.is_zero():
            sub = _minor(mat, zero, table, rest, cols ^ bit)
            products.append((-1 if pos % 2 else 1, entry, sub))
        pos += 1
    total = type(zero).dot(products) if products else zero
    table[key] = total
    return total


def _det(mat, zero):
    if not mat:
        raise ValueError("empty matrix")
    full = (1 << len(mat)) - 1
    return _minor(mat, zero, {}, full, full)


def scalar_det(mat: Sequence[Sequence[Scalar]]) -> Scalar:
    return _det(mat, Scalar.zero())


def ring_det(mat: Sequence[Sequence[RingElement]]) -> RingElement:
    return _det(mat, RingElement.zero(mat[0][0].chart))


def _inverse(mat, det_inv, zero):
    n = len(mat)
    full = (1 << n) - 1
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        table: dict = {}
        for j in range(n):
            sub = _minor(mat, zero, table, full ^ (1 << i), full ^ (1 << j))
            cof = det_inv if sub is None else sub * det_inv
            out[j][i] = -cof if (i + j) % 2 else cof
    return out


def scalar_matrix_inverse(mat: Sequence[Sequence[Scalar]]):
    """Exact inverse; requires det to be a single pi-power term."""
    det = scalar_det(mat)
    if det.is_zero():
        raise DegenerateBivectorError("matrix is singular over the scalar ring")
    try:
        dinv = det.inverse()
    except NonInvertibleScalarError as exc:
        raise NonInvertibleScalarError(
            f"determinant {det.render()} has no exact inverse in the ring"
        ) from exc
    return _inverse(mat, dinv, Scalar.zero())


def ring_element_inverse(e: RingElement) -> RingElement:
    """Exact inverse of a single-term ring element c * e^{i 2 pi k.x}."""
    if len(e.terms) != 1:
        raise NonInvertibleScalarError(
            f"{e.render()} is not a single-term element"
        )
    xe, k, ye, s = e.terms[0]
    if any(xe) or any(ye):
        raise NonInvertibleScalarError(
            f"{e.render()} has a monomial factor and no inverse in the ring"
        )
    kinv = tuple(-n for n in k)
    return RingElement(e.chart, ((xe, kinv, ye, s.inverse()),))


def ring_matrix_inverse(mat: Sequence[Sequence[RingElement]]):
    """Exact inverse of a ring matrix whose determinant is invertible."""
    det = ring_det(mat)
    if det.is_zero():
        raise DegenerateBivectorError("matrix is singular over the ring")
    dinv = ring_element_inverse(det)
    return _inverse(mat, dinv, RingElement.zero(det.chart))


def mat_mul(a, b):
    """The product of two ring matrices with a non-empty inner dimension,
    one ``dot`` per entry."""
    cols = list(zip(*b))
    return [
        [RingElement.dot((1, x, y) for x, y in zip(row, col)) for col in cols]
        for row in a
    ]
