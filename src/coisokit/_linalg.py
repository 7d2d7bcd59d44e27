"""Exact linear algebra over scalars and ring elements.

Inverses are computed as adjugate over determinant, so the only division
happens once per block, by the block's determinant.  A determinant is
exactly invertible when it is a single term (one pi-power for scalars;
additionally one monomial and Fourier mode for ring elements), which covers
every matrix this package needs to invert exactly.

A matrix is first split into its blocks: the connected components of its
nonzero pattern, read as a bipartite graph of rows and columns joined by
their nonzero entries.  Up to a permutation of rows and of columns the
matrix is block diagonal, so its determinant is the permutation sign times
the product of the block determinants, and its inverse holds each block's
adjugate over that block's determinant, with zero between blocks.  A
component with more rows than columns makes the matrix structurally
singular: its determinant is then the exact ``zero``, with no jet order,
where a full expansion could give a zero jet.  The inverse of a matrix with
jet entries carries each block's own jet order.

Every block determinant and cofactor is one minor over row and column
bitmasks, memoised in a table; a minor of two or more rows is one signed
``dot`` over its row expansion, for scalar and ring entries alike.  The
inverse takes one table per removed row of a block, so the cofactors of
that row share their sub-minors.
"""

from __future__ import annotations

from typing import Sequence

from ._graded import inversion_sign
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


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(mat) -> list:
    """The connected components of the nonzero pattern of ``mat`` as
    (rows, cols) bitmask pairs, in order of their lowest row.  A zero row is
    a component with no columns; a zero column is in no component."""
    pattern = [sum(1 << j for j, e in enumerate(row) if not e.is_zero()) for row in mat]
    left = (1 << len(mat)) - 1
    out = []
    while left:
        rows = new = left & -left
        cols = 0
        while new:
            reach = 0
            for i in _bits(new):
                reach |= pattern[i]
            reach &= ~cols
            cols |= reach
            new = 0
            if reach:
                for i in _bits(left & ~rows):
                    if pattern[i] & reach:
                        new |= 1 << i
            rows |= new
        left &= ~rows
        out.append((rows, cols))
    return out


def _split(mat, zero):
    """(det, blocks): the determinant of ``mat`` and its blocks as
    (rows, cols, det) triples, or (``zero``, []) when ``mat`` is
    structurally singular."""
    if not mat:
        raise ValueError("empty matrix")
    comps = _components(mat)
    if any(rows.bit_count() != cols.bit_count() for rows, cols in comps):
        return zero, []
    blocks = [(rows, cols, _minor(mat, zero, {}, rows, cols)) for rows, cols in comps]
    det = blocks[0][2]
    for _, _, block_det in blocks[1:]:
        det = det * block_det
    # the signs of the row and column orders that list the blocks in turn
    rows = [i for block_rows, _ in comps for i in _bits(block_rows)]
    cols = [j for _, block_cols in comps for j in _bits(block_cols)]
    sign = inversion_sign(rows) * inversion_sign(cols)
    return (-det if sign < 0 else det), blocks


def scalar_det(mat: Sequence[Sequence[Scalar]]) -> Scalar:
    return _split(mat, Scalar.zero())[0]


def ring_det(mat: Sequence[Sequence[RingElement]]) -> RingElement:
    return _split(mat, RingElement.zero(mat[0][0].chart))[0]


def _inverse(mat, blocks, invert, zero):
    """Each block's adjugate times ``invert`` of its determinant, scattered
    into ``out[cols][rows]``; entries between blocks are ``zero``."""
    n = len(mat)
    out = [[zero] * n for _ in range(n)]
    for rows, cols, det in blocks:
        det_inv = invert(det)
        for pos_i, i in enumerate(_bits(rows)):
            table: dict = {}
            for pos_j, j in enumerate(_bits(cols)):
                sub = _minor(mat, zero, table, rows ^ (1 << i), cols ^ (1 << j))
                cof = det_inv if sub is None else sub * det_inv
                out[j][i] = -cof if (pos_i + pos_j) % 2 else cof
    return out


def scalar_matrix_inverse(mat: Sequence[Sequence[Scalar]]):
    """Exact inverse; requires det to be a single pi-power term."""
    zero = Scalar.zero()
    det, blocks = _split(mat, zero)
    if det.is_zero():
        raise DegenerateBivectorError("matrix is singular over the scalar ring")
    try:
        det.inverse()
    except NonInvertibleScalarError as exc:
        raise NonInvertibleScalarError(
            f"determinant {det.render()} has no exact inverse in the ring"
        ) from exc
    return _inverse(mat, blocks, Scalar.inverse, zero)


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


def ring_matrix_inverse(mat: Sequence[Sequence[RingElement]], split=None):
    """Exact inverse of a ring matrix whose determinant is invertible.

    ``split`` is ``_split(mat, zero)`` where the caller has it already, so
    the matrix is not split into its blocks a second time."""
    zero = RingElement.zero(mat[0][0].chart)
    det, blocks = _split(mat, zero) if split is None else split
    if det.is_zero():
        raise DegenerateBivectorError("matrix is singular over the ring")
    ring_element_inverse(det)  # the error names the whole determinant
    return _inverse(mat, blocks, ring_element_inverse, zero)


def mat_mul(a, b):
    """The product of two ring matrices with a non-empty inner dimension,
    one ``dot`` per entry."""
    cols = list(zip(*b))
    return [
        [RingElement.dot((1, x, y) for x, y in zip(row, col)) for col in cols]
        for row in a
    ]
