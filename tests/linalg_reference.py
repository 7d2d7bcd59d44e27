"""Reference exact determinants and inverses: one Laplace expansion of the
whole matrix, for differential tests.

This is the single-table Laplace that ``coisokit._linalg`` used before it
split a matrix into the connected blocks of its nonzero pattern: every
determinant and cofactor is a minor over row and column bitmasks of the full
matrix, memoised in a table, with one table per removed row for the inverse,
and the adjugate divided once by the full determinant.  The library must
agree with it on every nonsingular matrix.

``neumann_inverse`` is likewise the whole-matrix Neumann series of a
fibrewise-affine matrix, for ``symplectic_model``'s block-by-block series.
"""

import itertools

from coisokit import RingElement, Scalar
from coisokit._linalg import mat_mul, ring_matrix_inverse


def minor(mat, zero, table: dict, rows: int, cols: int):
    """The determinant of ``mat`` on the row and column bitmasks, expanded
    along the lowest remaining row; the empty minor is ``None``."""
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
            sub = minor(mat, zero, table, rest, cols ^ bit)
            products.append((-1 if pos % 2 else 1, entry, sub))
        pos += 1
    total = type(zero).dot(products) if products else zero
    table[key] = total
    return total


def det(mat, zero):
    full = (1 << len(mat)) - 1
    return minor(mat, zero, {}, full, full)


def inverse(mat, det_inv, zero):
    n = len(mat)
    full = (1 << n) - 1
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        table: dict = {}
        for j in range(n):
            sub = minor(mat, zero, table, full ^ (1 << i), full ^ (1 << j))
            cof = det_inv if sub is None else sub * det_inv
            out[j][i] = -cof if (i + j) % 2 else cof
    return out


def scalar_inverse(mat):
    """The inverse of a scalar matrix whose determinant is one pi-power term."""
    return inverse(mat, det(mat, Scalar.zero()).inverse(), Scalar.zero())


def ring_inverse(mat):
    """The inverse of a ring matrix whose determinant is one constant-times-mode term."""
    zero = RingElement.zero(mat[0][0].chart)
    ((xe, k, ye, s),) = det(mat, zero).terms
    det_inv = RingElement(zero.chart, ((xe, tuple(-n for n in k), ye, s.inverse()),))
    return inverse(mat, det_inv, zero)


def neumann_inverse(m, order: int):
    """M^{-1} for M = A + Y, A = M at y = 0, by the Neumann series of the
    whole matrix: exactly A^{-1} when Y = 0, else sum_{r <= order}
    (-A^{-1} Y)^r A^{-1} with every power a product of full n x n matrices,
    each entry summed at the lowest jet order of its parts and ``order``.
    This is the series ``coisokit.symplectic_model`` ran before it split M
    into blocks."""
    a = [[e.at_zero_fibre() for e in row] for row in m]
    ainv = ring_matrix_inverse(a)
    minus_y = [
        [RingElement(e.chart, ((xe, k, ye, -s) for xe, k, ye, s in e.terms if any(ye)),
                     e.jet_order) for e in row]
        for row in m
    ]
    if all(e.is_zero() for row in minus_y for e in row):
        return ainv
    x = mat_mul(ainv, minus_y)
    series = [[[e] for e in row] for row in ainv]
    power = ainv
    for _ in range(order):
        power = mat_mul(x, power)
        for parts_row, row in zip(series, power):
            for parts, e in zip(parts_row, row):
                if e.terms or e.jet_order is not None:
                    parts.append(e)

    def series_sum(parts):
        jet = min([order] + [e.jet_order for e in parts if e.jet_order is not None])
        terms = itertools.chain.from_iterable(e.terms for e in parts)
        return RingElement(parts[0].chart, terms, jet)

    return [[series_sum(parts) for parts in row] for row in series]
