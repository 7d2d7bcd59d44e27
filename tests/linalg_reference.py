"""Reference exact determinants and inverses: one Laplace expansion of the
whole matrix, for differential tests.

This is the single-table Laplace that ``coisokit._linalg`` used before it
split a matrix into the connected blocks of its nonzero pattern: every
determinant and cofactor is a minor over row and column bitmasks of the full
matrix, memoised in a table, with one table per removed row for the inverse,
and the adjugate divided once by the full determinant.  The library must
agree with it on every nonsingular matrix.
"""

from coisokit import RingElement, Scalar


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
