"""Exact matrix inversion and determinants over scalars and ring elements."""

import itertools
import math
from fractions import Fraction

import pytest

from coisokit import (
    AffinePencil,
    RingElement,
    Scalar,
    invert_affine_pencil,
    make_chart,
    pencil_product_defect,
)
from coisokit._linalg import (
    mat_mul,
    ring_det,
    ring_matrix_inverse,
    scalar_det,
    scalar_matrix_inverse,
)
from coisokit.coeff_ring import ChartSpec
from coisokit.symplectic_model import _neumann_inverse
from coisokit.errors import DegenerateBivectorError, NonInvertibleScalarError

import linalg_reference as reference
from conftest import rand_fraction, rand_ring, rng_for, torus_gotay_form

CHART = make_chart("x y*")
SIZES = range(1, 7)


def ring_identity(n):
    zero, one = RingElement.zero(CHART), RingElement.one(CHART)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def scalar_identity(n):
    return [[Scalar.one() if i == j else Scalar.zero() for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Schoolbook product, kept apart from the library's ``mat_mul``."""
    return [
        [sum((row[k] * b[k][j] for k in range(1, len(b))), row[0] * b[0][j])
         for j in range(len(b[0]))]
        for row in a
    ]


def rand_ring_entry(rng):
    """One of c, c*x^e, c*sin(2 pi k y), c*cos(2 pi k y)."""
    c = RingElement.constant(CHART, rand_fraction(rng, 1, 3))
    kind = rng.randrange(3)
    if kind == 0:
        return c * RingElement.coordinate(CHART, "x") ** rng.randint(1, 2)
    maker = RingElement.sin_of if kind == 1 else RingElement.cos_of
    return c * maker(CHART, {"y": rng.randint(1, 2)})


def unimodular_ring(rng, n):
    """A product of elementary matrices I + e E_ij, then one unit diagonal.

    The diagonal holds rationals and one Fourier mode, so the determinant is
    a single invertible term that is not always a constant.
    """
    m = ring_identity(n)
    for _ in range(n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        elem = ring_identity(n)
        elem[i][j] = rand_ring_entry(rng)
        m = matmul(m, elem)
    diag = ring_identity(n)
    diag[0][0] = RingElement.fourier_mode(CHART, {"y": rng.choice((-1, 1))})
    diag[-1][-1] = diag[-1][-1].scale(rand_fraction(rng, 1, 3))
    return matmul(m, diag)


class TestRingInverse:
    @pytest.mark.parametrize("n", SIZES)
    def test_unimodular_inverse_is_two_sided(self, n):
        rng = rng_for(f"linalg-ring-{n}")
        for _ in range(3):
            a = unimodular_ring(rng, n)
            inv = ring_matrix_inverse(a)
            assert matmul(a, inv) == ring_identity(n)
            assert matmul(inv, a) == ring_identity(n)

    def test_matrix_without_a_unit_entry(self):
        x = RingElement.coordinate(CHART, "x")
        one = RingElement.one(CHART)
        a = [[one + x, x], [x, x - one]]
        assert ring_det(a) == -one
        inv = ring_matrix_inverse(a)
        assert inv == [[one - x, x], [x, -one - x]]
        assert matmul(a, inv) == ring_identity(2)
        assert matmul(inv, a) == ring_identity(2)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_determinant_is_multiplicative(self, n):
        rng = rng_for(f"linalg-det-{n}")
        for _ in range(3):
            a, b = (
                [[rand_ring(rng, CHART, max_ydeg=0, max_xdeg=1, max_mode=1,
                            nterms=1) for _ in range(n)] for _ in range(n)]
                for _ in range(2)
            )
            assert ring_det(matmul(a, b)) == ring_det(a) * ring_det(b)

    def test_singular_matrix_is_degenerate(self):
        x = RingElement.coordinate(CHART, "x")
        s = RingElement.sin_of(CHART, {"y": 1})
        row = [x, s, x * s]
        with pytest.raises(DegenerateBivectorError):
            ring_matrix_inverse([row, [e.scale(2) for e in row], [s, x, s]])

    def test_monomial_determinant_has_no_inverse(self):
        x = RingElement.coordinate(CHART, "x")
        zero, one = RingElement.zero(CHART), RingElement.one(CHART)
        with pytest.raises(NonInvertibleScalarError):
            ring_matrix_inverse([[x, zero], [zero, one]])


def rand_pi_scalar(rng):
    return Scalar.pi_power(rng.randint(0, 2), rand_fraction(rng, 1, 3))


def pi_power_scalar(rng, n):
    """Elementary factors with pi-polynomial entries; pi-power diagonal."""
    m = scalar_identity(n)
    for _ in range(n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        elem = scalar_identity(n)
        elem[i][j] = rand_pi_scalar(rng) + rand_pi_scalar(rng)
        m = matmul(m, elem)
    diag = scalar_identity(n)
    for i in range(n):
        coeff = rand_fraction(rng, 1, 3)
        diag[i][i] = Scalar.pi_power(rng.randint(-1, 2), coeff)
    return matmul(m, diag)


class TestScalarInverse:
    @pytest.mark.parametrize("n", SIZES)
    def test_pi_power_determinant_inverts_exactly(self, n):
        rng = rng_for(f"linalg-scalar-{n}")
        for _ in range(3):
            a = pi_power_scalar(rng, n)
            assert scalar_det(a).single_term() is not None
            inv = scalar_matrix_inverse(a)
            assert matmul(a, inv) == scalar_identity(n)
            assert matmul(inv, a) == scalar_identity(n)

    def test_determinant_of_a_known_matrix(self):
        pi = Scalar.pi_power(1)
        a = [[pi, Scalar.of(1)], [Scalar.of(Fraction(1, 2)), Scalar.zero()]]
        assert scalar_det(a) == Scalar.of(Fraction(-1, 2))

    def test_singular_scalar_matrix_is_degenerate(self):
        pi = Scalar.pi_power(1)
        with pytest.raises(DegenerateBivectorError):
            scalar_matrix_inverse([[pi, pi * pi], [Scalar.of(1), pi]])

    def test_sum_of_pi_powers_has_no_inverse(self):
        one = Scalar.of(1)
        with pytest.raises(NonInvertibleScalarError):
            scalar_matrix_inverse([[one + Scalar.pi_power(1), one], [Scalar.zero(), one]])


# -- the fused sums of products against naive loops over * and + ---------------

JET_CHART = make_chart("x y*", "p")


def rand_jet_matrix(rng, rows, cols, nonzero=False):
    """Ring entries in x, y and the fibre p, each exact or a jet of order 1-3."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            while True:
                e = rand_ring(rng, JET_CHART, max_xdeg=1, max_mode=1, max_ydeg=2,
                              nterms=2, real=False)
                if not (nonzero and e.is_zero()):
                    break
            jet = rng.choice((None, None, 1, 2, 3))
            row.append(e if jet is None else e.truncate(jet))
        out.append(row)
    return out


def same(a, b):
    """Equal terms and equal jet orders."""
    return a.terms == b.terms and a.jet_order == b.jet_order


def leibniz_det(mat):
    """sum over permutations of sign * prod_i mat[i][perm[i]], by * and +."""
    n = len(mat)
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = mat[0][perm[0]]
        for i in range(1, n):
            prod = prod * mat[i][perm[i]]
        prod = -prod if inversions % 2 else prod
        total = prod if total is None else total + prod
    return total


def fraction_inverse(a):
    """Gauss-Jordan inverse of a rational matrix."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def naive_pencil_inverse(a, bs, labels, order):
    """sum_{r <= order} (-A^{-1} Y)^r A^{-1}, Y = sum_k lambda_k B_k, by * and +."""
    chart = ChartSpec((), (), labels)
    n = len(a)
    const = lambda m: [[RingElement.constant(chart, x) for x in row] for row in m]
    ainv = const(fraction_inverse(a))
    y = const([[0] * n for _ in range(n)])
    for label, b in zip(labels, bs):
        lam = RingElement.coordinate(chart, label)
        y = [[e + lam.scale(Fraction(x)) for e, x in zip(row, brow)]
             for row, brow in zip(y, b)]
    x = [[-e for e in row] for row in matmul(ainv, y)]
    total, power = ainv, ainv
    for _ in range(order):
        power = matmul(x, power)
        total = [[s + t for s, t in zip(row, prow)] for row, prow in zip(total, power)]
    return [[e.truncate(order) for e in row] for row in total]


class TestFusedAgainstNaive:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5)])
    def test_mat_mul_is_the_triple_loop(self, shape):
        rng = rng_for(f"fused-matmul-{shape}")
        n, k, m = shape
        for _ in range(3):
            a, b = rand_jet_matrix(rng, n, k), rand_jet_matrix(rng, k, m)
            got, expected = mat_mul(a, b), matmul(a, b)
            assert all(same(g, e) for grow, erow in zip(got, expected)
                       for g, e in zip(grow, erow))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_ring_det_is_the_leibniz_sum(self, n):
        rng = rng_for(f"fused-det-{n}")
        for _ in range(3):
            # jets need every entry nonzero: an expansion skips zero entries,
            # so a zero jet entry would lower only the Leibniz order
            mat = rand_jet_matrix(rng, n, n, nonzero=True)
            assert same(ring_det(mat), leibniz_det(mat))
            exact = [[e.without_truncation() for e in row] for row in mat]
            exact[rng.randrange(n)][rng.randrange(n)] = RingElement.zero(JET_CHART)
            assert same(ring_det(exact), leibniz_det(exact))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_scalar_det_is_the_leibniz_sum(self, n):
        rng = rng_for(f"fused-scalar-det-{n}")
        for _ in range(3):
            mat = [[rand_pi_scalar(rng) + rand_pi_scalar(rng) for _ in range(n)]
                   for _ in range(n)]
            assert scalar_det(mat).terms == leibniz_det(mat).terms

    def test_two_parameter_pencil_inverse_is_the_naive_series(self):
        """Sizes 1-5, 0-3 parameter blocks and orders 0-6, over every
        (size, blocks) pair.  A has sevenths; B_k has denominator 2, 3, 5 by
        parameter, so the products of one lambda-monomial differ in their
        factors; some B_k are all zero."""
        rng = rng_for("fused-pencil")
        orders = itertools.cycle(range(7))
        for n, n_params in itertools.product(range(1, 6), range(4)):
            labels = tuple(f"v{k + 1}" for k in range(n_params))
            while True:
                a = [[Fraction(rng.randint(-4, 4), rng.choice((1, 7))) for _ in range(n)]
                     for _ in range(n)]
                if not scalar_det([[Scalar.of(x) for x in row] for row in a]).is_zero():
                    break
            bs = [[[Fraction(rng.randint(-3, 3), den) if rng.randrange(4) else 0
                    for _ in range(n)] for _ in range(n)]
                  for den in (2, 3, 5)[:n_params]]
            if n_params and rng.randrange(3) == 0:
                bs[rng.randrange(n_params)] = [[0] * n for _ in range(n)]
            order = next(orders)
            pencil = AffinePencil.from_rationals(a, bs, labels)
            got = invert_affine_pencil(pencil, order)
            expected = naive_pencil_inverse(a, bs, labels, order)
            assert all(same(g, e) for grow, erow in zip(got, expected)
                       for g, e in zip(grow, erow))
        # the 4 x 4 integer pencils the tests compared before
        labels = ("v1", "v2")
        for _ in range(2):
            while True:
                a = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
                if not scalar_det([[Scalar.of(x) for x in row] for row in a]).is_zero():
                    break
            bs = [[[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
                  for _ in labels]
            pencil = AffinePencil.from_rationals(a, bs, labels)
            got = invert_affine_pencil(pencil, 4)
            expected = naive_pencil_inverse(a, bs, labels, 4)
            assert any(len(e.terms) > 1 for row in got for e in row)
            assert all(same(g, e) for grow, erow in zip(got, expected)
                       for g, e in zip(grow, erow))

    def test_thirty_parameter_pencil_is_the_naive_series(self):
        """C(32, 2) = 496 monomials: the series raises the monomials of one
        degree into the next, and never runs over all exponent tuples."""
        labels = tuple(f"v{k + 1}" for k in range(30))
        a = [[Fraction(2, 3)]]
        bs = [[[Fraction(k % 5 - 2 or 1, k % 3 + 1)]] for k in range(30)]
        pencil = AffinePencil.from_rationals(a, bs, labels)
        got = invert_affine_pencil(pencil, 2)
        assert len(got[0][0].terms) == 496
        assert same(got[0][0], naive_pencil_inverse(a, bs, labels, 2)[0][0])
        assert pencil_product_defect(pencil, got, 2) == []


# -- the block split against the single-table Laplace of the whole matrix ------

BLOCK_TRIALS = 40


def rand_block_sizes(rng, n):
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(3, n - sum(sizes))))
    return sizes


def scatter_blocks(rng, n, blocks, zero):
    """The blocks on the diagonal of an n x n matrix of ``zero``, then rows
    and columns each shuffled by a random permutation."""
    mat = [[zero] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            mat[at + i][at:at + len(row)] = row
        at += len(block)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[mat[i][j] for j in cols] for i in rows]


def unit_block(rng, size, unit, entry, zero, one):
    """L * U: L unit lower triangular, U upper triangular with ``unit()`` on
    its diagonal, the other triangular entries ``entry()`` or zero."""
    lower = [[one if i == j else entry() if i > j and rng.random() < 0.6 else zero
              for j in range(size)] for i in range(size)]
    upper = [[unit() if i == j else entry() if i < j and rng.random() < 0.6 else zero
              for j in range(size)] for i in range(size)]
    return matmul(lower, upper)


def rand_unit_entry(rng):
    """A rational times a Fourier mode times pi^e: a unit of the ring."""
    mode = RingElement.fourier_mode(JET_CHART, {"y": rng.randint(-1, 1)})
    return mode.scale(Scalar.pi_power(rng.randint(-1, 1), rand_fraction(rng, 1, 3)))


def rand_block_entry(rng):
    """An entry in x, y and the fibre p, with pi-powers, exact or a jet."""
    e = rand_ring(rng, JET_CHART, max_xdeg=1, max_mode=1, max_ydeg=2, nterms=2, real=False)
    e = e.scale(Scalar.pi_power(rng.randint(0, 1)))
    jet = rng.choice((None, None, None, 1, 2))
    return e if jet is None else e.truncate(jet)


def block_ring_matrix(rng, n):
    zero, one = RingElement.zero(JET_CHART), RingElement.one(JET_CHART)
    blocks = [
        unit_block(rng, size, lambda: rand_unit_entry(rng), lambda: rand_block_entry(rng),
                   zero, one)
        for size in rand_block_sizes(rng, n)
    ]
    return scatter_blocks(rng, n, blocks, zero)


def block_scalar_matrix(rng, n):
    zero, one = Scalar.zero(), Scalar.one()
    blocks = [
        unit_block(rng, size,
                   lambda: Scalar.pi_power(rng.randint(-1, 2), rand_fraction(rng, 1, 3)),
                   lambda: rand_pi_scalar(rng) + rand_pi_scalar(rng), zero, one)
        for size in rand_block_sizes(rng, n)
    ]
    return scatter_blocks(rng, n, blocks, zero)


def agrees_through_reference_jet(got, ref):
    """``got`` equals ``ref`` through ref's jet order; both exact, identical."""
    if ref.jet_order is None:
        return same(got, ref)
    return same(got.truncate(ref.jet_order), ref)


class TestBlockSplitAgainstReference:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ring_det_and_inverse_match_the_full_expansion(self, n):
        rng = rng_for(f"block-ring-{n}")
        zero = RingElement.zero(JET_CHART)
        jets = 0
        for _ in range(BLOCK_TRIALS // 4):
            mat = block_ring_matrix(rng, n)
            jets += any(e.jet_order is not None for row in mat for e in row)
            assert same(ring_det(mat), reference.det(mat, zero))
            got, ref = ring_matrix_inverse(mat), reference.ring_inverse(mat)
            assert all(agrees_through_reference_jet(g, r)
                       for grow, rrow in zip(got, ref) for g, r in zip(grow, rrow))
            if all(e.jet_order is None for row in mat for e in row):
                assert got == ref
        assert n < 3 or jets

    @pytest.mark.parametrize("n", range(1, 9))
    def test_scalar_det_and_inverse_match_the_full_expansion(self, n):
        rng = rng_for(f"block-scalar-{n}")
        for _ in range(BLOCK_TRIALS // 4):
            mat = block_scalar_matrix(rng, n)
            assert scalar_det(mat).terms == reference.det(mat, Scalar.zero()).terms
            assert scalar_matrix_inverse(mat) == reference.scalar_inverse(mat)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_structurally_singular_determinant_is_the_exact_zero(self, n):
        """A block with more rows than columns: the determinant is zero with
        no jet order, where the full expansion may keep a zero jet."""
        rng = rng_for(f"block-singular-{n}")
        zero = RingElement.zero(JET_CHART)
        zero_jets = 0
        for _ in range(BLOCK_TRIALS // 4):
            rows = rng.randint(1, n - 1)
            cols = rng.randint(0, rows - 1)  # rows > cols, the rest is square
            tall = [[rand_block_entry(rng) for _ in range(cols)] for _ in range(rows)]
            rest = [[rand_block_entry(rng) for _ in range(n - cols)] for _ in range(n - rows)]
            mat = [[zero] * n for _ in range(n)]
            for i, row in enumerate(tall):
                mat[i][:cols] = row
            for i, row in enumerate(rest):
                mat[rows + i][cols:] = row
            order = list(range(n))
            rng.shuffle(order)
            mat = [mat[i] for i in order]
            det = ring_det(mat)
            assert det.terms == () and det.jet_order is None
            full = reference.det(mat, zero)
            assert full.terms == ()
            zero_jets += full.jet_order is not None
            with pytest.raises(DegenerateBivectorError):
                ring_matrix_inverse(mat)
        assert zero_jets

    def test_zero_row_and_zero_column_are_singular(self):
        one = Scalar.one()
        for mat in ([[one, one], [Scalar.zero()] * 2], [[one, Scalar.zero()]] * 2):
            assert scalar_det(mat) == Scalar.zero()
            with pytest.raises(DegenerateBivectorError):
                scalar_matrix_inverse(mat)

    def test_block_signs_follow_the_permutation(self):
        """Antidiagonal units: det = sign(reversal) * product of the entries."""
        for n in range(1, 9):
            mat = [[Scalar.of(i + 1) if i + j == n - 1 else Scalar.zero()
                    for j in range(n)] for i in range(n)]
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            assert scalar_det(mat) == Scalar.of(sign * math.factorial(n))
            assert scalar_det(mat) == reference.det(mat, Scalar.zero())


def test_gotay_inverse_takes_at_most_n_squared_dots(monkeypatch):
    """The 14 x 14 Gotay matrix of T^6 x T^4 splits into 1 x 1 blocks; the
    whole-matrix expansion took 1469 ``dot`` calls."""
    mat = [[e.at_zero_fibre() for e in row]
           for row in torus_gotay_form(3, 4).coefficient_matrix()]
    calls = []
    original = RingElement.dot.__func__

    def counting(cls, products):
        calls.append(1)
        return original(cls, products)

    monkeypatch.setattr(RingElement, "dot", classmethod(counting))
    inv = ring_matrix_inverse(mat)
    assert len(mat) == 14 and len(calls) <= 14 * 14
    monkeypatch.undo()
    assert inv == reference.ring_inverse(mat)


# -- the block-by-block Neumann series against the whole-matrix series ---------


def fibre_affine_block(rng, size, flat):
    """A + Y on one block: A a unit block in x, y with Fourier modes and
    pi-powers, Y = p * (base entries) on part of the block's pattern, or
    Y = 0 when ``flat``."""
    zero, one = RingElement.zero(JET_CHART), RingElement.one(JET_CHART)
    a = unit_block(rng, size, lambda: rand_unit_entry(rng),
                   lambda: rand_unit_entry(rng) + rand_unit_entry(rng), zero, one)
    p = RingElement.coordinate(JET_CHART, "p")
    out = []
    for row in a:
        out_row = []
        for e in row:
            if not flat and rng.random() < 0.6:
                base = rand_ring(rng, JET_CHART, max_xdeg=1, max_mode=1, max_ydeg=0,
                                 nterms=2, real=False)
                e = e + p * base.scale(Scalar.pi_power(rng.randint(-1, 1)))
            out_row.append(e)
        out.append(out_row)
    return out


def fibre_affine_matrix(rng, n):
    """A randomly permuted block-diagonal fibre-affine matrix with blocks of
    size 1-3, one of them with Y = 0 when there are two or more."""
    sizes = rand_block_sizes(rng, n)
    flat = rng.randrange(len(sizes)) if len(sizes) > 1 else None
    blocks = [fibre_affine_block(rng, size, k == flat) for k, size in enumerate(sizes)]
    return scatter_blocks(rng, n, blocks, RingElement.zero(JET_CHART))


def with_one_jet(rng, m):
    """``m`` with one entry, zero or not, made a jet of order 0, 1 or 2."""
    i, j = rng.randrange(len(m)), rng.randrange(len(m))
    m = [list(row) for row in m]
    m[i][j] = m[i][j].truncate(rng.choice((0, 1, 2)))
    return m


class TestBlockNeumannAgainstReference:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_entry_matches_the_whole_matrix_series(self, n):
        rng = rng_for(f"block-neumann-{n}")
        series = 0
        for trial in range(8):
            m = fibre_affine_matrix(rng, n)
            if trial % 4 == 3:
                m = with_one_jet(rng, m)
            order = trial % 5
            got, ref = _neumann_inverse(m, order), reference.neumann_inverse(m, order)
            for grow, rrow in zip(got, ref):
                for g, r in zip(grow, rrow):
                    assert g.terms == r.terms and g.jet_order == r.jet_order
            series += any(not e.is_base_only() for row in got for e in row)
        assert series
