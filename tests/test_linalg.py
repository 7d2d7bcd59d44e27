"""Exact matrix inversion and determinants over scalars and ring elements."""

from fractions import Fraction

import pytest

from coisokit import RingElement, Scalar, make_chart
from coisokit._linalg import (
    ring_det,
    ring_matrix_inverse,
    scalar_det,
    scalar_matrix_inverse,
)
from coisokit.errors import DegenerateBivectorError, NonInvertibleScalarError

from conftest import rand_fraction, rand_ring, rng_for

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
