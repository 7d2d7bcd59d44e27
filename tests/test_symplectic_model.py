"""Gotay models, exact pencil inversion, symplectic-to-Poisson conversion."""

import itertools
import os
from fractions import Fraction

import pytest

import linalg_reference as reference
from conftest import rand_fraction, rng_for, torus_gotay_form
from coisokit import (
    AffinePencil,
    ChartMismatchError,
    DegenerateBivectorError,
    DifferentialForm,
    JetOrderError,
    MultiVectorField,
    NonAffineFibreError,
    PencilError,
    PresymplecticData,
    PresymplecticError,
    RingElement,
    Scalar,
    SubbundleSpec,
    de_rham_d,
    fibrewise_degree_classify,
    gotay_local_model,
    invert_affine_pencil,
    is_in_omega_le,
    make_chart,
    parse_pencil_text,
    pencil_product_defect,
    projection_P,
    pullback_zero_section,
    schouten_bracket,
    symplectic_to_poisson,
)
from coisokit import symplectic_model
from coisokit._linalg import mat_mul, ring_det
from coisokit.cli import parse_scenario

DATA = os.path.join(os.path.dirname(__file__), "data")


def torus_base(names):
    return make_chart(" ".join(f"{n}*" for n in names))


class TestGotayModel:
    def test_zero_form_gives_cotangent_model(self):
        # omega_C = 0 on T^2 with F = TC: Omega is the canonical pairing
        base = torus_base(["q1", "q2"])
        data = PresymplecticData(
            base, DifferentialForm.zero(base, 2), SubbundleSpec(("q1", "q2"))
        )
        model = gotay_local_model(data)
        assert model.chart.fibre == ("p1", "p2")
        one = RingElement.one(model.chart)
        expected = DifferentialForm(model.chart, 2, (((0, 2), one), ((1, 3), one)))
        assert model.omega == expected

    def test_t4_model(self):
        base = torus_base(["y1", "y2", "q1", "q2"])
        omega_c = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        data = PresymplecticData(base, omega_c, SubbundleSpec(("q1", "q2")))
        model = gotay_local_model(data)
        chart = model.chart
        assert chart.fibre == ("p1", "p2")
        one = RingElement.one(chart)
        expected = DifferentialForm(
            chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))
        )
        assert model.omega == expected

    def test_t3_model(self):
        base = torus_base(["y1", "y2", "q"])
        omega_c = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        data = PresymplecticData(base, omega_c, SubbundleSpec(("q",)))
        model = gotay_local_model(data)
        assert model.chart.fibre == ("p",)
        one = RingElement.one(model.chart)
        expected = DifferentialForm(model.chart, 2, (((0, 1), one), ((2, 3), one)))
        assert model.omega == expected
        mat = model.omega.coefficient_matrix()
        assert not ring_det([[c for c in row] for row in mat]).is_zero()

    def test_postconditions(self):
        for names, kernel, coeff_dirs in (
            (["y1", "y2", "q1", "q2"], ("q1", "q2"), (0, 1)),
            (["y1", "y2", "q"], ("q",), (0, 1)),
        ):
            base = torus_base(names)
            omega_c = DifferentialForm(
                base, 2, ((coeff_dirs, RingElement.one(base)),)
            )
            data = PresymplecticData(base, omega_c, SubbundleSpec(kernel))
            model = gotay_local_model(data)
            assert pullback_zero_section(model.omega) == omega_c
            assert fibrewise_degree_classify(model.omega) <= {0, 1}

    def test_non_closed_form_rejected(self):
        base = torus_base(["y1", "y2", "q"])
        omega_c = DifferentialForm(
            base, 2, (((0, 1), RingElement.sin_of(base, {"q": 1})),)
        )
        with pytest.raises(PresymplecticError):
            PresymplecticData(base, omega_c, SubbundleSpec(("q",)))

    def test_wrong_kernel_rejected(self):
        base = torus_base(["y1", "y2", "q"])
        omega_c = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        with pytest.raises(PresymplecticError):
            PresymplecticData(base, omega_c, SubbundleSpec(("y1",)))

    @pytest.mark.parametrize("kernel", [("q1", "q1"), ("q1", "q2", "q1"), ("q2", "q2", "q2")])
    def test_repeated_kernel_direction_is_named(self, kernel):
        # without the check q1 pairs with both p1 and p_q1, and the model's
        # degeneracy is reported as a fault of the form
        base = torus_base(["y1", "y2", "q1", "q2"])
        omega_c = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        with pytest.raises(PresymplecticError) as err:
            PresymplecticData(base, omega_c, SubbundleSpec(kernel))
        assert str(err.value) == f"kernel direction {kernel[0]!r} is repeated"

    @pytest.mark.parametrize("k, r", list(itertools.product((1, 2, 3), (2, 3, 4))))
    def test_one_constructor_equals_the_pairs_added_one_at_a_time(self, k, r):
        names = [f"y{i + 1}" for i in range(2 * k)] + [f"q{j + 1}" for j in range(r)]
        base = torus_base(names)
        one = RingElement.one(base)
        omega_c = DifferentialForm(base, 2, (((2 * i, 2 * i + 1), one) for i in range(k)))
        kernel = SubbundleSpec(tuple(names[2 * k:]))
        model = gotay_local_model(PresymplecticData(base, omega_c, kernel))
        chart = model.chart
        want = DifferentialForm(chart, 2, ((d, c.extend_to(chart)) for d, c in omega_c.terms))
        for j in range(r):
            pair = ((2 * k + j, len(names) + j), RingElement.one(chart))
            want = want + DifferentialForm(chart, 2, (pair,))
        assert model.omega == want and model.omega.render() == want.render()
        assert model.fibre_for == tuple((f"q{j + 1}", f"p{j + 1}") for j in range(r))

    @pytest.mark.parametrize("names, kernel, fibre", [
        (["y1", "y2", "x"], ("x",), ("p_x",)),
        (["y1", "y2", "x", "p_x"], ("x", "p_x"), ("p_x_", "p_p_x")),
        (["y1", "y2", "q", "p"], ("q", "p"), ("p_q", "p_p")),
    ], ids=["plain", "p_x_taken", "p_taken"])
    def test_fibre_name_of_a_direction_without_its_p(self, names, kernel, fibre):
        """A kernel direction that is not q... is paired with p_<name>, and
        so is q when p is taken; a taken p_<name> gets a trailing '_'."""
        base = torus_base(names)
        omega_c = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        model = gotay_local_model(PresymplecticData(base, omega_c, SubbundleSpec(kernel)))
        assert model.chart.fibre == fibre
        assert model.fibre_for == tuple(zip(kernel, fibre))
        assert pullback_zero_section(model.omega) == omega_c


class TestGotaySplitReuse:
    """A Gotay model's Omega keeps the block split of its matrix at y = 0,
    which its inversion reuses; a form built any other way carries none."""

    @pytest.fixture
    def splits(self, monkeypatch):
        from coisokit import _linalg

        original = _linalg._split
        seen = []

        def counting(mat, zero):
            seen.append(len(mat))
            return original(mat, zero)

        monkeypatch.setattr(_linalg, "_split", counting)
        monkeypatch.setattr(symplectic_model, "_split", counting)
        return seen

    @pytest.mark.parametrize("k, r", [(1, 2), (2, 3), (3, 4)])
    def test_inverting_a_model_splits_its_matrix_once(self, splits, k, r):
        omega = torus_gotay_form(k, r)
        assert splits == [2 * (k + r)]
        pi = symplectic_to_poisson(omega)
        assert splits == [2 * (k + r)]
        plain = DifferentialForm(omega.chart, 2, omega.terms)
        assert plain == omega and not hasattr(plain, "zero_split")
        assert symplectic_to_poisson(plain) == pi
        assert len(splits) == 2
        # arithmetic builds plain forms
        assert not hasattr(omega + plain, "zero_split")

    def test_scenario_splits_each_model_once(self, splits):
        text = ("chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2)\n"
                "omega = gotay(dy1/\\dy2, q1, q2)\npi = inv_form(omega)\n")
        scenario = parse_scenario(text)
        assert splits == [6]
        assert scenario.bindings["pi"].render() == "@y1 /\\ @y2 + @q1 /\\ @p1 + @q2 /\\ @p2"

    def test_a_model_and_its_plain_copy_raise_the_same_messages(self):
        base = torus_base(["y1", "y2", "q"])
        one_plus_pi = RingElement.constant(base, 1) + RingElement.constant(base, Scalar.pi_power(1))
        omega_c = DifferentialForm(base, 2, (((0, 1), one_plus_pi),))
        model = gotay_local_model(PresymplecticData(base, omega_c, SubbundleSpec(("q",))))
        message = ("form is not exactly invertible at y = 0: cannot invert "
                   "Scalar((1 + 2*pi + pi^2)): not a single pi-power term")
        for omega in (model.omega, DifferentialForm(model.chart, 2, model.omega.terms)):
            with pytest.raises(DegenerateBivectorError) as err:
                symplectic_to_poisson(omega)
            assert str(err.value) == message
        # q2 is in the kernel of omega_C but not declared
        base = torus_base(["y1", "y2", "q1", "q2"])
        omega_c = DifferentialForm(base, 2, (((0, 1), RingElement.one(base)),))
        with pytest.raises(DegenerateBivectorError) as err:
            gotay_local_model(PresymplecticData(base, omega_c, SubbundleSpec(("q1",))))
        assert str(err.value) == "form is degenerate along the zero section"


class TestGotayNondegeneracy:
    """A non-constant determinant at y = 0 is sampled on the base for zeros."""

    @staticmethod
    def model(coeff):
        base = torus_base(["y1", "y2", "q"])
        omega_c = DifferentialForm(base, 2, (((0, 1), coeff(base)),))
        return gotay_local_model(PresymplecticData(base, omega_c, SubbundleSpec(("q",))))

    @pytest.fixture
    def grids(self, monkeypatch):
        from coisokit import symplectic_model

        seen = []
        original = symplectic_model.sample_grid

        def recording(chart, names, per_axis=32):
            seen.append((tuple(names), per_axis))
            return original(chart, names, per_axis)

        monkeypatch.setattr(symplectic_model, "sample_grid", recording)
        return seen

    def test_zero_of_the_determinant_names_the_first_point(self, grids):
        with pytest.raises(DegenerateBivectorError) as err:
            self.model(lambda c: RingElement.cos_of(c, {"y2": 1}))
        assert str(err.value) == "form is numerically degenerate at (0.0, 0.25, 0.0, 0.0)"
        assert grids == [(("y2",), 8)]

    def test_determinant_without_zeros_passes_the_sampling(self, grids):
        model = self.model(
            lambda c: RingElement.constant(c, 2) + RingElement.cos_of(c, {"y1": 1})
        )
        assert model.chart.fibre == ("p",)
        assert grids == [(("y1",), 8)]


class TestPencilInversion:
    def test_all_b_zero_gives_exact_inverse(self):
        rng = rng_for("pencil-azero")
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        a[0][0] += Fraction(7)  # nudge away from singularity
        pencil = AffinePencil.from_rationals(
            a, [[[0] * 3 for _ in range(3)]], ("v1",)
        )
        inv = invert_affine_pencil(pencil, 4)
        assert pencil_product_defect(pencil, inv, 10) == []
        assert all(e.is_base_only() or e.is_zero() for row in inv for e in row)

    def test_scalar_geometric_series(self):
        pencil = AffinePencil.from_rationals([[1]], [[[1]]], ("v1",))
        inv = invert_affine_pencil(pencil, 3)
        chart = inv[0][0].chart
        v = RingElement.coordinate(chart, "v1")
        expected = (
            RingElement.one(chart) - v + v ** 2 - v ** 3
        ).truncate(3)
        assert inv[0][0] == expected

    def test_random_4x4_identity_to_order_six(self):
        rng = rng_for("pencil-4x4")
        done = 0
        while done < 5:
            a = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
            from coisokit._linalg import scalar_det

            if scalar_det([[Scalar.of(x) for x in row] for row in a]).is_zero():
                continue
            bs = [
                [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
                for _ in range(2)
            ]
            pencil = AffinePencil.from_rationals(a, bs, ("v1", "v2"))
            inv = invert_affine_pencil(pencil, 6)
            assert pencil_product_defect(pencil, inv, 6) == []
            done += 1

    def test_prefix_stability(self):
        rng = rng_for("pencil-prefix")
        a = [[Fraction(rng.randint(1, 3)) if i == j else Fraction(rng.randint(-1, 1)) for j in range(3)] for i in range(3)]
        bs = [[[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]]
        pencil = AffinePencil.from_rationals(a, bs, ("v1",))
        lo = invert_affine_pencil(pencil, 3)
        hi = invert_affine_pencil(pencil, 5)
        for i in range(3):
            for j in range(3):
                assert hi[i][j].truncate(3) == lo[i][j]

    def test_singular_a_rejected(self):
        with pytest.raises(PencilError):
            AffinePencil.from_rationals(
                [[1, 1], [1, 1]], [[[0, 0], [0, 0]]], ("v1",)
            )

    def test_inexactly_invertible_a_is_a_pencil_error(self):
        # det A = 1 - pi is nonzero but has no exact inverse in the ring
        one, pi = Scalar.one(), Scalar.pi_power(1)
        zero = Scalar.zero()
        b = ((zero, zero), (zero, one))
        pencil = AffinePencil(((one, pi), (one, one)), (b,), ("v1",))
        with pytest.raises(PencilError) as err:
            invert_affine_pencil(pencil, 3)
        assert str(err.value) == ("constant part is not exactly invertible: "
                                  "determinant (1 + -1*pi) has no exact inverse in the ring")

    def test_defect_of_a_planted_error_matches_the_exact_product(self):
        rng = rng_for("pencil-planted")
        a = [[Fraction(rng.randint(-2, 2)) + (3 if i == j else 0) for j in range(3)]
             for i in range(3)]
        bs = [[[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
              for _ in range(2)]
        pencil = AffinePencil.from_rationals(a, bs, ("v1", "v2"))
        inv = [list(row) for row in invert_affine_pencil(pencil, 4)]
        chart = inv[0][0].chart
        v1, v2 = (RingElement.coordinate(chart, n) for n in ("v1", "v2"))
        inv[0][1] = inv[0][1] + v1 * v2
        inv[2][2] = inv[2][2] - v2 ** 4
        # reference: the exact product M * inverse - I, cut to degree <= order
        m = [[RingElement.constant(chart, Scalar.of(a[i][j]))
              + sum((RingElement.constant(chart, Scalar.of(b[i][j])) * v
                     for b, v in zip(bs, (v1, v2))), RingElement.zero(chart))
              for j in range(3)] for i in range(3)]
        for order in (2, 4, 6):
            expected = []
            for i in range(3):
                for j in range(3):
                    exact = sum(
                        (m[i][k] * inv[k][j].without_truncation() for k in range(3)),
                        RingElement.zero(chart),
                    ) - (1 if i == j else 0)
                    low = RingElement(chart, exact.terms, order)
                    if not low.is_zero():
                        expected.append(((i, j), low))
            assert pencil_product_defect(pencil, inv, order) == expected
            assert expected  # the planted terms show at every order

    def test_negative_order_is_a_jet_order_error(self):
        """Order -1 gave a matrix of zero jets, and a defect check at -1
        compared nothing, so even the zero matrix passed as the inverse."""
        pencil = AffinePencil.from_rationals([[2, 1], [1, 1]], [[[1, 0], [0, -1]]], ("v1",))
        with pytest.raises(JetOrderError, match="pencil order -1 < 0"):
            invert_affine_pencil(pencil, -1)
        inv = invert_affine_pencil(pencil, 0)
        zero = RingElement.zero(inv[0][0].chart)
        for candidate in (inv, [[zero, zero], [zero, zero]]):
            with pytest.raises(JetOrderError, match="pencil order -1 < 0"):
                pencil_product_defect(pencil, candidate, -1)
        assert pencil_product_defect(pencil, inv, 0) == []
        assert len(pencil_product_defect(pencil, [[zero, zero], [zero, zero]], 0)) == 2

    @pytest.mark.parametrize("unit, expected", [
        (Scalar.pi_power(1), ("pi^-1 + pi^-2*v1^2", "-pi^-1*v1 - pi^-2*v1^3")),
        (Scalar.imag_unit(), ("-i - v1^2", "i*v1 + v1^3")),
    ])
    def test_pi_and_i_entries_are_inverted_over_the_ring(self, unit, expected):
        """An entry with a pi power or an i is its own Scalar numerator; a
        series that read only the rational part of each entry would invert
        diag(1, 1) here."""
        one, zero = Scalar.one(), Scalar.zero()
        pencil = AffinePencil(((unit, zero), (zero, one)), (((zero, one), (one, zero)),), ("v1",))
        inv = invert_affine_pencil(pencil, 3)
        assert (inv[0][0].render(), inv[0][1].render()) == expected
        assert all(e.jet_order == 3 for row in inv for e in row)
        assert pencil_product_defect(pencil, inv, 3) == []

    def test_no_pencil_takes_a_ring_product(self, monkeypatch):
        """The series of a pencil and its defect check run on numerator
        matrices, with no ``RingElement.dot``: ints for a rational pencil,
        Scalars for the entries of one with a pi or an i."""
        calls = []
        original = RingElement.dot.__func__

        def counting(cls, products):
            calls.append(1)
            return original(cls, products)

        monkeypatch.setattr(RingElement, "dot", classmethod(counting))
        rational = AffinePencil.from_rationals(
            [[2, 1], [1, Fraction(1, 3)]], [[[1, 0], [0, -1]], [[0, Fraction(1, 2)], [1, 0]]],
            ("v1", "v2"))
        inv = invert_affine_pencil(rational, 6)
        assert len(inv[0][0].terms) > 1
        assert pencil_product_defect(rational, inv, 6) == []
        assert len(pencil_product_defect(rational, inv, 8)) == 4
        assert calls == []
        one, zero = Scalar.one(), Scalar.zero()
        for unit in (Scalar.pi_power(1), Scalar.imag_unit()):
            pencil = AffinePencil(((unit, zero), (zero, one)),
                                  (((zero, one), (one, zero)),), ("v1",))
            inv = invert_affine_pencil(pencil, 3)
            assert len(inv[0][0].terms) > 1
            assert pencil_product_defect(pencil, inv, 3) == []
            assert len(pencil_product_defect(pencil, inv, 5)) == 2
            assert calls == []

    @staticmethod
    def ring_matrix(pencil, chart):
        """M(lambda) = A + sum_k lambda_k B_k as a ring matrix on ``chart``,
        which has a coordinate for each label."""
        lams = [RingElement.coordinate(chart, v) for v in pencil.labels]
        n = pencil.size
        return [[sum((lam.scale(b[i][j]) for lam, b in zip(lams, pencil.b)),
                     RingElement.constant(chart, pencil.a[i][j]))
                 for j in range(n)] for i in range(n)]

    @classmethod
    def ring_inverse(cls, pencil, order):
        """The reference: the whole-matrix Neumann series of M(lambda) over
        the ring, each entry cut to ``order``."""
        chart = make_chart("", " ".join(pencil.labels))
        total = reference.neumann_inverse(cls.ring_matrix(pencil, chart), order)
        return tuple(tuple(e.truncate(order) for e in row) for row in total)

    @classmethod
    def ring_defect(cls, pencil, inverse, order):
        """The reference: the exact product M * inverse - I through ``mat_mul``,
        each nonzero entry cut to its terms through ``order``."""
        chart = inverse[0][0].chart
        n = pencil.size
        m = cls.ring_matrix(pencil, chart)
        exact = mat_mul(m, [[e.without_truncation() for e in row] for row in inverse])
        expected = []
        for i in range(n):
            for j in range(n):
                low = RingElement(chart, (exact[i][j] - (1 if i == j else 0)).terms, order)
                if not low.is_zero():
                    expected.append(((i, j), low))
        return expected

    @staticmethod
    def random_pencil(rng, n, k, where=()):
        """An n x n pencil with k blocks of small rationals; about one block
        in three is all zero.

        ``where`` names the parts, "a" and "b", that get pi powers and i:
        A becomes D A U, with D diagonal of units (pi, 2/pi, i, 1) and U unit
        upper triangular with entries such as 1/2 + pi, so det A stays one
        pi-power term and A^{-1} has sums of pi powers; a nonzero entry of a
        B_k is scaled by such a Scalar with probability 1/2."""
        units = (Scalar.pi_power(1), Scalar.pi_power(-1, 2), Scalar.imag_unit(), Scalar.one())
        mixed = lambda: Scalar.of(rand_fraction(rng)) + rng.choice(units[:3])
        labels = tuple(f"v{i + 1}" for i in range(k))
        while True:
            a = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            bs = [[[rand_fraction(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
                   for _ in range(n)] if rng.random() < 0.7 else [[0] * n for _ in range(n)]
                  for _ in range(k)]
            try:
                pencil = AffinePencil.from_rationals(a, bs, labels)
            except PencilError:
                continue
            a, bs = pencil.a, pencil.b
            if "a" in where:
                d = [rng.choice(units) for _ in range(n)]
                u = [[Scalar.one() if i == j else mixed() if i < j and rng.random() < 0.6
                      else Scalar.zero() for j in range(n)] for i in range(n)]
                a = tuple(tuple(sum((d[i] * a[i][m] * u[m][j] for m in range(n)), Scalar.zero())
                                for j in range(n)) for i in range(n))
            if "b" in where:
                bs = tuple(tuple(tuple(e * mixed() if e and rng.random() < 0.5 else e for e in row)
                                 for row in bk) for bk in bs)
            return AffinePencil(a, bs, labels)

    @staticmethod
    def plant(rng, inverse, coeffs=(Fraction(1, 3), -2, Fraction(5, 7))):
        """``inverse`` with one to three terms added at random entries, each a
        random monomial in the chart's fibre coordinates of degree 0-9 (the
        entry made exact, so a term above its jet order stays)."""
        inv = [list(row) for row in inverse]
        chart = inv[0][0].chart
        n = len(inv)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            term = RingElement.constant(chart, rng.choice(coeffs))
            for _ in range(rng.randint(0, 9)):
                if chart.fibre:
                    term = term * RingElement.coordinate(chart, rng.choice(chart.fibre))
            inv[i][j] = inv[i][j].without_truncation() + term
        return inv

    @pytest.mark.parametrize("where", [(), ("a",), ("b",), ("a", "b")],
                             ids=["rational", "pi_i_in_a", "pi_i_in_b", "pi_i_in_both"])
    def test_defect_is_the_exact_product_on_random_pencils(self, where):
        """Sizes 1-5 with 0-3 blocks (some all zero), inverted at orders
        0-8 and checked at orders 0-8, as inverted and with planted terms;
        60 rational pencils, and 20 with pi powers and i in A, in the B_k
        or in both (sizes 1-4, orders 0-5).  The inverse is the ring's
        Neumann series and the defect the ring product."""
        rng = rng_for("pencil-defect-differential" + "-".join(("",) + where))
        planted_seen = 0
        count, size, top, seen = (60, 5, 8, 40) if not where else (20, 4, 5, 10)
        for _ in range(count):
            n, k = rng.randint(1, size), rng.randint(0, 3)
            pencil = self.random_pencil(rng, n, k, where)
            inv_order = rng.randint(0, top if k < 3 else 5)
            inverse = invert_affine_pencil(pencil, inv_order)
            assert inverse == self.ring_inverse(pencil, inv_order)
            candidates = [inverse, self.plant(rng, inverse)]
            for inv in candidates:
                order = rng.randint(0, top if k < 3 else 5)
                expected = self.ring_defect(pencil, inv, order)
                got = pencil_product_defect(pencil, inv, order)
                assert got == expected and repr(got) == repr(expected)
                assert all(e.jet_order == order for _, e in got)
            planted_seen += bool(expected)
        assert planted_seen > seen

    def test_numerator_products_are_the_sums_of_products(self):
        """An entry whose row and column hold ints is an int; one that meets
        a Scalar numerator is the same Scalar as the sum of its products."""
        rng = rng_for("numerator-products")
        pi, i = Scalar.pi_power(1), Scalar.imag_unit()
        for _ in range(40):
            n = rng.randint(1, 4)
            draw = lambda: [[rng.choice((0, 0, rng.randint(-5, 5), rng.choice((pi, i, pi + i, -pi * pi))))
                             if rng.random() < 0.3 else rng.randint(-5, 5) for _ in range(n)]
                            for _ in range(n)]
            a, b = draw(), draw()
            got = symplectic_model._scalar_mat_mul(a, b)
            for row, got_row in zip(a, got):
                for col, x in zip(zip(*b), got_row):
                    want = sum(p * q for p, q in zip(row, col))
                    if all(type(v) is int for v in row + list(col)):
                        assert type(x) is int and x == want
                    else:
                        assert isinstance(x, Scalar) and x == Scalar.of(want)

    @pytest.mark.parametrize("corner", [Scalar.one(), Scalar.pi_power(1)], ids=["rational", "pi"])
    def test_nilpotent_pencil_series_ends_at_degree_one(self, corner):
        """A = diag(corner, 1), B = [[0, 1], [0, 0]]: X = -A^{-1} B squares to
        zero, so every P_alpha of degree >= 2 is zero and the series stops."""
        zero, one = Scalar.zero(), Scalar.one()
        pencil = AffinePencil(((corner, zero), (zero, one)), (((zero, one), (zero, zero)),), ("v1",))
        inv = invert_affine_pencil(pencil, 4)
        assert inv == self.ring_inverse(pencil, 4)
        v1 = RingElement.coordinate(inv[0][0].chart, "v1")
        assert inv[0][1] == (-v1).scale(corner.inverse()).truncate(4)
        assert max(sum(alpha) for row in inv for e in row for _, _, alpha, _ in e.terms) == 1
        for order in (0, 1, 4, 8):
            assert pencil_product_defect(pencil, inv, order) == []

    def test_defect_of_an_inverse_with_pi_or_i_terms_is_the_exact_product(self):
        """A rational pencil with an inverse that is not rational through the
        order: the pi and i terms are Scalar numerators of the check, and a
        pi term above the order is not read."""
        rng = rng_for("pencil-defect-pi-inverse")
        for unit in (Scalar.pi_power(1), Scalar.imag_unit(), Scalar.pi_power(-2, 3)):
            pencil = self.random_pencil(rng, 3, 2)
            inverse = invert_affine_pencil(pencil, 4)
            inv = self.plant(rng, inverse, coeffs=(unit,))
            for order in (0, 3, 4, 6):
                assert pencil_product_defect(pencil, inv, order) == self.ring_defect(pencil, inv, order)
        high = [list(row) for row in inverse]
        v1 = RingElement.coordinate(high[0][0].chart, "v1")
        high[1][1] = high[1][1].without_truncation() + (v1 ** 5).scale(Scalar.pi_power(1))
        assert pencil_product_defect(pencil, high, 4) == []
        assert pencil_product_defect(pencil, high, 5) == self.ring_defect(pencil, high, 5) != []

    @pytest.mark.parametrize("base, fibre", [("x q*", "w v1 v2"), ("v1 q*", "v2 w")])
    def test_defect_of_an_inverse_on_a_wider_chart(self, base, fibre):
        """The inverse lives on a chart with more coordinates than the labels:
        terms with other base monomials, Fourier modes and fibre coordinates
        are checked as the ring product checks them, with a label that is a
        fibre coordinate or a polynomial base coordinate, and every entry
        moved to the wide chart."""
        rng = rng_for(f"pencil-defect-wide-{base}-{fibre}")
        wide = make_chart(base, fibre)
        x = RingElement.coordinate(wide, wide.base[0])
        w = RingElement.coordinate(wide, "w")
        wave = RingElement.cos_of(wide, {"q": 1})
        for _ in range(6):
            pencil = self.random_pencil(rng, rng.randint(1, 4), 2)
            order = rng.randint(0, 6)
            inverse = invert_affine_pencil(pencil, order)
            lams = [RingElement.coordinate(wide, v) for v in pencil.labels]
            inv = []
            for row in inverse:
                out = []
                for e in row:
                    moved = RingElement.zero(wide)
                    for _, _, alpha, s in e.terms:
                        mono = RingElement.constant(wide, s)
                        for lam, a in zip(lams, alpha):
                            mono = mono * lam ** a
                        moved = moved + mono
                    out.append(RingElement(wide, moved.terms, e.jet_order))
                inv.append(out)
            expected = self.ring_defect(pencil, inv, order)
            assert pencil_product_defect(pencil, inv, order) == expected
            # a jet bounds the fibre degree only, so with v1 in the base the
            # series in v1 is cut where the jet claims to know it
            assert expected == [] or "v1" not in fibre.split()
            inv[0][-1] = inv[0][-1] + x * wave.scale(Fraction(2, 3)) + w * lams[1]
            inv[-1][0] = inv[-1][0] - wave * lams[0] ** 2
            for check in (0, order, order + 2):
                expected = self.ring_defect(pencil, inv, check)
                assert expected and pencil_product_defect(pencil, inv, check) == expected

    def test_defect_of_entries_on_two_charts_is_a_chart_mismatch(self):
        for pencil in (
            AffinePencil.from_rationals([[2, 1], [1, 1]], [[[1, 0], [0, -1]]], ("v1",)),
            AffinePencil(((Scalar.pi_power(1), Scalar.zero()), (Scalar.zero(), Scalar.one())),
                         (((Scalar.zero(),) * 2,) * 2,), ("v1",)),
        ):
            inv = [list(row) for row in invert_affine_pencil(pencil, 3)]
            other = make_chart("x", "v1")
            inv[1][0] = RingElement.zero(other)
            with pytest.raises(ChartMismatchError):
                pencil_product_defect(pencil, inv, 3)

    def test_parse_pencil_text(self):
        text = "1 0\n0 1\n\n0 1\n1 0\n"
        pencil = parse_pencil_text(text)
        assert pencil.size == 2
        assert len(pencil.b) == 1
        assert pencil.labels == ("v1",)


class TestSymplecticToPoisson:
    def test_jet_model_takes_at_most_130_dots(self, monkeypatch):
        """The 6 x 6 matrix of a jet_pencil-style model splits into blocks,
        and the series runs only on the block whose Y is nonzero; the
        whole-matrix series took 482 ``dot`` calls at order 12."""
        chart = make_chart("x1 x2 q1 q2", "p1 p2")
        one = RingElement.one(chart)
        x2, p1 = RingElement.coordinate(chart, "x2"), RingElement.coordinate(chart, "p1")
        omega = DifferentialForm(chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))) + \
            de_rham_d(DifferentialForm(chart, 1, (((0,), p1 * x2),)))
        calls = []
        original = RingElement.dot.__func__

        def counting(cls, products):
            calls.append(1)
            return original(cls, products)

        monkeypatch.setattr(RingElement, "dot", classmethod(counting))
        pi = symplectic_to_poisson(omega, 12)
        assert pi.jet_order() == 12 and len(calls) <= 130

    def test_t4_constant_inverse(self):
        chart = make_chart("y1* y2* q1* q2*", "p1 p2")
        one = RingElement.one(chart)
        omega = DifferentialForm(
            chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))
        )
        pi = symplectic_to_poisson(omega)
        expected = MultiVectorField(
            chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))
        )
        assert pi == expected
        assert pi.jet_order() is None
        # an exact inverse needs no jet order, so order 0 is no error here
        assert symplectic_to_poisson(omega, 0) == expected
        assert projection_P(pi).is_zero()
        assert schouten_bracket(pi, pi).is_zero()

    def test_cylinder_pairing(self):
        # Omega = dq ^ dp on T^1 x R inverts to pi = @q ^ @p
        chart = make_chart("q*", "p")
        one = RingElement.one(chart)
        omega = DifferentialForm(chart, 2, (((0, 1), one),))
        pi = symplectic_to_poisson(omega)
        assert pi == MultiVectorField(chart, 2, (((0, 1), one),))

    def test_y_linear_jet(self):
        # closed form with genuine fibre dependence built as Omega0 + d(theta)
        chart = make_chart("x1 x2 q1 q2", "p1 p2")
        one = RingElement.one(chart)
        x2 = RingElement.coordinate(chart, "x2")
        p1 = RingElement.coordinate(chart, "p1")
        theta = DifferentialForm(chart, 1, (((0,), p1 * x2),))
        omega0 = DifferentialForm(
            chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one))
        )
        omega = omega0 + de_rham_d(theta)
        assert de_rham_d(omega).is_zero()
        assert is_in_omega_le(omega, 1)
        order = 4
        pi = symplectic_to_poisson(omega, order)
        assert pi.jet_order() == order
        with pytest.raises(JetOrderError):
            symplectic_to_poisson(omega, 0)
        # product identity M * (-pi) = I + O(y^{order+1}), checked exactly
        w = omega.coefficient_matrix()
        minus_pi = [
            [(-c).without_truncation() for c in row]
            for row in pi.coefficient_matrix()
        ]
        n = chart.n_dirs
        for i in range(n):
            for j in range(n):
                acc = RingElement.zero(chart)
                for k in range(n):
                    acc = acc + w[i][k] * minus_pi[k][j]
                if i == j:
                    acc = acc - RingElement.one(chart)
                assert acc.truncate(order).is_zero()
        # truncated Jacobi holds through the reliable order
        assert schouten_bracket(pi, pi).truncate(order - 1).is_zero()
        assert projection_P(pi).is_zero()

    def test_non_affine_rejected(self):
        chart = make_chart("x", "y")
        y = RingElement.coordinate(chart, "y")
        omega = DifferentialForm(chart, 2, (((0, 1), y ** 2),))
        with pytest.raises(NonAffineFibreError):
            symplectic_to_poisson(omega)

    def test_pi_reads_only_the_strict_upper_triangle(self, monkeypatch):
        """M^{-1} is antisymmetric, so pi is built from its entries above the
        diagonal, negated; what lies on or below the diagonal is not read."""
        omega = torus_gotay_form(1, 2)
        want = symplectic_to_poisson(omega)
        original = symplectic_model._neumann_inverse
        junk = RingElement.constant(omega.chart, 7)

        def with_junk_below(m, order, split=None):
            out = [list(row) for row in original(m, order, split)]
            for i, row in enumerate(out):
                row[: i + 1] = [junk] * (i + 1)
            return out

        monkeypatch.setattr(symplectic_model, "_neumann_inverse", with_junk_below)
        got = symplectic_to_poisson(omega)
        assert got == want
        assert got.render() == "@y1 /\\ @y2 + @q1 /\\ @p1 + @q2 /\\ @p2"

    def test_degenerate_rejected(self):
        chart = make_chart("x1 x2", "y1 y2")
        one = RingElement.one(chart)
        omega = DifferentialForm(chart, 2, (((0, 1), one),))
        with pytest.raises(DegenerateBivectorError):
            symplectic_to_poisson(omega)


# -- the sparse inversion against a dense build from -M^{-1} ---------------------


def dense_pi(omega, order):
    """pi from -M^{-1} over all n^2 entries: the whole-matrix Neumann series of
    ``linalg_reference``, every entry negated, every pair i < j passed to the
    constructor; JetOrderError where a jet is asked for at order < 1."""
    minv = reference.neumann_inverse(omega.coefficient_matrix(), order)
    if order < 1 and minv[0][0].jet_order is not None:
        raise JetOrderError("order < 1")
    neg = [[-e for e in row] for row in minv]
    n = len(neg)
    return MultiVectorField(omega.chart, 2, (((i, j), neg[i][j])
                                             for i in range(n) for j in range(i + 1, n)))


def assert_same_inverse(omega, order):
    try:
        want = dense_pi(omega, order)
    except JetOrderError:
        with pytest.raises(JetOrderError):
            symplectic_to_poisson(omega, order)
        return None
    got = symplectic_to_poisson(omega, order)
    assert [(d, c.terms, c.jet_order) for d, c in got.terms] == \
        [(d, c.terms, c.jet_order) for d, c in want.terms]
    assert got.jet_order() == want.jet_order()
    return got


def bench_jet_models():
    """Every omega = dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2 + d(c p m(x) dx_i)
    that the jet_pencil workload draws: 32 forms."""
    chart = make_chart("x1 x2 q1 q2", "p1 p2")
    one = RingElement.one(chart)
    x1, x2 = (RingElement.coordinate(chart, n) for n in ("x1", "x2"))
    omega0 = DifferentialForm(chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one)))
    for i, product, p, c in itertools.product(
            (0, 1), (False, True), ("p1", "p2"), (-1, Fraction(-1, 2), Fraction(1, 2), 1)):
        m = x1 * x2 if product else (x2 if i == 0 else x1)
        theta = (RingElement.coordinate(chart, p) * m).scale(c)
        yield omega0 + de_rham_d(DifferentialForm(chart, 1, (((i,), theta),)))


def random_closed_affine_form(rng, r):
    """c0 dx1/\\dx2 + sum_j c_j dq_j/\\dp_j + d(theta) on x1 x2 q* | p with
    theta a sum of p_j m(x, q) dx_i, m a monomial in x times at most one
    Fourier mode in q.  At p = 0 only the dp_j/\\dx_i entries of d(theta)
    survive; q_j still meets p_j alone, so every perfect matching takes the
    pairs of the constant part and the Pfaffian is c0 prod c_j: the form is
    exactly invertible.  A dq/\\dx_i entry of d(theta) is one fibre-linear
    term."""
    qs = [f"q{j + 1}" for j in range(r)]
    chart = make_chart("x1 x2 " + " ".join(q + "*" for q in qs),
                       " ".join(f"p{j + 1}" for j in range(r)))

    def unit():
        c = rand_fraction(rng, 1, 3) * rng.choice((1, -1))
        return RingElement.constant(chart, Scalar.pi_power(rng.randint(-1, 1), c))

    pairs = [((0, 1), unit())] + [((2 + j, 2 + r + j), unit()) for j in range(r)]
    theta = []
    for _ in range(rng.randint(0, 3)):
        m = RingElement.constant(chart, rand_fraction(rng, 1, 3))
        for name in ("x1", "x2"):
            m = m * RingElement.coordinate(chart, name) ** rng.randint(0, 2)
        if rng.random() < 0.6:
            m = m * RingElement.fourier_mode(chart, {rng.choice(qs): rng.choice((-1, 1, 2))})
        p = RingElement.coordinate(chart, rng.choice(chart.fibre))
        theta.append(((rng.randrange(2),), p * m))
    return DifferentialForm(chart, 2, pairs) + de_rham_d(DifferentialForm(chart, 1, theta))


def with_one_jet_coefficient(rng, omega):
    """``omega`` with one coefficient made a jet of order 0, 1 or 2; a
    base-only one leaves a zero fibre part that carries the jet order."""
    pick = rng.randrange(len(omega.terms))
    order = rng.choice((0, 1, 2))
    return DifferentialForm(omega.chart, 2, (
        (d, c.truncate(order) if k == pick else c) for k, (d, c) in enumerate(omega.terms)))


class TestSparseInversionAgainstDense:
    """``symplectic_to_poisson`` reads only the entries that have terms; the
    terms and jet order of every coefficient of pi must be those of a build
    from -M^{-1} over all n^2 entries."""

    @pytest.mark.parametrize("k, r", list(itertools.product((1, 2, 3), (2, 3, 4))))
    def test_torus_gotay_shapes(self, k, r):
        omega = torus_gotay_form(k, r)
        for order in range(5):
            pi = assert_same_inverse(omega, order)
            assert pi.jet_order() is None and len(pi.terms) == k + r

    def test_t4_scenario(self):
        with open(os.path.join(DATA, "t4.scn"), encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read(), name="t4.scn", base_dir=DATA)
        pi = assert_same_inverse(scenario.bindings["omega"], 6)
        assert pi == scenario.bindings["pi"]

    def test_jet_pencil_jet_models(self):
        models = list(bench_jet_models())
        assert len(models) == 32
        for omega in models:
            for order in (0, 1, 2, 3, 4, 12):
                pi = assert_same_inverse(omega, order)
                assert pi is None if order == 0 else pi.jet_order() == order

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_random_fibre_affine_forms(self, r):
        rng = rng_for(f"sparse-inversion-{r}")
        single_fibre_term = jets = 0
        for trial in range(15):
            omega = random_closed_affine_form(rng, r)
            single_fibre_term += any(
                len(c.terms) == 1 and not c.is_base_only() for _, c in omega.terms)
            if trial % 3 == 2:
                omega = with_one_jet_coefficient(rng, omega)
                jets += 1
            assert_same_inverse(omega, trial % 5)
        assert single_fibre_term and jets
