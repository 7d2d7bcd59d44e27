"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import time
from fractions import Fraction

from conftest import (
    rand_multivector,
    rand_poisson_disjoint,
    rand_section,
    rng_for,
)
from coisokit import (
    AffinePencil,
    DifferentialForm,
    MultiVectorField,
    PresymplecticData,
    RingElement,
    Scalar,
    SubbundleSpec,
    TwistedElement,
    VerticalSection,
    build_T4_example,
    coiso_algebra_from_form,
    coisotropy_check_numeric,
    de_rham_d,
    exp_ad,
    fibre_translate_pushforward,
    fibrewise_degree_classify,
    gotay_local_model,
    higher_jacobi_verify,
    invert_affine_pencil,
    lambda_n,
    make_chart,
    make_coiso_algebra,
    mc_partial_table,
    mc_series_exact,
    obstructedness_certificate,
    pencil_product_defect,
    projection_P,
    pullback_zero_section,
    schouten_bracket,
    twisted_brackets,
    twisted_lambda,
    twisted_mc,
)
from coisokit._linalg import scalar_det


def report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def random_chart(rng):
    base_dim = rng.randint(1, 3)
    fibre_dim = rng.randint(1, 3)
    base = " ".join(
        f"b{i}{'*' if rng.random() < 0.5 else ''}" for i in range(base_dim)
    )
    fibre = " ".join(f"f{j}" for j in range(fibre_dim))
    return make_chart(base, fibre)


def centered_bivector(rng, chart, **kw):
    pi = rand_multivector(rng, chart, 2, **kw)
    return pi - MultiVectorField(chart, 2, projection_P(pi).terms)


def test_criterion_1_t4_reproduction():
    started = time.perf_counter()
    ex = build_T4_example()
    alg, a = ex.algebra, ex.section
    chart = alg.chart
    coscos = RingElement.cos_of(chart, {"y1": 1}) * RingElement.cos_of(
        chart, {"y2": 1}
    )
    expected = VerticalSection(
        chart, 2, (((4, 5), coscos.scale(Scalar.pi_power(2, 8))),)
    )
    lam2 = lambda_n(alg, a, a)
    ok = lam2 == expected
    # exact pi-exponent 2 and rational 8 on the single stored scalar term
    scalar_terms = lam2.coefficient((4, 5)).terms
    coeffs = {s.single_term() for _, _, _, s in scalar_terms}
    ok = ok and all(t is not None and t[0] == 2 for t in coeffs)
    ok = ok and lambda_n(alg, a).is_zero()
    cert = obstructedness_certificate(alg, a)
    ok = ok and cert.verdict == "NONZERO"
    ok = ok and cert.integral.render() == "8*pi^2*cos(2*pi*y1)*cos(2*pi*y2)"
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(1, f"T4 reproduction ({elapsed:.2f}s)", ok)


def test_criterion_2_pushforward_oracle_equivalence():
    started = time.perf_counter()
    rng = rng_for("acceptance-2")
    trials = 0
    ok = True
    while trials < 100:
        chart = random_chart(rng)
        pi = centered_bivector(rng, chart, max_ydeg=3, nterms=2)
        alpha = rand_section(rng, chart, nterms=2)
        push = fibre_translate_pushforward(pi, alpha)
        ok = ok and exp_ad(pi, alpha).at_zero_fibre() == push.at_zero_fibre()
        alg = make_coiso_algebra(pi, require_poisson=False)
        ok = ok and mc_series_exact(alg, alpha) == projection_P(push)
        trials += 1
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and trials == 100 and elapsed < 30.0
    report(2, f"pushforward oracle x{trials} ({elapsed:.1f}s)", ok)


def test_criterion_3_schouten_axioms():
    rng = rng_for("acceptance-3")
    chart = make_chart("x1 x2*", "y1 y2")
    ok = True
    for _ in range(100):
        p, q, r = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        X = rand_multivector(rng, chart, p)
        Y = rand_multivector(rng, chart, q)
        Z = rand_multivector(rng, chart, r)
        anti = Scalar.rational(-1 if ((p - 1) * (q - 1)) % 2 == 0 else 1)
        ok = ok and schouten_bracket(X, Y) == schouten_bracket(Y, X).scale(anti)
        s = Scalar.rational(-1 if ((p - 1) * q) % 2 else 1)
        ok = ok and schouten_bracket(X, Y.wedge(Z)) == schouten_bracket(
            X, Y
        ).wedge(Z) + Y.wedge(schouten_bracket(X, Z)).scale(s)
        s = Scalar.rational(-1 if ((p - 1) * (q - 1)) % 2 else 1)
        ok = ok and schouten_bracket(X, schouten_bracket(Y, Z)) == schouten_bracket(
            schouten_bracket(X, Y), Z
        ) + schouten_bracket(Y, schouten_bracket(X, Z)).scale(s)
        if not ok:
            break
    report(3, "Schouten axioms x100", ok)


def test_criterion_4_pencil_inversion():
    rng = rng_for("acceptance-4")
    ok = True
    done = 0
    while done < 10:
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
        if scalar_det([[Scalar.of(x) for x in row] for row in a]).is_zero():
            continue
        bs = [
            [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            for _ in range(rng.randint(1, 2))
        ]
        labels = tuple(f"v{k+1}" for k in range(len(bs)))
        pencil = AffinePencil.from_rationals(a, bs, labels)
        inverse = invert_affine_pencil(pencil, 6)
        ok = ok and pencil_product_defect(pencil, inverse, 6) == []
        done += 1
    # 1x1 case matches the geometric series term by term
    pencil = AffinePencil.from_rationals([[1]], [[[1]]], ("v1",))
    inv = invert_affine_pencil(pencil, 5)[0][0]
    chart = inv.chart
    v = RingElement.coordinate(chart, "v1")
    series = RingElement.zero(chart)
    for r in range(6):
        series = series + (v ** r).scale(Scalar.rational((-1) ** r))
    ok = ok and inv == series.truncate(5)
    report(4, "pencil inversion N=6 x10 + geometric series", ok)


def test_criterion_5_gotay_models():
    ok = True
    cases = []
    # (base names, omega_C wedge, kernel)
    base1 = make_chart("q1* q2* q3*")
    cases.append((base1, None, ("q1", "q2", "q3")))
    base2 = make_chart("y1* y2* q1* q2*")
    cases.append((base2, (0, 1), ("q1", "q2")))
    base3 = make_chart("y1* y2* q*")
    cases.append((base3, (0, 1), ("q",)))
    for base, wedge, kernel in cases:
        omega_c = (
            DifferentialForm.zero(base, 2)
            if wedge is None
            else DifferentialForm(base, 2, ((wedge, RingElement.one(base)),))
        )
        model = gotay_local_model(
            PresymplecticData(base, omega_c, SubbundleSpec(kernel))
        )
        ok = ok and pullback_zero_section(model.omega) == omega_c
        ok = ok and fibrewise_degree_classify(model.omega) <= {0, 1}
    report(5, "Gotay models x3", ok)


def test_criterion_6_coisotropy_equivalence():
    ex = build_T4_example()
    alg = ex.algebra
    chart = alg.chart
    rng = rng_for("acceptance-6")
    ok = True
    # alpha constant: both sides true
    const = VerticalSection.from_components(
        chart,
        [RingElement.constant(chart, Fraction(1, 3)), RingElement.constant(chart, -1)],
    )
    mc_c = mc_series_exact(alg, const)
    res_c = coisotropy_check_numeric(alg, const, per_axis=8)
    ok = ok and mc_c.is_zero() and res_c.coisotropic and res_c.max_defect <= 1e-9
    # alpha = the sine section: both sides false, MC = 4 pi^2 cos cos exactly
    mc_s = mc_series_exact(alg, ex.section)
    coscos = RingElement.cos_of(chart, {"y1": 1}) * RingElement.cos_of(
        chart, {"y2": 1}
    )
    expected = VerticalSection(
        chart, 2, (((4, 5), coscos.scale(Scalar.pi_power(2, 4))),)
    )
    res_s = coisotropy_check_numeric(alg, ex.section, per_axis=8)
    ok = ok and mc_s == expected and not res_s.coisotropic
    # random family members: exact MC vanishing iff numeric defect small
    for _ in range(10):
        comps = []
        for nm in ("y1", "y2"):
            kind = rng.randrange(3)
            if kind == 0:
                comps.append(RingElement.constant(chart, Fraction(rng.randint(-1, 2), 2)))
            elif kind == 1:
                comps.append(RingElement.sin_of(chart, {nm: 1}))
            else:
                comps.append(RingElement.cos_of(chart, {"q2" if nm == "y1" else "q1": 1}))
        alpha = VerticalSection.from_components(chart, comps)
        exact_zero = mc_series_exact(alg, alpha).is_zero()
        res = coisotropy_check_numeric(alg, alpha, per_axis=8)
        ok = ok and exact_zero == res.coisotropic
    report(6, "coisotropy equivalence on T4 family", ok)


def test_criterion_7_twisted_algebra():
    ex = build_T4_example()
    alg = ex.algebra
    chart = alg.chart
    rng = rng_for("acceptance-7")
    ok = True
    fam = twisted_brackets(alg)
    # lambda_1 o lambda_1 = 0 on random mixed inputs over the T4 algebra
    for _ in range(20):
        if rng.random() < 0.5:
            w = TwistedElement.from_section(rand_section(rng, chart, rng.randint(1, 2)))
        else:
            w = TwistedElement.from_multivector(
                rand_multivector(rng, chart, rng.randint(1, 3), max_ydeg=2)
            )
        ok = ok and twisted_lambda(alg, [twisted_lambda(alg, [w])]).is_zero()
    # higher Jacobi identities through order 3 on random small instances
    small = make_chart("x1 x2*", "y1 y2")
    for trial in range(12):
        pi = rand_poisson_disjoint(rng, small)
        ok = ok and schouten_bracket(pi, pi).is_zero()
        alg2 = make_coiso_algebra(pi)
        fam2 = twisted_brackets(alg2)
        n = 1 + trial % 3
        inputs = []
        for _ in range(n):
            d = rng.choice((0, 1))
            if rng.random() < 0.5:
                inputs.append(TwistedElement.from_section(rand_section(rng, small, d + 1)))
            else:
                inputs.append(
                    TwistedElement.from_multivector(
                        rand_multivector(rng, small, d + 2, max_ydeg=2)
                    )
                )
        ok = ok and higher_jacobi_verify(fam2, inputs)
    # twisted MC vanishes iff pi + tau Poisson and the graph coisotropic
    one = RingElement.one(chart)
    sin1 = RingElement.sin_of(chart, {"y1": 1})
    sin2 = RingElement.sin_of(chart, {"y2": 1})
    zero2 = MultiVectorField.zero(chart, 2)
    const_tau = MultiVectorField(chart, 2, (((0, 2), one.scale(Fraction(1, 2))),))
    ydep_tau = MultiVectorField(
        chart, 2, (((0, 4), RingElement.coordinate(chart, "p1")),)
    )
    flat = VerticalSection.from_components(
        chart, [RingElement.constant(chart, Fraction(1, 4)), RingElement.zero(chart)]
    )
    sine = VerticalSection.from_components(chart, [sin1, sin2])
    for tau, alpha in (
        (zero2, flat),
        (zero2, sine),
        (const_tau, flat),
        (const_tau, sine),
        (ydep_tau, flat),
        (ydep_tau, sine),
    ):
        pt = alg.pi + tau
        mc = twisted_mc(alg, TwistedElement(tau, alpha))
        poisson = schouten_bracket(pt, pt).is_zero()
        coiso = coisotropy_check_numeric(pt, alpha, per_axis=8).coisotropic
        ok = ok and (mc.is_zero() == (poisson and coiso))
    report(7, "twisted algebra", ok)


def test_criterion_8_jet_mode_convergence():
    chart = make_chart("x1 x2 q1 q2", "p1 p2")
    one = RingElement.one(chart)
    x2 = RingElement.coordinate(chart, "x2")
    p1 = RingElement.coordinate(chart, "p1")
    theta = DifferentialForm(chart, 1, (((0,), p1 * x2),))
    omega = (
        DifferentialForm(chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one)))
        + de_rham_d(theta)
    )
    assert de_rham_d(omega).is_zero()
    alg = coiso_algebra_from_form(omega, truncation=8)
    assert alg.pi.jet_order() == 8
    alpha = VerticalSection.from_components(
        chart,
        [
            RingElement.coordinate(chart, "x1").scale(Fraction(1, 10)),
            (RingElement.coordinate(chart, "x1") * x2).scale(Fraction(1, 10)),
        ],
    )
    table = mc_partial_table(alg, alpha, 8, per_axis=4)
    worst = table.max_error_at(8)
    ok = worst <= 1e-8
    # the bound holds at every grid point by construction of max_error_at;
    # make sure the low orders genuinely differ so the test has teeth
    ok = ok and table.max_error_at(1) > 1e-4
    report(8, f"jet convergence (err {worst:.2e})", ok)
