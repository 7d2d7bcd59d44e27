"""Every exact output stays byte-identical to the recorded one.

Each output below is a text (a report, a ``render()``, the ``repr`` of exact
terms) whose sha256 is stored in ``tests/data/output_hashes.json``:

- the ``t4.scn`` report in text, json and csv, at the default samples and
  at ``--samples 8``;
- the csv report of ``t4.scn`` with ``check mc a 3`` in place of
  ``check mc a``, at ``--samples 8``: an ``mc_partial_table`` whose oracle
  inverts a constant source form;
- the text report of ``t4_exact.scn`` (``t4.scn`` without its numeric
  ``coisotropic`` check);
- ``render()`` and the exact terms of ``mc_series_exact`` and ``exp_ad``
  over a seeded family of centred bivectors and degree-1 sections;
- the exact terms of ``fibre_translate_pushforward`` of the same seeded
  bivectors and sections, and ``render()`` and the exact terms of
  ``projected_pushforward`` of them;
- ``repr`` and the exact entry terms of ``invert_affine_pencil`` at order 6
  for ``tests/data/rational_pencil.txt``, for a seeded two-parameter 4x4
  pencil and for a permuted block-diagonal pencil one of whose blocks has
  no fibre part (its ``repr`` pins the jet orders of the zeros between the
  blocks and of the untouched block);
- ``repr`` of ``pencil_product_defect`` at orders 0, 3, 6 and 8 for those
  three pencils and a 3x3 pencil with pi powers in A, each checked against
  its order-6 inverse with three planted errors: a constant, a degree-2
  term and a degree-7 term, above the inversion order;
- the exact terms of ``coiso_algebra_from_form(omega, 12).pi`` for two jet
  models, and ``mc_partial_table(..., N, per_axis=4).to_csv()`` of each
  with a polynomial section at N = 12, 1 and 5, and of one seeded exact
  centred bivector (a ``SERIES_FAMILY`` draw) at N = 2, below the length
  of its series;
- the exact terms of ``symplectic_to_poisson`` of the Gotay model of the
  product torus T^{2k} x T^r (the scenario ``inv_form(gotay(...))``) for
  (k, r) in {1, 2, 3} x {2, 4};
- the exact terms of both parts of ``twisted_lambda`` for n = 1, 2, 3 on
  seeded twisted elements of W-degree -1, 0 or 1 with both parts drawn,
  over the T^4 algebra and a small polynomial-and-periodic chart;
- the exact terms of both parts of ``twisted_mc`` on the families of
  ``tests/test_linfty.py::TestTwistedAlgebra``: the four (tau, alpha) cases
  on T^4 and the seeded (tau, alpha) of each y-degree on T^4 and the small
  chart;
- the type, degree and exact terms of the graded kernel's results on
  seeded fields: ``schouten_bracket`` of exact fields and of jets of each
  degree pair in 0..3, ``wedge``, ``+`` of fields sharing wedge indices and
  of fields whose terms cancel, ``scale`` by zero, negation and the sum of
  two ``VerticalSection``s;
- ``render()`` of seeded ring elements on a chart with three periodic axes,
  one polynomial axis and one fibre coordinate (arbitrary Fourier modes of
  both signs with real and non-real coefficients, and products of sines
  and cosines), and ``render()`` of Scalars of each single-term shape
  (real, imaginary, both, negative) and of several terms.

"Exact terms" spell out every coefficient as its ``Scalar.terms`` triples
``(pi-exponent, Fraction re, Fraction im)`` and every jet order, so a change
of stored layout that moves any value, or any rendering, fails here.

To record the hash of a new output, run from the root of the checkout

    PYTHONPATH=src python tests/test_output_hashes.py --write

which adds only the names missing from the file.  It writes nothing and
exits non-zero when a recorded name's hash has changed (or its output is
gone), and lists those names.  After a deliberate output change (name the
moved outputs in CHANGES.md), pass each moved name to ``--rewrite``:

    PYTHONPATH=src python tests/test_output_hashes.py --write --rewrite NAME...
"""

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import sys
from fractions import Fraction

from conftest import (
    jet_models,
    rand_fraction,
    rand_multivector,
    rand_poisson_disjoint,
    rand_ring,
    rand_section,
    rng_for,
    small_chart,
    torus_gotay_form,
)
from coisokit import (
    AffinePencil,
    MultiVectorField,
    PencilError,
    RingElement,
    Scalar,
    TwistedElement,
    VerticalSection,
    build_T4_example,
    coiso_algebra_from_form,
    exp_ad,
    fibre_translate_pushforward,
    invert_affine_pencil,
    make_chart,
    make_coiso_algebra,
    mc_partial_table,
    mc_series_exact,
    parse_pencil_text,
    pencil_product_defect,
    projected_pushforward,
    schouten_bracket,
    symplectic_to_poisson,
    twisted_lambda,
    twisted_mc,
)
from coisokit.cli import RunFlags, emit_report, parse_scenario, run

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
HASHES = os.path.join(DATA, "output_hashes.json")


def _read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def _element_terms(c: RingElement):
    return (c.jet_order, tuple((xe, k, ye, s.terms) for xe, k, ye, s in c.terms))


def _field_terms(field) -> str:
    return repr(tuple((dirs, _element_terms(c)) for dirs, c in field.terms))


def _t4_reports():
    for samples, fmt in itertools.product((None, 8), ("text", "json", "csv")):
        scenario = parse_scenario(_read("t4.scn"), name="t4.scn", base_dir=DATA)
        flags = RunFlags() if samples is None else RunFlags(samples=samples)
        yield f"t4/{fmt}/samples={samples or 'default'}", emit_report(run(scenario, flags), fmt)
    # the same scenario with a convergence table: oracle columns of a
    # constant source form (the jet tables below vary with the fibre)
    text = _read("t4.scn").replace("check mc a\n", "check mc a 3\n")
    assert "check mc a 3\n" in text
    scenario = parse_scenario(text, name="t4_mc3.scn", base_dir=DATA)
    yield "t4/mc_table/csv/samples=8", emit_report(run(scenario, RunFlags(samples=8)), "csv")
    scenario = parse_scenario(_read("t4_exact.scn"), name="t4_exact.scn", base_dir=DATA)
    yield "t4_exact/text/samples=default", emit_report(run(scenario), "text")


# (base spec, fibre spec, y-degree of the bivector, complex coefficients)
SERIES_FAMILY = (
    ("x1", "y1", 1, False),
    ("x1*", "y1 y2", 2, True),
    ("x1 x2*", "y1 y2", 2, False),
    ("x1* x2", "y1", 3, True),
    ("x1* x2", "y1 y2", 3, True),
    ("b0* b1 b2", "f0 f1", 1, True),
    ("b0* b1", "f0 f1 f2", 2, False),
    ("b0* b1", "f0 f1 f2", 2, True),
)


def _series_trial(rng, base, fibre, ydeg, complex_coeffs):
    """A centred bivector (every wedge pair holds a base direction) and a section."""
    chart = make_chart(base, fibre)
    keys = [k for k in itertools.combinations(range(chart.n_dirs), 2) if k[0] < chart.n_base]
    pi = MultiVectorField.zero(chart, 2)
    for _ in range(3):
        coeff = rand_ring(rng, chart, max_xdeg=1, max_mode=2, max_ydeg=ydeg,
                          nterms=3, real=not complex_coeffs)
        pi = pi + MultiVectorField(chart, 2, ((rng.choice(keys), coeff.scale(Fraction(5, 7))),))
    a = rand_section(rng, chart, max_xdeg=1, max_mode=1, real=not complex_coeffs)
    return pi, a


def _series_outputs():
    rng = rng_for("output-hashes-series")
    for n, spec in enumerate(SERIES_FAMILY):
        pi, a = _series_trial(rng, *spec)
        series = mc_series_exact(make_coiso_algebra(pi, require_poisson=False), a)
        pushed = exp_ad(pi, a)
        yield f"series/{n}/mc/render", series.render()
        yield f"series/{n}/mc/terms", _field_terms(series)
        yield f"series/{n}/exp_ad/render", pushed.render()
        yield f"series/{n}/exp_ad/terms", _field_terms(pushed)
        yield f"series/{n}/pushforward/terms", _field_terms(fibre_translate_pushforward(pi, a))
        projected = projected_pushforward(pi, a)
        yield f"series/{n}/projected_pushforward/render", projected.render()
        yield f"series/{n}/projected_pushforward/terms", _field_terms(projected)


def _seeded_pencil(rng) -> AffinePencil:
    """A two-parameter 4x4 pencil with integer entries and det A != 0."""
    while True:
        a = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        b = [[[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)] for _ in range(2)]
        try:
            return AffinePencil.from_rationals(a, b, ("v1", "v2"))
        except PencilError:
            continue


def _block_pencil() -> AffinePencil:
    """Blocks on rows/columns {0, 2} and {1, 3}; only the first has B != 0."""
    a = [[2, 0, 1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 3, 0, 2]]
    b1 = [[1, 0, -2, 0], [0, 0, 0, 0], [3, 0, 1, 0], [0, 0, 0, 0]]
    b2 = [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 2, 0], [0, 0, 0, 0]]
    return AffinePencil.from_rationals(a, [b1, b2], ("v1", "v2"))


def _pi_pencil() -> AffinePencil:
    """A 3x3 pencil with pi and pi^-1 in A: its inverse has pi powers."""
    one, zero, pi = Scalar.one(), Scalar.zero(), Scalar.pi_power(1)
    a = ((pi, one, zero), (zero, Scalar.rational(2), zero), (one, zero, Scalar.pi_power(-1)))
    b = ((zero, one, zero), (one, zero, Scalar.rational(1, 3)), (zero, zero, -one))
    return AffinePencil(a, (b,), ("v1",))


def _planted(pencil: AffinePencil, inverse):
    """``inverse`` with three planted errors: a constant, a degree-2 term
    and a degree-7 term, above the inversion order 6 (on an exact entry)."""
    inv = [list(row) for row in inverse]
    chart = inv[0][0].chart
    first, last = (RingElement.coordinate(chart, v) for v in (pencil.labels[0], pencil.labels[-1]))
    n = pencil.size
    inv[0][1] = inv[0][1] + Fraction(1, 3)
    inv[1][0] = inv[1][0] - (first * last).scale(2)
    inv[n - 1][n - 1] = inv[n - 1][n - 1].without_truncation() + (first ** 7).scale(Fraction(5, 7))
    return inv


def _pencil_outputs():
    pencils = (
        ("pencil", parse_pencil_text(_read("rational_pencil.txt"))),
        ("pencil/seeded", _seeded_pencil(rng_for("output-hashes-pencil"))),
        ("pencil/blocks", _block_pencil()),
    )
    for name, pencil in pencils:
        inverse = invert_affine_pencil(pencil, 6)
        yield f"{name}/repr", repr(inverse)
        yield f"{name}/terms", repr(tuple(tuple(_element_terms(e) for e in row) for row in inverse))
    for name, pencil in pencils + (("pencil/pi", _pi_pencil()),):
        planted = _planted(pencil, invert_affine_pencil(pencil, 6))
        for order in (0, 3, 6, 8):
            yield f"{name}/defect/order={order}", repr(pencil_product_defect(pencil, planted, order))


def _jet_outputs():
    for n, (omega, alpha) in enumerate(jet_models()):
        alg = coiso_algebra_from_form(omega, 12)
        yield f"jet/{n}/pi/terms", _field_terms(alg.pi)
        yield f"jet/{n}/mc_table/csv", mc_partial_table(alg, alpha, 12, per_axis=4).to_csv()
        # orders that drop part of pi: order 1 drops the pure base wedge
        for order in (1, 5):
            table = mc_partial_table(alg, alpha, order, per_axis=4)
            yield f"jet/{n}/mc_table/order={order}/csv", table.to_csv()
    # an exact centred bivector whose series has four nonzero brackets
    pi, a = _series_trial(rng_for("output-hashes-exact-table-0"), *SERIES_FAMILY[2])
    table = mc_partial_table(make_coiso_algebra(pi, require_poisson=False), a, 2, per_axis=4)
    yield "series/table/order=2/csv", table.to_csv()


def _gotay_outputs():
    for k, r in itertools.product((1, 2, 3), (2, 4)):
        pi = symplectic_to_poisson(torus_gotay_form(k, r))
        yield f"gotay/k={k}/r={r}/pi/terms", _field_terms(pi)


def _twisted(tau, alpha) -> TwistedElement:
    return TwistedElement.from_multivector(tau) + TwistedElement.from_section(alpha)


def _twisted_parts(name, w):
    yield f"{name}/mv/terms", _field_terms(w.mv)
    yield f"{name}/section/terms", _field_terms(w.section)


def _twisted_lambda_outputs():
    rng = rng_for("output-hashes-twisted-lambda")
    algebras = (
        ("t4", build_T4_example().algebra),
        ("small", make_coiso_algebra(rand_poisson_disjoint(rng, small_chart()))),
    )
    for label, alg in algebras:
        for n, trial in itertools.product((1, 2, 3), range(4)):
            inputs = []
            for _ in range(n):
                d = rng.choice((-1, 0, 1))
                inputs.append(_twisted(
                    rand_multivector(rng, alg.chart, d + 2, nterms=3, max_ydeg=1),
                    rand_section(rng, alg.chart, d + 1, nterms=3),
                ))
            yield from _twisted_parts(
                f"twisted_lambda/{label}/n={n}/{trial}", twisted_lambda(alg, inputs)
            )


def _twisted_mc_outputs():
    alg = build_T4_example().algebra
    chart = alg.chart
    one = RingElement.one(chart)
    alpha_flat = VerticalSection.from_components(
        chart, [RingElement.constant(chart, Fraction(1, 5)), RingElement.zero(chart)]
    )
    alpha_sine = VerticalSection.from_components(
        chart, [RingElement.sin_of(chart, {"y1": 1}), RingElement.sin_of(chart, {"y2": 1})]
    )
    zero2 = MultiVectorField.zero(chart, 2)
    const_tau = MultiVectorField(chart, 2, (((0, 2), one.scale(Fraction(1, 3))),))
    ydep_tau = MultiVectorField(chart, 2, (((0, 4), RingElement.coordinate(chart, "p1")),))
    cases = ((zero2, alpha_flat), (zero2, alpha_sine), (const_tau, alpha_flat),
             (ydep_tau, alpha_flat))
    for n, (tau, alpha) in enumerate(cases):
        yield from _twisted_parts(f"twisted_mc/t4/case={n}", twisted_mc(alg, _twisted(tau, alpha)))
    # the draws of TestTwistedAlgebra.test_twisted_mc_is_the_defining_series
    rng = rng_for("tw-mc-series")
    small = make_coiso_algebra(rand_poisson_disjoint(rng, small_chart()))
    for label, alg in (("t4", alg), ("small", small)):
        for ydeg in (0, 1, 2):
            tau = rand_multivector(rng, alg.chart, 2, max_ydeg=ydeg)
            w = _twisted(tau, rand_section(rng, alg.chart))
            yield from _twisted_parts(f"twisted_mc/{label}/ydeg={ydeg}", twisted_mc(alg, w))


def _graded_text(field) -> str:
    return f"{type(field).__name__} degree={field.degree} {_field_terms(field)}"


def _graded_outputs():
    rng = rng_for("output-hashes-graded")
    charts = (("small", small_chart()), ("periodic", make_chart("x1* x2* t", "y1 y2 y3")))
    for label, chart in charts:
        for p, q in itertools.product(range(4), repeat=2):
            X = rand_multivector(rng, chart, p, nterms=3, max_ydeg=2, real=False)
            Y = rand_multivector(rng, chart, q, nterms=3, max_ydeg=2)
            name = f"graded/{label}/p={p}/q={q}"
            yield f"{name}/schouten", _graded_text(schouten_bracket(X, Y))
            jx, jy = X.truncate(rng.randint(0, 2)), Y.truncate(rng.randint(1, 3))
            yield f"{name}/schouten/jet", _graded_text(schouten_bracket(jx, jy))
            yield f"{name}/schouten/jet_exact", _graded_text(schouten_bracket(jx, Y))
            yield f"{name}/wedge", _graded_text(X.wedge(Y))
            yield f"{name}/wedge/jet", _graded_text(jx.wedge(jy))
        for d in range(4):
            X = rand_multivector(rng, chart, d, nterms=4, max_ydeg=2, real=False)
            Y = rand_multivector(rng, chart, d, nterms=4, max_ydeg=2)
            # Z shares X's wedge indices; X + Z cancels all but Z's extra terms
            Z = -X + Y.truncate(1)
            name = f"graded/{label}/d={d}"
            yield f"{name}/sum/overlap", _graded_text(X + Y)
            yield f"{name}/sum/cancel", _graded_text(X + Z)
            yield f"{name}/sum/to_zero", _graded_text(X + (-X))
            yield f"{name}/difference/jet", _graded_text(X.truncate(2) - Y)
            yield f"{name}/scale/zero", _graded_text(X.scale(0))
            yield f"{name}/scale/ring", _graded_text(X.scale(rand_ring(rng, chart, max_ydeg=1)))
            yield f"{name}/negation", _graded_text(-X)
            yield f"{name}/negation/jet", _graded_text(-Y.truncate(1))
        for d in (1, 2):
            a = rand_section(rng, chart, d, nterms=3, real=False)
            b = rand_section(rng, chart, d, nterms=3)
            yield f"graded/{label}/section/d={d}/sum", _graded_text(a + b)
            yield f"graded/{label}/section/d={d}/cancel", _graded_text(a + (b - a))


def _render_outputs():
    rng = rng_for("output-hashes-render")
    chart = make_chart("y1* x y2* y3*", "p")
    for n in range(16):
        if n % 2:
            value = rand_ring(rng, chart, max_xdeg=1, max_mode=2, max_ydeg=1,
                              nterms=4, real=n % 4 == 1)
        else:
            terms = []
            for _ in range(rng.randint(2, 8)):
                s = Scalar.gaussian(rand_fraction(rng), rng.choice((0, rand_fraction(rng))))
                terms.append(((rng.randint(0, 1),), tuple(rng.randint(-2, 2) for _ in range(3)),
                              (rng.randint(0, 1),), s * Scalar.pi_power(rng.randint(0, 2))))
            value = RingElement(chart, terms)
        yield f"render/ring/{n}", value.render()
    third = Fraction(1, 3)
    scalars = (
        ("real", Scalar.pi_power(2, Fraction(5, 2))), ("negative", Scalar.rational(-3)),
        ("imaginary", Scalar.gaussian(0, third)), ("negative_imaginary", Scalar.gaussian(0, -1)),
        ("both", Scalar.gaussian(-1, third) * Scalar.pi_power(1)),
        ("sum", Scalar(((0, -2, 0), (1, 0, -third), (3, 1, 1)))),
    )
    for label, s in scalars:
        yield f"render/scalar/{label}", s.render()


def outputs():
    """(name, text) of every hashed output, in a fixed order."""
    yield from _t4_reports()
    yield from _series_outputs()
    yield from _pencil_outputs()
    yield from _jet_outputs()
    yield from _gotay_outputs()
    yield from _twisted_lambda_outputs()
    yield from _twisted_mc_outputs()
    yield from _graded_outputs()
    yield from _render_outputs()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_output_matches_its_recorded_hash():
    with open(HASHES, encoding="utf-8") as fh:
        recorded = json.load(fh)
    got = {name: _digest(text) for name, text in outputs()}
    assert sorted(got) == sorted(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


def test_series_family_has_teeth():
    """Most series are nonzero and they carry i, powers of pi and several denominators."""
    mc = [t for name, t in _series_outputs() if name.endswith("mc/render")]
    assert sum(t != "0" for t in mc) >= len(SERIES_FAMILY) // 2
    joined = " ".join(mc)
    assert "*i*" in joined and "*pi*" in joined
    assert {"/7", "/14", "/21"} <= set(re.findall(r"/\d+", joined))


def _table_copy(tmp_path):
    path = tmp_path / "output_hashes.json"
    shutil.copy(HASHES, path)
    with open(HASHES, encoding="utf-8") as fh:
        return str(path), json.load(fh)


def test_write_adds_only_missing_names(tmp_path):
    path, recorded = _table_copy(tmp_path)
    got = dict(recorded, **{"new/output": "0" * 64})
    assert main(["--write"], path, lambda: got) == 0
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == got


def test_write_refuses_a_moved_hash_unless_it_is_rewritten(tmp_path, capsys):
    path, recorded = _table_copy(tmp_path)
    changed, gone = sorted(recorded)[:2]
    got = dict(recorded, **{changed: "f" * 64, "new/output": "0" * 64})
    del got[gone]
    with open(path, encoding="utf-8") as fh:
        before = fh.read()
    for rewrite in ([], [changed], [gone]):
        argv = ["--write"] + (["--rewrite"] + rewrite if rewrite else [])
        assert main(argv, path, lambda: got) == 1
        err = capsys.readouterr().err
        assert {changed, gone} - set(rewrite) <= set(err.split())
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == before  # nothing added either
    assert main(["--write", "--rewrite", "no/such/output"], path, lambda: got) == 2
    assert main(["--write", "--rewrite", changed, gone], path, lambda: got) == 0
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == got


def digests() -> dict:
    return {name: _digest(text) for name, text in outputs()}


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def update_table(path: str, got: dict, rewrite=()) -> list:
    """Add the names of ``got`` missing from the table at ``path``.

    A recorded name whose hash changed, or whose output is gone, is replaced
    or removed only when it is in ``rewrite``.  Returns the other such names,
    sorted; when there are any, the file is left as it was."""
    table = _load(path)
    moved = sorted(name for name in table if got.get(name) != table[name])
    refused = [name for name in moved if name not in rewrite]
    if refused:
        return refused
    for name in moved:
        del table[name]
    table = {**got, **table}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return []


def main(argv, path=HASHES, compute=digests) -> int:
    parser = argparse.ArgumentParser(
        prog="tests/test_output_hashes.py",
        description="Record the hashes of new outputs; re-pin only the names given.",
    )
    parser.add_argument("--write", action="store_true", required=True)
    parser.add_argument("--rewrite", nargs="+", default=(), metavar="NAME",
                        help="a recorded name whose output changed on purpose")
    args = parser.parse_args(argv)
    got = compute()
    unknown = sorted(set(args.rewrite) - set(got) - set(_load(path)))
    if unknown:
        print(f"not an output name: {' '.join(unknown)}", file=sys.stderr)
        return 2
    refused = update_table(path, got, set(args.rewrite))
    if refused:
        print("recorded outputs changed (pass each deliberate change to --rewrite):",
              file=sys.stderr)
        for name in refused:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(f"{len(got)} hashes up to date in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
