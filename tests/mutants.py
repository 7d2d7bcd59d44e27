"""Opt-in mutation sweep: each named one-line mutation of ``src/`` must fail
the tests named with it.

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # only the named ones
    python3 tests/mutants.py --list       # names and descriptions

Run from anywhere inside a source checkout.  This script is not part of the
tier-1 suite (pytest collects only ``test_*.py``).  For each mutant it copies
``src/``, ``tests/``, ``bench/``, ``README.md`` and ``pyproject.toml`` into a
temporary directory, replaces the mutant's fragment of one source line (the
fragment must occur exactly once in its file), and runs ``pytest -x`` on the
mutant's test files in that copy.  A failing run kills the mutant.

One line per mutant: ``killed``, ``SURVIVED`` or ``STALE`` (the fragment no
longer occurs exactly once, so the mutant must be rewritten for the current
source).  The exit status is 1 if any mutant survived or is stale, else 0.
A full sweep runs the mutants one after another, in one process each; on a
2-core VM it takes about 2-3 minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
# a mutant that hangs its tests is counted as killed after this long
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/coisokit
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/
    what: str


MUTANTS = (
    # -- the sparse model build and the used-direction translation ----------
    Mutant("pi-diagonal-pairs", "symplectic_model.py",
           "for j, e in enumerate(row) if j > i and e.terms",
           "for j, e in enumerate(row) if j >= i and e.terms",
           ("test_symplectic_model.py",),
           "pi built from the pairs j >= i of -M^{-1}"),
    Mutant("pi-lower-triangle", "symplectic_model.py",
           "for j, e in enumerate(row) if j > i and e.terms",
           "for j, e in enumerate(row) if j < i and e.terms",
           ("test_symplectic_model.py",),
           "pi built from the lower triangle of -M^{-1}, which flips its sign"),
    Mutant("neumann-one-term-entry", "symplectic_model.py",
           "[[e.at_zero_fibre() if e.terms else e for e in row] for row in m]",
           "[[e.at_zero_fibre() if len(e.terms) > 1 else e for e in row] for row in m]",
           ("test_linalg.py", "test_symplectic_model.py"),
           "_neumann_inverse passes a one-term entry into A without at_zero_fibre"),
    Mutant("gotay-last-pair-dropped", "symplectic_model.py",
           "for j, (q, _) in enumerate(pairs)),",
           "for j, (q, _) in enumerate(pairs[:-1])),",
           ("test_symplectic_model.py",),
           "the Gotay Omega built without its last kernel pair"),
    Mutant("translation-skips-fibre", "multivector.py",
           "for d in {d for dirs, _ in X.terms for d in dirs}:",
           "for d in {d for dirs, _ in X.terms for d in dirs if not chart.is_fibre_dir(d)}:",
           ("test_multivector.py",),
           "_translation builds no image for the fibre directions X uses"),
    Mutant("kind-table-swapped", "coeff_ring.py",
           '(("poly", self.poly_axes), ("periodic", self.periodic_axes))',
           '(("poly", self.periodic_axes), ("periodic", self.poly_axes))',
           ("test_coeff_ring.py",),
           "the chart's kind table swaps the poly and periodic indices"),
    # -- decision rules and bounds -------------------------------------------
    Mutant("certificate-is-zero", "obstruction.py",
           'verdict = "INCONCLUSIVE" if integral.is_constant() else "NONZERO"',
           'verdict = "INCONCLUSIVE" if integral.is_zero() else "NONZERO"',
           ("test_obstruction.py",),
           "the certificate calls a nonzero constant integral NONZERO"),
    Mutant("coisotropic-bound", "linfty.py",
           "return CoisotropyResult(worst <= 1e-9, worst)",
           "return CoisotropyResult(worst <= 1e-3, worst)",
           ("test_cli.py", "test_linfty.py"),
           "the coisotropic pass bound loosened from 1e-9 to 1e-3"),
    Mutant("mc-table-bound", "cli.py",
           'return ("pass" if err <= 1e-8 else "fail"), details, err, table',
           'return ("pass" if err <= 1e-4 else "fail"), details, err, table',
           ("test_cli.py",),
           "the 'mc a N' pass bound loosened from 1e-8 to 1e-4"),
    Mutant("torus-orientation-dropped", "obstruction.py",
           "return out if sign > 0 else -out",
           "return out",
           ("test_obstruction.py",),
           "fibre_torus_integral ignores the orientation of the direction order"),
    # -- the Neumann series ----------------------------------------------------
    Mutant("neumann-jet-rule", "symplectic_model.py",
           "jet = min([order] + jets) if order > 0 else order",
           "jet = order",
           ("test_linalg.py",),
           "the Neumann series ignores the jet orders of M's entries"),
    Mutant("neumann-transposed-block", "symplectic_model.py",
           "power = [[ainv[j][i] for i in rows] for j in cols]",
           "power = [[ainv[i][j] for i in rows] for j in cols]",
           ("test_linalg.py",),
           "the series starts from a transposed block of A^{-1}"),
    Mutant("neumann-one-power-short", "symplectic_model.py",
           "        for _ in range(order):\n",
           "        for _ in range(order - 1):\n",
           ("test_linalg.py",),
           "the Neumann series stops one power short"),
    Mutant("is-poisson-order", "multivector.py",
           "jac.truncate(order - 1)",
           "jac.truncate(order)",
           ("test_symplectic_model.py",),
           "is_poisson checks a jet's [pi, pi] one order past what it knows"),
    Mutant("inverse-cofactor-sign", "_linalg.py",
           "out[j][i] = -cof if (pos_i + pos_j) % 2 else cof",
           "out[j][i] = cof",
           ("test_linalg.py",),
           "the adjugate drops the checkerboard sign"),
    # -- the graded kernel and the L-infinity layer ----------------------------
    Mutant("compose-sign", "multivector.py",
           "s = -sign if (p - 1 - k) % 2 else sign",
           "s = sign if (p - 1 - k) % 2 else -sign",
           ("test_multivector.py",),
           "the right theta-derivative in _compose takes the wrong sign"),
    Mutant("inversion-sign", "_graded.py",
           "return -1 if inversions % 2 else 1",
           "return 1 if inversions % 2 else -1",
           ("test_linalg.py", "test_obstruction.py"),
           "inversion_sign returns the opposite sign"),
    Mutant("twisted-koszul-sign", "linfty.py",
           "sec_acc = sec_acc + (-term if koszul % 2 else term)",
           "sec_acc = sec_acc + term",
           ("test_linfty.py", "test_output_hashes.py"),
           "twisted_lambda drops the Koszul sign of the multivector slot"),
    Mutant("weight-part-order", "linfty.py",
           "terms.append((dirs, c.truncate(order - b)))",
           "terms.append((dirs, c.truncate(order - b - 1)))",
           ("test_linfty.py",),
           "_weight_part truncates every component one order too low"),
    Mutant("mc-table-one-order-short", "linfty.py",
           "ad_series(_weight_part(alg.pi, order), alpha), order)",
           "ad_series(_weight_part(alg.pi, order), alpha), order - 1)",
           ("test_linfty.py",),
           "mc_partial_table sums one bracket fewer than the order"),
    Mutant("oracle-reassociated", "linfty.py",
           "return jac @ mat @ jac.transpose(0, 2, 1)",
           "return jac @ (mat @ jac.transpose(0, 2, 1))",
           ("test_linfty.py", "test_output_hashes.py"),
           "the oracle block is J_f (Pi J_f^T), which moves pinned floats"),
    Mutant("memo-keyed-by-last-section", "linfty.py",
           "        key += (id(a),)\n",
           "        key = (id(a),)\n",
           ("test_linfty.py",),
           "the bracket memo keys each level by its last section only"),
    Mutant("memo-hands-out-its-value", "linfty.py",
           "        yield VerticalSection(value.chart, value.degree, value.terms)\n",
           "        yield value\n",
           ("test_linfty.py",),
           "the bracket memo hands out the value it keeps, so a caller's "
           "bracket leaves a derivative table in the memo"),
    Mutant("jacobi-memo-keyed-by-last-argument", "linfty.py",
           "        key = tuple(map(id, args))\n",
           "        key = (id(args[-1]),)\n",
           ("test_linfty.py",),
           "the Jacobi check's bracket memo keys each argument tuple by its "
           "last argument only"),
    Mutant("memo-brackets-pi-itself", "linfty.py",
           "                X = _copy(alg.pi)\n",
           "                X = alg.pi\n",
           ("test_linfty.py",),
           "a memo chain is bracketed from the algebra's pi, not from a copy, "
           "so pi keeps a derivative table for as long as the algebra lives"),
    # -- the coefficient ring ----------------------------------------------------
    Mutant("product-scalars-unshared", "coeff_ring.py",
           "            s = scalars.get(terms)\n",
           "            s = None\n",
           ("test_coeff_ring.py",),
           "a product builds a new Scalar for every term, equal ones included"),
    Mutant("partial-copies-unit-scalar", "coeff_ring.py",
           "    return s if c == 1 else Scalar._wrap(_times_int(s._terms, c))\n",
           "    return Scalar._wrap(_times_int(s._terms, c))\n",
           ("test_coeff_ring.py",),
           "a derivative copies the Scalar of a term whose exponent is 1"),
    Mutant("dot-sign-fold", "coeff_ring.py",
           "                        a, b = -a, -b\n",
           "                        a, b = a, b\n",
           ("test_coeff_ring.py",),
           "dot's single-quad path drops the sign of a negative product"),
    Mutant("dot-unsorted", "coeff_ring.py",
           "for key, slot in sorted(accs.items()):",
           "for key, slot in accs.items():",
           ("test_coeff_ring.py",),
           "dot wraps its terms unsorted"),
    Mutant("dot-promotion-drops-slot", "coeff_ring.py",
           "accs[key] = {slot[3]: slot[:3], e: [re, im, den]}",
           "accs[key] = {e: [re, im, den]}",
           ("test_coeff_ring.py",),
           "a one-exponent slot that meets a second pi-exponent loses what it held"),
    Mutant("dot-multi-quad-promotion-drops-slot", "coeff_ring.py",
           "slot = accs[key] = {slot[3]: slot[:3]}",
           "slot = accs[key] = {}",
           ("test_coeff_ring.py",),
           "a one-exponent slot that meets a multi-quad Scalar loses what it held"),
    Mutant("dot-slot-output-unreduced", "coeff_ring.py",
           "                if den != 1:\n                    g = gcd(re, im, den)\n",
           "                if False:\n                    g = gcd(re, im, den)\n",
           ("test_coeff_ring.py",),
           "dot wraps a one-exponent slot without its gcd, so not in lowest terms"),
    Mutant("dot-complex-product-drops-bd", "coeff_ring.py",
           "re, im = a * c - b * d, a * d + b * c\n                        else:",
           "re, im = a * c, a * d + b * c\n                        else:",
           ("test_coeff_ring.py",),
           "dot's inline complex product drops the real part -b*d"),
    Mutant("partial-keeps-fibre-jet", "coeff_ring.py",
           "jet -= 1  # y^N",
           "jet -= 0  # y^N",
           ("test_coeff_ring.py",),
           "a fibre partial keeps the jet order of its argument"),
    Mutant("integer-ratio-drops-imaginary", "coeff_ring.py",
           "if not e and not im:",
           "if not e:",
           ("test_symplectic_model.py",),
           "integer_ratio reads a Gaussian rational as its real part"),
    Mutant("scalar-bool-constant", "coeff_ring.py",
           "return bool(self._terms)",
           "return True",
           ("test_coeff_ring.py", "test_symplectic_model.py"),
           "a zero Scalar is true, so the defect of an exact pi-pencil inverse "
           "reports entries with zero terms"),
    # -- the pencil series and check ------------------------------------------
    Mutant("pencil-shift-at-alpha", "symplectic_model.py",
           "prev = ps.get(tuple(map(operator.sub, alpha, step)))",
           "prev = ps.get(alpha)",
           ("test_symplectic_model.py",),
           "the defect check adds B_k P_alpha at alpha, not alpha + e_k"),
    Mutant("pencil-identity-denominator", "symplectic_model.py",
           "c[i][i] -= den",
           "c[i][i] -= 1",
           ("test_symplectic_model.py",),
           "the defect check subtracts the identity at denominator 1"),
    Mutant("pencil-scalar-den-dropped", "symplectic_model.py",
           "else num * Scalar.rational(1, den)",
           "else num",
           ("test_symplectic_model.py",),
           "a Scalar numerator of the pencil series or defect skips its denominator"),
    # -- start-up ------------------------------------------------------------
    Mutant("eager-numpy", "linfty.py",
           "from typing import Callable, Sequence\n",
           "from typing import Callable, Sequence\n\nimport numpy as np\n",
           ("test_import_contract.py",),
           "linfty imports numpy at module level, so every import loads it"),
)


def apply(mutant: Mutant, root: str) -> bool:
    """Write the mutation into the copy at ``root``; False when its fragment
    does not occur exactly once."""
    path = os.path.join(root, "src", "coisokit", mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return True


def copy_checkout(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        elif os.path.isfile(src):
            shutil.copy2(src, os.path.join(dest, name))


def run_one(mutant: Mutant) -> tuple[str, float, str]:
    """(outcome, seconds, detail) of one mutant on a fresh copy."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="coisokit-mutant-") as tmp:
        copy_checkout(tmp)
        if not apply(mutant, tmp):
            return "STALE", time.perf_counter() - t0, "fragment not found exactly once"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(os.path.join("tests", t) for t in mutant.tests)]
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - t0, f"timeout after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    detail = lines[-1] if lines else f"pytest exit {done.returncode}"
    # 1: a test failed; 2: collection failed (the mutant broke an import)
    outcome = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(done.returncode, "ERROR")
    return outcome, time.perf_counter() - t0, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:32s} {m.path:20s} {m.what}")
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    bad = 0
    start = time.perf_counter()
    for m in chosen:
        outcome, seconds, detail = run_one(m)
        bad += outcome != "killed"
        print(f"{outcome:8s} {m.name:32s} {seconds:6.1f} s  {detail}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
