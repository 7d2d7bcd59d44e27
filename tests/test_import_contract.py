"""numpy is loaded by the numeric oracles and the grid evaluator, not on import.

Each case runs in a fresh interpreter and reports whether ``numpy`` is in
``sys.modules`` afterwards.  Importing the package or its command line, an
all-exact scenario and a scenario refused at parse time leave numpy
unloaded; ``t4.scn`` (its ``coisotropic`` check samples a grid) and a Gotay
form whose determinant is sampled for zeros load it, so the contract is not
met vacuously by a numpy that never loads.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

MALFORMED = "chart base=(y1*,y2*) fibre=(p)\nomega = gotay(dy1/\\dy2\n"
VARYING_DET = (
    "chart base=(y1*,y2*,q*) fibre=(p)\n"
    "omega = gotay((2 + cos(2*pi*y1))*dy1/\\dy2, q)\n"
    "check omega_le omega 1\n"
)


def _fresh(body: str) -> str:
    """What ``body`` prints, then whether numpy is loaded, from a new interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{body}\nprint('numpy' in sys.modules)\n"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return " ".join(done.stdout.split())


@pytest.mark.parametrize("module", ["coisokit", "coisokit.cli"])
def test_import_loads_no_numpy(module):
    assert _fresh(f"import {module}") == "False"


@pytest.mark.parametrize(
    "scenario, printed",
    [
        (DATA / "t4_exact.scn", "0 False"),
        (MALFORMED, "2 False"),
        (DATA / "t4.scn", "0 True"),
        (VARYING_DET, "0 True"),
    ],
    ids=["all_exact", "malformed", "t4", "varying_determinant"],
)
def test_a_run_loads_numpy_only_for_numeric_work(scenario, printed, tmp_path):
    """``printed`` is the exit code of ``coisokit run``, then whether numpy is loaded."""
    if isinstance(scenario, str):
        (tmp_path / "case.scn").write_text(scenario, encoding="utf-8")
        scenario = tmp_path / "case.scn"
    argv = ["run", str(scenario), "--out", str(tmp_path / "report.txt")]
    assert _fresh(f"from coisokit import cli\nprint(cli.main({argv!r}))") == printed
