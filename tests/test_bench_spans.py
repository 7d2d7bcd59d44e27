"""Every span of the benchmark tracer names a function that still exists.

The tracer in ``bench/tracing.py`` looks each wrapped function up with
``vars(owner)[name]``, so renaming or moving one of them in ``src/`` breaks
traced benchmark runs; this test makes such a rename fail the main suite.
Nothing is timed.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_tracing().SPANS


@pytest.mark.parametrize(
    "module_name, path", [(m, p) for _, m, p, _ in SPANS], ids=[p for _, _, p, _ in SPANS]
)
def test_span_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = vars(owner)[cls_name]
    assert callable(vars(owner)[attr])
