"""The number of Schouten brackets the benchmark's torus scenarios take.

Each algebra memoises lambda_1 and lambda_2, so a scenario's mc, kuranishi
and jacobi checks share brackets.  A change that makes that memo miss shows
here as a larger count, not only as a slower benchmark run.  The scenarios
come from ``bench/workloads.py``, which is imported read-only, as
``test_bench_spans.py`` imports ``bench/tracing.py``.
"""

import importlib.util
import os
import sys

from coisokit import multivector

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_torus_scenarios_take_the_pinned_number_of_brackets(monkeypatch):
    original = multivector.schouten_bracket
    calls = []

    def counting(X, Y):
        calls.append(None)
        return original(X, Y)

    for name, module in list(sys.modules.items()):
        if name == "coisokit" or name.startswith("coisokit."):
            if getattr(module, "schouten_bracket", None) is original:
                monkeypatch.setattr(module, "schouten_bracket", counting)
    bench = workloads.TorusScenarios(501)
    t4 = []
    for cycle in range(5):
        for scenario in bench.cycle(cycle):
            before = len(calls)
            assert bench.check(scenario, bench.run_op(scenario))
            if scenario.name == workloads.T4_NAME:
                t4.append(len(calls) - before)
    # [pi, pi] at the inversion, the three brackets of the MC series and one
    # of the Jacobi check
    assert t4 == [5] * 5
    assert len(calls) == 336
