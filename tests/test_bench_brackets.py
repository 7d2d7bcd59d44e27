"""The number of Schouten brackets and derivatives the benchmark takes.

Each algebra memoises lambda_1 and lambda_2, so a scenario's mc, kuranishi
and jacobi checks share brackets.  A change that makes that memo miss shows
here as a larger count, not only as a slower benchmark run.  Each bracket
differentiates each coefficient of its operands along a direction at most
once, so a change in how many derivatives the brackets take shows in the
``RingElement.partial`` counts.  The inputs come from
``bench/workloads.py``, which is imported read-only, as
``test_bench_spans.py`` imports ``bench/tracing.py``.
"""

import importlib.util
import os
import sys

import pytest

from coisokit import multivector
from coisokit.coeff_ring import RingElement

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _count_brackets(monkeypatch) -> list:
    """One entry per ``schouten_bracket`` call that coisokit makes from now on."""
    original = multivector.schouten_bracket
    calls = []

    def counting(X, Y):
        calls.append(None)
        return original(X, Y)

    for name, module in list(sys.modules.items()):
        if name == "coisokit" or name.startswith("coisokit."):
            if getattr(module, "schouten_bracket", None) is original:
                monkeypatch.setattr(module, "schouten_bracket", counting)
    return calls


def test_torus_scenarios_take_the_pinned_number_of_brackets(monkeypatch):
    calls = _count_brackets(monkeypatch)
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


# (RingElement.partial calls, schouten_bracket calls) in cycles 0, 1 and 2
# of each workload at seed 501
PINNED_CYCLES = {
    "exact_series": [(2220, 190), (2108, 194), (2030, 184)],
    "torus_scenarios": [(3150, 59), (3287, 68), (3371, 71)],
    "jet_pencil": [(632, 26), (610, 26), (654, 26)],
}


@pytest.mark.parametrize("name", sorted(PINNED_CYCLES))
def test_each_cycle_takes_the_pinned_number_of_derivatives(name, monkeypatch):
    brackets = _count_brackets(monkeypatch)
    original = RingElement.partial
    partials = []

    def counting(self, direction):
        partials.append(None)
        return original(self, direction)

    monkeypatch.setattr(RingElement, "partial", counting)
    bench = workloads.WORKLOADS[name](501)
    counts = []
    for cycle in range(3):
        del partials[:], brackets[:]
        for op in bench.cycle(cycle):
            assert bench.check(op, bench.run_op(op))
        counts.append((len(partials), len(brackets)))
    assert counts == PINNED_CYCLES[name]
