"""Self-test of the benchmark: gates have teeth, inputs follow the seed.

    python3 -m pytest -q bench/tests
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES


class OneCycle:
    """A workload reduced to the chosen inputs, with the gate's expected value corrupted."""

    def __init__(self, wl, inputs, corrupt):
        self.wl, self.inputs, self.corrupt = wl, inputs, corrupt

    def cycle(self, c):
        return self.inputs

    def run_op(self, inp):
        return self.wl.run_op(inp)

    def check(self, inp, result):
        return self.wl.check(inp, self.corrupt(inp, result))

    def serialize(self, inp):
        return self.wl.serialize(inp)


def count_failed(wl, inputs, corrupt):
    out, _ = run.measure(OneCycle(wl, inputs, corrupt), inputs, seconds=0)
    return out.attempted, out.failed


def _same(inp, result):
    return result


# -- gates ------------------------------------------------------------------------------


def test_exact_series_gate_counts_corrupted_identities():
    wl, first = run.setup("exact_series", 0)
    trials = first[:3]
    assert count_failed(wl, trials, _same) == (3, 0)

    def bad_series(inp, result):
        via_exp, push0, series, p_push = result
        return via_exp, push0, series + series + inp.alpha.map_coefficients(
            lambda c: c * 0 + 1
        ), p_push

    def bad_pushforward(inp, result):
        via_exp, push0, series, p_push = result
        return via_exp, push0 + via_exp, series, p_push

    assert count_failed(wl, trials, bad_series) == (3, 3)
    assert count_failed(wl, trials, bad_pushforward) == (3, 3)


def test_torus_t4_gate_needs_the_golden_bytes():
    wl, first = run.setup("torus_scenarios", 0)
    t4 = [first[0]]
    assert count_failed(wl, t4, _same) == (1, 0)
    golden = wl.t4_report
    wl.t4_report = golden.replace("verdict: NONZERO", "verdict: NONZER0")
    assert count_failed(wl, t4, _same) == (1, 1)
    wl.t4_report = golden + "\n"
    assert count_failed(wl, t4, _same) == (1, 1)


@pytest.mark.parametrize(
    "old,new",
    [
        ("exact_match: true", "exact_match: false"),
        ("order_2: ok", "order_2: violated"),
        ("verdict: NONZERO", "verdict: INCONCLUSIVE"),
        ("coisotropic c: pass", "coisotropic c: fail"),
        ("    mc: 0\n", "    mc: 1\n"),
    ],
)
def test_torus_generated_gate_counts_corrupted_reports(old, new):
    wl, first = run.setup("torus_scenarios", 0)
    # the (k=2, r=2) model: one-coordinate section, kuranishi check, cheap grid
    scenario = next(s for s in first if "_k2_r2" in s.name)

    def corrupt(inp, text):
        assert old in text
        return text.replace(old, new, 1)

    assert count_failed(wl, [scenario], _same) == (1, 0)
    assert count_failed(wl, [scenario], corrupt) == (1, 1)


@pytest.mark.parametrize("label", ["jacobi s0", "kuranishi a"])
def test_torus_generated_gate_counts_a_missing_check(label):
    wl, first = run.setup("torus_scenarios", 0)
    scenario = next(s for s in first if "_k2_r2" in s.name)

    def drop_block(inp, text):
        kept, dropping = [], False
        for line in text.splitlines(keepends=True):
            if line.startswith("["):
                dropping = f"] {label}: " in line
            elif not line.startswith("    "):
                dropping = False
            if not dropping:
                kept.append(line)
        assert len(kept) < len(text.splitlines())
        return "".join(kept)

    assert count_failed(wl, [scenario], drop_block) == (1, 1)


def test_jet_gate_counts_lost_accuracy_and_lost_teeth():
    wl, first = run.setup("jet_pencil", 0)
    jet = [first[0]]
    assert count_failed(wl, jet, _same) == (1, 0)
    assert count_failed(wl, jet, lambda i, r: (1e-6, r[1])) == (1, 1)
    assert count_failed(wl, jet, lambda i, r: (r[0], 1e-5)) == (1, 1)


def test_pencil_gate_counts_a_corrupted_inverse():
    wl, first = run.setup("jet_pencil", 0)
    pencil = [first[1]]
    assert count_failed(wl, pencil, _same) == (1, 0)
    coisokit = sys.modules["coisokit"]

    def corrupt(inp, defect):
        p = coisokit.AffinePencil.from_rationals(inp.a, inp.b, ("v1",))
        inverse = [list(row) for row in coisokit.invert_affine_pencil(p, 6)]
        inverse[0][0] = inverse[0][0] + 1
        return coisokit.pencil_product_defect(p, tuple(map(tuple, inverse)), 6)

    assert count_failed(wl, pencil, corrupt) == (1, 1)


def test_raising_op_is_a_failed_op_and_the_run_goes_on():
    wl, first = run.setup("jet_pencil", 0)

    class Raising(OneCycle):
        def run_op(self, inp):
            if inp is self.inputs[0]:
                raise ValueError("deliberate")
            return super().run_op(inp)

    inputs = [first[1], first[3]]
    out, _ = run.measure(Raising(wl, inputs, _same), inputs, seconds=0)
    assert (out.attempted, out.failed) == (2, 1)


# -- seeds ------------------------------------------------------------------------------


def digest(workload, seed, cycles=2):
    wl, _ = run.setup(workload, seed)
    h = hashlib.sha256()
    for c in range(cycles):
        for inp in wl.cycle(c):
            h.update(wl.serialize(inp))
    return h.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_regenerates_byte_identical_inputs(workload):
    first = digest(workload, 7)
    assert digest(workload, 7) == first
    assert digest(workload, 8) != first
    # another process, with another string-hash seed, draws the same bytes
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import test_bench; "
        f"print(test_bench.digest({workload!r}, 7))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run(
        [sys.executable, "-c", code, os.path.join(os.path.dirname(BENCH), "src"),
         os.path.join(BENCH, "tests")],
        capture_output=True, text=True, env=env, cwd=BENCH, timeout=120, check=True,
    )
    assert other.stdout.split()[-1] == first


def top_layers(workload, seed, n=3):
    wl, first = run.setup(workload, seed)
    tracer = tracing.Tracer()
    run.measure(wl, first, seconds=0, tracer=tracer)
    return tracer.ranking()[:n]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_keeps_the_top_three_layers(workload):
    assert top_layers(workload, 1) == top_layers(workload, 2)


def test_setup_probe_times_a_fresh_interpreter():
    assert 0 < run.fresh_setup_seconds("jet_pencil", 0, 0) < 60


def test_op_time_is_divided_by_the_reference_time_around_it():
    out = run.Outcome()
    out.ref_samples += [(0.0, 0.001), (10.0, 0.002), (10.1, 0.004), (10.2, 0.008)]
    out.record(0.1, True, 0.01)
    out.record(9.6, True, 0.01)
    assert out.ref_latencies() == pytest.approx([10.0, 0.01 / 0.003])


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = run.Outcome()
    out.ref_samples.append((0.0, 0.001))
    for _ in range(12):
        out.record(0.0, True, 0.01)
    e2e, _ = run.end_to_end_metrics(out, 0.1)
    layer, _ = run.per_layer_metrics(tracing.Tracer(), out, [0.02] * 12)
    for section, metrics in (("end_to_end", e2e), ("per_layer", layer)):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        assert wanted == {name: unit for name, (_, unit) in metrics.items()}
