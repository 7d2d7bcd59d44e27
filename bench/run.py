"""coiso-kit benchmark: one closed-loop caller running a seeded workload.

    python3 bench/run.py --workload exact_series --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` and ``tests/data`` supplies the golden T^4 scenario and report.
One caller in one process starts the next op only after the previous one
returns.  Ops run in whole cycles of the workload's strata; the run ends at
the cycle boundary nearest ``--seconds`` of wall time.  Untraced runs also
time the set-up in a child interpreter, between cycles, while no op runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced, alternating which goes first, and prints the
per-layer split of the traced executions (per op) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run details (environment, tail percentile, sample counts).  Any
failed op (gate false or exception) makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-ups timed per untraced run: one before the first cycle, the rest spread
# over the run at cycle boundaries, since the machine's speed drifts over seconds
SETUP_SAMPLES = 8
TAIL_BEYOND = 10
# the reference kernel is timed before an op once this much wall time has
# passed since its last timing
REF_INTERVAL_S = 0.05
# an op's time is divided by the mean reference time over the op and this
# much wall time on either side: the machine's speed drifts within a run, so
# a run-wide mean left the slow phases in the tail
REF_WINDOW_S = 0.5
WORKLOAD_NAMES = ("exact_series", "torus_scenarios", "jet_pencil")
_F0 = Fraction(0)


# run by a fresh interpreter: argv = src dir, bench dir, workload, seed, cycle
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).cycle(int(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def setup(workload: str, seed: int):
    """Import the workloads and generate the first cycle: (wl, inputs)."""
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload](seed)
    return wl, wl.cycle(0)


def fresh_setup_seconds(workload: str, seed: int, cycle: int) -> float:
    """Set-up time as a user pays it: a fresh interpreter imports the library
    (numpy included) and generates one cycle's inputs."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, HERE, workload, str(seed), str(cycle)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def reference_kernel():
    """Fixed pure-Python work, about 1 ms: Fraction products and dict updates.

    It runs no library code, so its time measures only how fast the machine
    runs the interpreter at that moment.
    """
    acc = {}
    for i in range(1, 120):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, _F0) + Fraction(i, i + 1) * Fraction(3, i + 2)
    return acc


def tail_index(n: int) -> int:
    """Index of the highest order statistic with TAIL_BEYOND samples above it."""
    return max(0, n - TAIL_BEYOND - 1)


class Outcome:
    """Per-op latencies and failure count of one measured run."""

    def __init__(self):
        self.latencies = []
        self.starts = []  # perf_counter() at each op's start
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.errors = []
        self.setup_times = []
        self.ref_samples = []  # (perf_counter() when done, kernel seconds)

    def sample_reference(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.ref_samples.append((t1, t1 - t0))

    def ref_latencies(self) -> list:
        """Each op's time over the mean reference time within REF_WINDOW_S of it.

        ``measure`` times the kernel at most REF_INTERVAL_S before each op
        starts, so no window is empty.
        """
        stamps = [t for t, _ in self.ref_samples]
        out = []
        for start, seconds in zip(self.starts, self.latencies):
            lo = bisect_left(stamps, start - REF_WINDOW_S)
            hi = bisect_right(stamps, start + seconds + REF_WINDOW_S)
            out.append(seconds / statistics.fmean(k for _, k in self.ref_samples[lo:hi]))
        return out

    def record(self, start: float, ok: bool, seconds: float, error=None):
        self.attempted += 1
        self.starts.append(start)
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
            if error is not None and len(self.errors) < 5:
                self.errors.append(error)


def timed_op(wl, inp):
    """Run one op; (ok, seconds, error text).  Exceptions count as failures."""
    t0 = time.perf_counter()
    try:
        result = wl.run_op(inp)
    except Exception:  # a raising op is a failed op; the run goes on
        return False, time.perf_counter() - t0, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(wl.check(inp, result))
    except Exception:
        return False, elapsed, traceback.format_exc(limit=3)
    return ok, elapsed, None if ok else f"gate failed on {wl.serialize(inp)[:200]!r}"


def paired_op(wl, inp, tracer, traced: list, traced_first: bool):
    """Run one op untraced and traced; append the traced time, return the untraced outcome."""
    results = {}
    for traced_pass in (traced_first, not traced_first):
        if traced_pass:
            tracer.install()
        try:
            results[traced_pass] = timed_op(wl, inp)
        finally:
            if traced_pass:
                tracer.uninstall()
    ok_u, untraced_s, err_u = results[False]
    ok_t, traced_s, err_t = results[True]
    traced.append(traced_s)
    return ok_u and ok_t, untraced_s, err_u or err_t


def measure(wl, first_cycle, seconds: float, tracer=None, setup_probe=None):
    """Whole cycles, ending at the cycle boundary nearest ``seconds`` of wall time.

    With a tracer every op runs twice, untraced and traced; the outcome holds
    the untraced latencies and ``traced`` the traced ones.  The reference
    kernel is timed before an op once ``REF_INTERVAL_S`` have passed since
    its last timing.  ``setup_probe(c)``,
    when given, is called at a boundary every ``seconds / SETUP_SAMPLES``;
    the set-up times it returns land in ``out.setup_times``.
    """
    out, traced = Outcome(), []
    start = time.perf_counter()
    deadline, next_setup = start + seconds, start + seconds / SETUP_SAMPLES
    inputs, c = first_cycle, 0
    while True:
        cycle_start = time.perf_counter()
        for inp in inputs:
            if (not out.ref_samples
                    or time.perf_counter() - out.ref_samples[-1][0] >= REF_INTERVAL_S):
                out.sample_reference()
            op_start = time.perf_counter()
            if tracer is None:
                out.record(op_start, *timed_op(wl, inp))
            else:
                traced_first = out.attempted % 2 == 1
                out.record(op_start, *paired_op(wl, inp, tracer, traced, traced_first))
        out.cycles += 1
        c += 1
        now = time.perf_counter()
        if deadline - now <= (now - cycle_start) / 2:
            return out, traced
        if setup_probe is not None and now >= next_setup:
            out.setup_times.append(setup_probe(c))
            next_setup += seconds / SETUP_SAMPLES
        inputs = wl.cycle(c)


def environment() -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def end_to_end_metrics(out: Outcome, setup_s: float) -> tuple[dict, dict]:
    lat = sorted(out.latencies)
    rel = sorted(out.ref_latencies())
    n = len(lat)
    good = out.attempted - out.failed
    tail_i = tail_index(n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (1e3 * good / sum(rel), "1/kref"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "op_tail_ref": (rel[tail_i], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "ref_ms": 1e3 * statistics.fmean(k for _, k in out.ref_samples),
        "ops_per_s": good / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[tail_i],
        "tail_percentile": round(100.0 * (tail_i + 1) / n, 2),
        "tail_samples_beyond": n - tail_i - 1,
        "samples": n,
        "cycles": out.cycles,
        "fail_frac": out.failed / out.attempted,
    }
    return metrics, details


def per_layer_metrics(tracer, out: Outcome, traced: list) -> tuple[dict, dict]:
    import tracing

    n = len(traced)
    traced_s, untraced_s = sum(traced), sum(out.latencies)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        st = tracer.stats[name]
        metrics[f"{name}.calls"] = (st.calls / n, "count/op")
        metrics[f"{name}.self_s"] = (st.self_time / n, "s/op")
        metrics[f"{name}.total_s"] = (st.total / n, "s/op")
    for name, value in tracer.counters.items():
        metrics[name] = (value / n, "count/op")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    metrics["trace.coverage_frac"] = (tracer.root_time / traced_s, "frac")
    details = {
        "samples": n,
        "cycles": out.cycles,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "top_self_time": tracer.ranking()[:5],
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the library under test is the checkout's own source tree, never an
    # installed copy; without it (or its golden data) there is nothing to run
    if not os.path.isfile(os.path.join(SRC, "coisokit", "__init__.py")):
        print(f"error: no coisokit source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    env = environment()
    wl, first = setup(args.workload, args.seed)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        out, traced = measure(wl, first, args.seconds, tracer)
        metrics, details = per_layer_metrics(tracer, out, traced)
    else:
        def probe(c):
            return fresh_setup_seconds(args.workload, args.seed, c)

        first_setup_s = probe(0)
        out, _ = measure(wl, first, args.seconds, setup_probe=probe)
        times = [first_setup_s] + out.setup_times
        metrics, details = end_to_end_metrics(out, statistics.median(times))
        details["setup_runs_s"] = times
    for err in out.errors:
        print(err, file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, env=env)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
