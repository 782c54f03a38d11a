"""The gridcast benchmark: one command, four workloads, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload construct-dense --seed 1 --seconds 20 --trace 0

It imports gridcast from ``src/`` of the checkout and drives the CLI in
process (``gridcast.cli.main``), in a closed loop with one client and no
extra threads: the next operation starts when the previous one has returned
and its output has been checked. Runs are whole passes over the workload's
nine inputs, repeated until ``--seconds`` have elapsed. End-to-end times are
scaled by a calibration loop timed around each of them (see ``calibrated``).

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
runs every input untraced and then traced, and prints the per-layer metrics
of the traced operations (see ``bench_trace``). The last stdout line is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so that no BLAS or OpenMP thread pool starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_trace
from bench_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# What calibrate() takes on the machine the benchmark was defined on (an
# Intel Xeon VM with 2 vCPUs, Python 3.11) when no other tenant slows it.
REFERENCE_CALIBRATION_S = 0.007
# One tail percentile for every workload, so that a later commit that fits
# more operations into a run is compared at the same percentile. 20 s runs of
# the parent commit hold 45 to 72 operations, so at least 11 lie beyond p75.
TAIL_PERCENTILE = 75


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def import_gridcast():
    """A fresh import of gridcast.cli from the checkout's src/."""
    for name in [n for n in sys.modules if n == "gridcast" or n.startswith("gridcast.")]:
        del sys.modules[name]
    cli = importlib.import_module("gridcast.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported gridcast from {cli.__file__}, not from {SRC}")
    return cli


def calibrate() -> float:
    """Seconds that a fixed interpreter-bound task takes: the machine's speed now."""
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    start = perf_counter()
    for i in range(40_000):
        key = (i * 7919) & 1023
        table[key] += 1
        acc += table[key] ^ i
    return perf_counter() - start


def calibrated(measure):
    """Run measure() -> (seconds, result); scale the seconds to the reference speed.

    Other tenants of a shared machine slow the interpreter by up to 1.8x for
    stretches of seconds to minutes, and CPU time slows with it. The
    calibrations just before and just after the measurement gauge how slow.
    """
    before = calibrate()
    elapsed, result = measure()
    after = calibrate()
    if elapsed is None:
        return None, result
    return elapsed * 2 * REFERENCE_CALIBRATION_S / (before + after), result


def measure_setup(workload, cases, workdir: Path) -> tuple[float, object]:
    """Median over SETUP_REPEATS of a fresh import plus the workload's first calls."""
    def once():
        start = perf_counter()
        cli = import_gridcast()
        workload.warm_up(cli.main, cases, workdir)
        return perf_counter() - start, cli

    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli = calibrated(once)
        times.append(elapsed)
    return statistics.median(times), cli


class SolveCapture:
    """Keeps the SolveResult the CLI's exact command got, for the witness check.

    It only stores the return value: no clock is read.
    """

    def __init__(self, cli) -> None:
        self.result = None
        original = cli.exact_gamma

        def capture(*args, **kwargs):
            self.result = original(*args, **kwargs)
            return self.result

        cli.exact_gamma = capture


def run_op(main, op, capture: SolveCapture) -> tuple[float | None, str | None]:
    """(seconds, failure): one timed CLI call, then its untimed check."""
    capture.result = None
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            rc = main(list(op.argv))
            elapsed = perf_counter() - start
    except Exception as exc:  # a raising operation is a failed one
        return None, f"raised {exc!r}"
    try:
        return elapsed, op.check(rc, out.getvalue(), err.getvalue(), capture.result)
    except Exception as exc:  # output the check cannot even read
        return elapsed, f"unreadable output: {exc!r}"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{op.label}: {failure}")


def passes(ops, seconds: float):
    """Yield every op of whole passes until `seconds` of wall time have passed."""
    start = perf_counter()
    while True:
        yield from ops
        if perf_counter() - start >= seconds:
            return


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def end_to_end(cli, ops, seconds: float, setup_s: float, tally: Tally) -> dict:
    capture = SolveCapture(cli)
    times: list[list[float]] = [[] for _ in ops]
    for index, op in passes(list(enumerate(ops)), seconds):
        elapsed, failure = calibrated(lambda: run_op(cli.main, op, capture))
        tally.record(op, failure)
        if elapsed is not None:
            times[index].append(elapsed)
    # Every sample is replaced by its input's median, so that the quantiles of
    # the mix fall on inputs rather than on what is left of the noise.
    samples = [statistics.median(input_times) for input_times in times for _ in input_times]
    if samples:
        beyond = len(samples) - math.ceil(TAIL_PERCENTILE / 100 * len(samples))
        print(f"samples={len(samples)} passes={max(map(len, times))} tail=p{TAIL_PERCENTILE} "
              f"samples_beyond_tail={beyond}")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / sum(samples) if samples else 0.0,
        "op_p50_s": statistics.median(samples) if samples else 0.0,
        "op_tail_s": percentile(samples, TAIL_PERCENTILE) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(cli, ops, seconds: float, tally: Tally) -> dict:
    """Each input untraced, then traced; per-operation means of the traced ones."""
    capture = SolveCapture(cli)
    tracer = bench_trace.Tracer()
    root = tracer.wrap(cli.main, "cli.main", "cli")
    plain_total = traced_total = 0.0
    traced_ops = 0
    for op in passes(ops, seconds):
        plain, failure = run_op(cli.main, op, capture)
        tally.record(op, failure)
        with bench_trace.installed(tracer):
            traced, failure = run_op(root, op, capture)
        tracer.finish_op()
        tally.record(op, failure)
        if plain is not None and traced is not None:
            plain_total += plain
            traced_total += traced
            traced_ops += 1
    per_op = 1 / max(traced_ops, 1)
    inclusive, self_time, counts = tracer.inclusive, tracer.self_time, tracer.counts
    layers_total = sum(tracer.layer_self.values())
    metrics = {f"{layer}.self_s": tracer.layer_self[layer] * per_op for layer in bench_trace.LAYERS}
    metrics.update({
        "construct.anchor_sweep_s": inclusive["construct.anchor_sweep"] * per_op,
        "construct.anchors_scanned": counts["construct.anchors_scanned"] * per_op,
        "lattice.count_in_window_calls": tracer.calls["lattice.count_in_window"] * per_op,
        "construct.letterbox_self_s": self_time["construct.letterbox"] * per_op,
        "construct.replacements": counts["construct.replacements"] * per_op,
        "lattice.towers_in_window_s": inclusive["lattice.towers_in_window"] * per_op,
        "lattice.towers_emitted": counts["lattice.towers_emitted"] * per_op,
        "grid.towerset_s": inclusive["grid.towerset"] * per_op,
        "grid.towerset_items": counts["grid.towerset_items"] * per_op,
        "grid.signal_field_s": inclusive["grid.signal_field"] * per_op,
        "grid.signal_field_cell_updates": counts["grid.signal_field_cell_updates"] * per_op,
        "grid.check_broadcast_self_s":
            (self_time["grid.check_broadcast"] + self_time["solver.existence_check"]) * per_op,
        "grid.deficiencies_reported": counts["grid.deficiencies_reported"] * per_op,
        "document.serialize_s": inclusive["document.serialize"] * per_op,
        "document.bytes": counts["document.bytes"] * per_op,
        "document.parse_s": inclusive["document.parse"] * per_op,
        "solver.search_s": inclusive["solver.search"] * per_op,
        "solver.nodes": counts["solver.nodes"] * per_op,
        "solver.levels_tried": counts["solver.levels_tried"] * per_op,
        "solver.final_level_node_frac":
            counts["solver.final_level_nodes"] / counts["solver.nodes"] if counts["solver.nodes"] else 0.0,
        "solver.setup_s": counts["solver.setup_s"] * per_op,
        "solver.existence_check_s": inclusive["solver.existence_check"] * per_op,
        "tracing_overhead_frac": traced_total / plain_total - 1 if plain_total else 0.0,
        "trace.gap_frac": 1 - layers_total / traced_total if traced_total else 0.0,
    })
    print(f"traced_ops={traced_ops} untraced_s={plain_total:.6f} traced_s={traced_total:.6f}")
    return metrics


def load_spec() -> tuple[dict, dict]:
    """(unit per metric, reason per workload) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridcast" / "__init__.py").is_file():
        print(f"error: no gridcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units, whys = load_spec()

    workload = WORKLOADS[args.workload]
    print("env: " + json.dumps(environment()))
    print(f"workload: {workload.name}: {whys[workload.name]}")
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = workload.cases(args.seed)
        ops = workload.prepare(import_gridcast().main, cases, workdir, args.seed)
        setup_s, cli = measure_setup(workload, cases, workdir)
        tally = Tally()
        if args.trace:
            metrics = per_layer(cli, ops, args.seconds, tally)
        else:
            metrics = end_to_end(cli, ops, args.seconds, setup_s, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for failure in tally.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(tally.failures)
    print(f"attempted={tally.attempted} failed={failed} "
          f"failed_frac={failed / max(tally.attempted, 1):.6f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
