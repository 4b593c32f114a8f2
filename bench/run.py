"""Benchmark of the sumprod workbench; prints one JSON result line.

    python3 bench/run.py --workload chain_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
last line of stdout is {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  End-to-end times are CPU times scaled to a reference
speed (see `Calibration`).  A detail line (reference-loop timings,
calibration, unscaled figures, slowest operations, failures) goes to
stderr, and a traced run writes its spans to bench/_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy's BLAS starts one spinning thread per core at import, though
# sumprod makes no BLAS call; on a shared 2-core host those threads add
# 0.05-0.1 s of CPU time to every import, varying from one to the next.
# Every process of the benchmark inherits this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
WORKLOAD_NAMES = ("chain_sweep", "large_field", "extremal_search", "cli_batch")
SETUP_REPS = 9
IMPORTTIME_REPS = 3
CALIBRATE_ITERATIONS = 100_000
CALIBRATE_EVERY_NS = 250_000_000
IN_OP_ITERATIONS = 20_000
IN_OP_EVERY_S = 0.1
REFERENCE_MS = 50.0  # the reference loop's CPU time per million iterations

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.process_time()
import {module}
from sumprod import make_field
for p in {primes!r}:
    make_field(p)
print(time.process_time() - t0)
"""


def reference_loop_ms(iterations: int = 1_000_000) -> float:
    """CPU time of a fixed pure-Python loop, in ms per million iterations.

    Recorded at the start and end of every run, and in short pieces all
    through it (see `Calibration`), to tell how fast the machine was.
    """
    t0 = time.thread_time_ns()
    x = 0
    for i in range(iterations):
        x += i & 7
    return (time.thread_time_ns() - t0) / iterations


class Calibration:
    """How fast this machine runs Python during a run.

    On a shared host the CPU time of the same code moves by a third from
    one minute to the next, and switches between a fast and a slow state
    within a second.  A short reference loop is timed every
    CALIBRATE_EVERY_NS between operations, and, while the timed phase runs
    untraced, every IN_OP_EVERY_S of this process's CPU time inside them,
    from a SIGPROF handler.  A run's times are reported scaled by
    REFERENCE_MS over the mean of all these samples, i.e. as if the loop
    took REFERENCE_MS per million iterations.  The CPU time the loops take
    inside an operation is in `spent_ns`, to be taken out of its time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_ns = 0
        self.due = 0
        self.busy = False

    def _take(self, iterations):
        if self.busy:  # a SIGPROF during a loop started between operations
            return
        self.busy = True
        t0 = time.thread_time_ns()
        self.samples.append(reference_loop_ms(iterations))
        self.spent_ns += time.thread_time_ns() - t0
        self.busy = False

    def between_ops(self):
        if time.perf_counter_ns() >= self.due:
            self._take(CALIBRATE_ITERATIONS)
            self.due = time.perf_counter_ns() + CALIBRATE_EVERY_NS

    def start_in_op(self):
        # while a process CPU timer is armed the kernel updates the process
        # CPU clock only at ticks, so operations are timed with thread_time
        signal.signal(signal.SIGPROF, lambda *_: self._take(IN_OP_ITERATIONS))
        signal.setitimer(signal.ITIMER_PROF, IN_OP_EVERY_S, IN_OP_EVERY_S)

    def stop_in_op(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self) -> float:
        return REFERENCE_MS / statistics.mean(self.samples)


def cpu_ns() -> int:
    """CPU time of this thread and of every child process it has waited for.

    The program runs in this thread alone (with OPENBLAS_NUM_THREADS=1 and
    no worker pool).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)


def measure_setup(module: str, primes, calibration: Calibration) -> float:
    """Median CPU time over fresh interpreters of importing `module` and
    building every field; a first, untimed import writes the bytecode cache."""
    code = SETUP_CODE.format(src=str(SRC), module=module, primes=tuple(primes))
    _python(code)
    samples = []
    for _ in range(SETUP_REPS):
        calibration.between_ops()
        samples.append(float(_python(code).stdout))
    return statistics.median(samples)


def measure_imports() -> tuple[float, float]:
    """(import of sumprod.cli, import of numpy) in s, from -X importtime."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import sumprod.cli"
    total, numpy = [], []
    for _ in range(IMPORTTIME_REPS):
        err = _python(code, "-X", "importtime").stderr
        # "import time: <self us> | <cumulative us> | <indent><module>"
        rows = re.findall(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", err)
        total.append(sum(int(c) for c, ind, m in rows
                         if m.split(".")[0] == "sumprod" and len(ind) == 1) / 1e6)
        numpy.append(sum(int(c) for c, _, m in rows if m == "numpy") / 1e6)
    return statistics.median(total), statistics.median(numpy)


def run_ops(ops, rounds, tracer, calibration):
    """The timed phase: every operation once per round, one at a time.

    Returns the wall time and the CPU time of every operation, in ns; the
    CPU time counts child processes too, so a CLI operation costs what
    its process used.  Calibration loops run between operations and, from
    SIGPROF, inside them; their CPU time is taken out of the operation's.
    """
    wall, cpu, results = [], [], [dict() for _ in range(rounds)]
    clock = time.perf_counter_ns
    for r in range(rounds):
        for op in ops:
            calibration.between_ops()
            if tracer is not None:
                tracer.begin_op()
            s0 = calibration.spent_ns
            c0 = cpu_ns()
            t0 = clock()
            try:
                res = op.call()
            except Exception as exc:  # an operation that raises counts as failed
                res = exc
            dt = clock() - t0
            dc = cpu_ns() - c0 - (calibration.spent_ns - s0)
            if tracer is not None:
                tracer.end_op(dt)
            wall.append(dt)
            cpu.append(dc)
            results[r][op.label] = res
    return wall, cpu, results


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def check_ops(ops, results) -> list[str]:
    """Labels of failed operations, over all rounds.

    The first round is checked against the oracles; later rounds must
    repeat its results exactly.
    """
    failed = []
    first = results[0]
    for op in ops:
        res = first[op.label]
        try:
            ok = not isinstance(res, Exception) and bool(op.check(res, first))
        except Exception:  # a check that cannot run on the result is a failure
            ok = False
        for later in results[1:]:
            same = not isinstance(later[op.label], Exception) and later[op.label] == res
            if not (ok and same):
                failed.append(op.label)
        if not ok:
            failed.append(op.label)
    return failed


def self_time_check(metrics) -> dict:
    """Do the spans account for the traced wall time?

    The layers' self times, the tracer's own bookkeeping and the time no
    span covers add up to trace.wall_s.  The uncovered time is the
    benchmark's own code between calls (in cli_batch, the parent's
    handling of each child's output), which should be smaller than the
    measured tracing overhead.
    """
    wall = metrics["trace.wall_s"][0]
    layers = sum(metrics[f"{layer}.self_s"][0]
                 for layer in ("core", "energy", "lemmas", "chains", "search", "cli"))
    uncovered, overhead = metrics["trace.uncovered_s"][0], metrics["trace.overhead_s"][0]
    return {"wall_s": wall, "layers_s": layers, "overhead_s": overhead,
            "uncovered_s": uncovered, "ok": uncovered <= overhead}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "sumprod" / "__init__.py").is_file():
        print(f"error: no sumprod package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    loop_start = reference_loop_ms()

    from workloads import WORKLOADS  # imports sumprod from ./src

    import sumprod

    if Path(sumprod.__file__).resolve().parent != SRC / "sumprod":
        print(f"error: sumprod imported from {sumprod.__file__}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # writes the bytecode cache of what the workload's processes import, so
    # that no timed CLI process compiles it (set-up is measured after the
    # timed phase, see below)
    importlib.import_module(wl.setup_module)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        ops = wl.make_ops(args.seed, tmp, tracer)
        rounds = max(1, round(args.seconds / wl.round_s))
        calibration = Calibration()
        if tracer is None:
            calibration.start_in_op()
        try:
            wall_ns, cpu_ns_, results = run_ops(ops, rounds, tracer, calibration)
        finally:
            calibration.stop_in_op()
        # read before any other child process is waited for: for cli_batch,
        # the largest of the CLI processes
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_batch" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        failed = check_ops(ops, results)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_cpu_s = measure_setup(wl.setup_module, wl.setup_primes, calibration)
    scale = calibration.scale()
    cpu_ms = [ns / 1e6 for ns in cpu_ns_]
    by_op = {}
    for op, ms in zip(ops * rounds, cpu_ms):
        by_op.setdefault(op.label, []).append(ms)
    slowest = sorted(((statistics.median(v), k) for k, v in by_op.items()), reverse=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops_per_round": len(ops), "samples": len(cpu_ms),
        "reference_loop_ms": [loop_start, reference_loop_ms()],
        "calibration_ms": [min(calibration.samples), statistics.median(calibration.samples),
                           statistics.mean(calibration.samples), max(calibration.samples),
                           len(calibration.samples)],
        "unscaled": {"wall_s": sum(wall_ns) / 1e9, "cpu_s": sum(cpu_ms) / 1e3,
                     "setup_cpu_s": setup_cpu_s, "cpu_p50_ms": statistics.median(cpu_ms),
                     "cpu_p90_ms": percentile_90(cpu_ms)},
        "slowest_cpu_ms": {k: round(v, 3) for v, k in slowest[:12]},
        "failed": failed[:10],
    }
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(*measure_imports())
        detail["self_time_check"] = self_time_check(metrics)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "first_operation_spans": tracer.first_spans,
        }))
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_cpu_s * scale, "s"),
            "cpu_s": (sum(cpu_ms) / 1e3 * scale, "s"),
            "cpu_p50_ms": (statistics.median(cpu_ms) * scale, "ms"),
            "cpu_p90_ms": (percentile_90(cpu_ms) * scale, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(cpu_ms),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
