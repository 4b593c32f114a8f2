"""Steadiness check: two interleaved sets of runs of the same code.

    python3 bench/steady.py [--workloads chain_sweep,cli_batch] [--first-seed 1]

For each workload, runs bench/run.py ten times, five in each of two sets
in the order A B A B ..., each run with its own seed and BENCHMARK.json's
run_seconds, and reports for every end-to-end metric each set's median
and quartiles, the spread (q3 - q1) / median against the metric's bound,
the pooled spread of all runs, and how far set B's median moved from set
A's.  A metric is in bound if the move, either way, and (except for
setup_s) both sets' spreads are within its bound.  Every run must end
with 0 failed operations.  Also reports the fixed reference loop timed at
the start and end of every run, which shows machine drift (it cannot be
subtracted).  Writes the full report to bench/_out/steady-<time>.json;
exits 1 if any check is out of bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_PER_SET = 5


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return result, detail


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def summarize(bench, runs):
    """Per-metric figures for one workload; runs: [(set, result, detail)]."""
    out = {"metrics": {}, "ok": True}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sets = {s: [r["metrics"][name]["value"] for t, r, _ in runs if t == s] for s in "AB"}
        row = {"bound": bound}
        for s, vals in sets.items():
            q1, med, q3 = quartiles(vals)
            row[s] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        row["pooled_spread"] = spread(sets["A"] + sets["B"])
        row["median_change"] = row["B"]["median"] / row["A"]["median"] - 1
        row["ok"] = abs(row["median_change"]) <= bound
        # setup_s is held to its median only: within a run its samples stay
        # close, but between runs it follows the machine's drift, which for
        # a quarter-second measurement is wider than the bound
        if name != "setup_s":
            row["ok"] &= all(row[s]["spread"] <= bound for s in "AB")
        out["ok"] &= row["ok"]
        out["metrics"][name] = row
    out["failed"] = [r["failed"] for _, r, _ in runs]
    out["ok"] &= not any(out["failed"]) and all(r["correct"] for _, r, _ in runs)
    out["reference_loop_ms"] = [d["reference_loop_ms"] for _, _, d in runs]
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(2 * RUNS_PER_SET):
            seed = args.first_seed + i
            result, detail = one_run(workload, seed, bench["run_seconds"])
            runs.append(("AB"[i % 2], result, detail))
            print(f"{workload} seed={seed} set={'AB'[i % 2]} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        report[workload] = summarize(bench, runs)
        report[workload]["runs"] = [
            {"set": s, "seed": args.first_seed + i, "result": r}
            for i, (s, r, _) in enumerate(runs)]
        for name, row in report[workload]["metrics"].items():
            print(f"  {name:16s} A {row['A']['median']:.4g} (spread {row['A']['spread']:.3f})"
                  f"  B {row['B']['median']:.4g} (spread {row['B']['spread']:.3f})"
                  f"  pooled {row['pooled_spread']:.3f}  B vs A {row['median_change']:+.3f}"
                  f"  bound {row['bound']}  {'ok' if row['ok'] else 'OUT OF BOUND'}")
        loops = report[workload]["reference_loop_ms"]
        print(f"  failed per run {report[workload]['failed']}; reference loop ms "
              f"{min(min(x) for x in loops):.1f}..{max(max(x) for x in loops):.1f}")
    out = BENCH_DIR / "_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path.relative_to(ROOT)}")
    return 0 if all(r["ok"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
