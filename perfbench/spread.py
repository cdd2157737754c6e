"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [--out FILE.json]

Runs ``perfbench/run.py`` once per workload of BENCHMARK.json and seed,
for ``run_seconds`` each, one process at a time, from the root of the
checkout.  For every metric it prints the median and the quartile spread
(Q3 - Q1 over the median, with quartiles from
``statistics.quantiles(values, n=4)``) with its unit, and checks that
each spread stays within the metric's bound in BENCHMARK.json and that
every run was correct.  ``--out`` also writes the runs, the summary
and the host (CPU count, Python version, git revision) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def host() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "git_rev": rev}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary here as JSON")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"]
    report = {"host": host(), "seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed in seed_range(args.seeds):
            res = run_once(workload, seed, seconds, args.trace)
            runs[seed] = res
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        summary = {}
        for m in metrics:
            summary[m["name"]] = s = summarise([r["metrics"][m["name"]]["value"] for r in runs.values()])
            bound = m.get("bound")
            within = bound is None or s["spread"] <= bound
            ok &= within
            print(f"  {m['name']:36s} median {s['median']:<14.6g} {m['unit']:9s} "
                  f"spread {s['spread']:7.2%}" + ("" if bound is None else f"  bound {bound:.0%}")
                  + ("" if within else "  OUTSIDE BOUND"), flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
