"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/spread.py                       # all workloads, seeds 1-10, run_seconds
    python3 perfbench/spread.py --workloads decide --seeds 1-5
    python3 perfbench/spread.py --trace 1 --seeds 1-2 --out perfbench/reference/x.json

Each run is a separate ``run.py`` process.  For every workload and metric
the table gives the unit, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
interquartile distance as a share of the median.  It also prints
``fail_share`` per workload, the share of items that failed or went
unanswered.  ``--out`` writes the runs, the summary and the platform to a
JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("decide", "families", "certify", "cli")


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    fail_share = float(lines[-2].split("fail_share=")[1].split()[0])
    return {"seed": seed, "wall_s": wall, "fail_share": fail_share, **result}


def summarize(runs):
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        rows[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="a seed or an inclusive range such as 1-10")
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {
        "platform": {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine()},
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seed_list(args.seeds)]
        summary = summarize(runs)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        failed = sum(r["failed"] for r in runs)
        shares = [r["fail_share"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, failed items {failed}, fail_share median "
              f"{statistics.median(shares):.4f}, wall per run {statistics.median(r['wall_s'] for r in runs):.1f} s", flush=True)
        print(f"  {'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in summary.items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:32} {row['unit']:6} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} {spread:>8}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
