#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
print every end-to-end metric's median and quartiles against its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed0 1]

Run from the repository root.  The spread is (Q3 - Q1) / median with
Python's statistics.quantiles(values, n=4); a metric is flagged when its
spread exceeds a third of its bound, the target, and fails when it
exceeds the bound itself (setup_s, whose bound applies to its median
only, is reported but neither flagged nor failed).  Exits 1 when a run
fails, reports incorrect output, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace=0):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--verbose", action="store_true", help="also print every run's values")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values = {m: [] for m in bounds}
        walls = []
        for i in range(args.runs):
            res, wall = run_once(w, args.seed0 + i, args.seconds)
            walls.append(wall)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {args.seed0 + i}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        print(f"== {w}: {args.runs} runs, {statistics.median(walls):.1f} s median wall per run")
        for m, bound in bounds.items():
            v = values[m]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med
            if m == "setup_s" or spread <= bound / 3:
                flag = ""
            elif spread <= bound:
                flag = "  <-- above bound/3"
            else:
                flag = "  <-- ABOVE BOUND"
                ok = False
            print(f"  {m:16s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in v))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
