#!/usr/bin/env python3
"""Quick self-check of the benchmark: run every workload briefly, untraced
and traced, and assert that the result line has exactly the contract's
keys, that the run was correct with no failed operation, that every
metric BENCHMARK.json names is printed with its unit and is finite (and,
end to end, above zero), and that each traced run's Chrome trace loads
in `experiments timeline`.

    python3 perfbench/selfcheck.py [--seconds 1]

Run from the repository root; exits 1 on the first broken expectation.
"""

import argparse
import json
import math
import os
import subprocess
import sys

TRACE_FILES = {
    "oracle_cold": "oracle_cold.trace.json",
    "oracle_warm": "oracle_warm.trace.json",
    "figure_sweep": "figure_sweep.trace.json",
    "design_search": "design_search.trace.json",
}


def fail(msg):
    print("selfcheck: FAIL: " + msg)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = ["bash", "perfbench/run.sh", "--workload", name, "--seed", "7",
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                fail(f"{name} trace={trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(res)}")
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{name} trace={trace}: correct={res['correct']} failed={res['failed']}")
            if set(res["metrics"]) != {m["name"] for m in wanted}:
                fail(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = res["metrics"][m["name"]]
                v = got["value"]
                if got["unit"] != m["unit"] or not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail(f"{name}: {m['name']} = {got}")
                if trace == 0 and v <= 0:
                    fail(f"{name}: end-to-end {m['name']} is {v}")
            if trace == 1:
                path = os.path.join(".perfbench-work", TRACE_FILES[name])
                subprocess.run(["dune", "build", "--root", ".", "./bin/experiments.exe"],
                               check=True, capture_output=True)
                t = subprocess.run(["./_build/default/bin/experiments.exe", "timeline", path],
                                   capture_output=True, text=True)
                if t.returncode != 0:
                    fail(f"{name}: experiments timeline {path}: {t.stderr[-500:]}")
            print(f"selfcheck: {name} trace={trace}: ok ({res['attempted']} ops, "
                  f"{len(wanted)} metrics)")
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
