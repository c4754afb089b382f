#!/usr/bin/env python3
"""Steadiness report: repeated runs of one commit, per workload.

    python3 perfbench/steady.py --runs 10 [--workloads live-matrix,daemon-stream]

Runs perfbench/run.py once per seed (1, 2, ...) on each workload, then
prints every end-to-end metric's median, quartiles and spread (quartile
distance over the median, quartiles as statistics.quantiles(values, n=4)
gives them) next to its bound from BENCHMARK.json.  A spread at or under
a third of the bound is marked "steady".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    results = []
    for w in names:
        for seed in range(1, args.runs + 1):
            r = run_once(w, seed, bench["run_seconds"])
            results.append({"workload": w, "result": r})
            print("%s seed %d: correct=%s failed=%d/%d" % (
                w, seed, r["correct"], r["failed"], r["attempted"]), flush=True)
    print("%-15s %-13s %5s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"))
    for w in names:
        rows = [r["result"] for r in results if r["workload"] == w]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            verdict = "steady" if spread <= m["bound"] / 3 else (
                "ok" if spread <= m["bound"] else "WIDE")
            print("%-15s %-13s %5d %14.6g %14.6g %14.6g %8.4f %6.2f %s" % (
                w, m["name"], len(values), med, q1, q3, spread, m["bound"], verdict))


if __name__ == "__main__":
    main()
