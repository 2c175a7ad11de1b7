#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

Runs one workload twice with the same seed, untraced and traced, and
asserts that
  * every end-to-end metric of the second untraced run is within the
    metric's BENCHMARK.json bound of the first, and
  * the per-layer counts (phonecall.rounds, phonecall.tx_per_node,
    exp.artifact_bytes) repeat exactly between the two traced runs.

usage (from the repository root):
  python3 perfbench/tests/test_steadiness.py [--workload W] [--seed N]

A traced run profiles every workload, so the counts are checked whatever
--workload says; the default workload is the cheapest one. Exit status 0
means steady.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
COUNTS = ("phonecall.rounds", "phonecall.tx_per_node", "exp.artifact_bytes")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} (trace {trace}): correctness check failed: "
                 f"{result['failed']} of {result['attempted']}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="campaign_grid")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    problems = []
    first, second = (run(args.workload, args.seed, seconds, 0)
                     for _ in range(2))
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = first[name]["value"], second[name]["value"]
        drift = abs(b - a) / a
        print(f"{name:16s} {a:14.6g} {b:14.6g}  drift {drift:.4f} "
              f"(bound {bound})")
        if drift > bound:
            problems.append(f"{name} drifted {drift:.4f} > bound {bound}")

    traced = [run(args.workload, args.seed, seconds, 1) for _ in range(2)]
    for name in COUNTS:
        a, b = (t[name]["value"] for t in traced)
        print(f"{name:30s} {a!r:>14} {b!r:>14}")
        if a != b:
            problems.append(f"count {name} did not repeat: {a!r} vs {b!r}")

    for problem in problems:
        print("NOT STEADY:", problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
