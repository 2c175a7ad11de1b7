#!/usr/bin/env python3
"""Run the repository benchmark: build rrb_perfbench, generate the inputs
of one workload from the seed, run it, and pass its result through.

usage: python3 perfbench/run.py --workload giant_cell|trial_sweep|campaign_grid
                                --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench and is incremental; the generated inputs
and the campaign artifacts go to a per-process scratch directory beside it
that is removed afterwards; BENCH_perfbench_*.json captures go to
<build root>/results. The last line of standard output is the benchmark's
JSON result; build output goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("giant_cell", "trial_sweep", "campaign_grid")
# Frozen copies of bench/campaigns/{e8_protocol_comparison,e13_churn};
# run.py overrides only their seed and trial count.
CAMPAIGN_SPECS = ("e8_protocol_comparison", "e13_churn")
CAMPAIGN_TRIALS = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_jobs():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rrb source tree at {ROOT}: the benchmark builds the "
             "library from the repository it sits in")
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "-j", str(build_jobs())]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "rrb_perfbench")


def write_specs(seed, work_dir):
    """The generated campaign inputs: each frozen spec with its `seed` and
    `trials` lines replaced."""
    paths = []
    for stem in CAMPAIGN_SPECS:
        with open(os.path.join(HERE, "inputs", stem + ".campaign")) as f:
            text = f.read()
        for key, value in (("seed", seed), ("trials", CAMPAIGN_TRIALS)):
            text, hits = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}",
                                 text)
            if hits != 1:
                fail(f"{stem}.campaign must set `{key}` exactly once")
        path = os.path.join(work_dir, stem + ".campaign")
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        fail("--seed must be in [0, 2^64)")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)
    results_dir = os.path.join(build_root, "results")
    work_dir = os.path.join(build_root, "work",
                            f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
        for path in write_specs(args.seed, work_dir):
            cmd += ["--spec", path]
        env = dict(os.environ, RRB_BENCH_JSON_DIR=results_dir)
        proc = subprocess.run(cmd, env=env, cwd=work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
