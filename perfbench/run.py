#!/usr/bin/env python3
"""Builds and runs rdfql's end-to-end benchmark.

    python3 perfbench/run.py --workload mix_analytic --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which compiles ../src) into .bench_build/perfbench
under the repository root, builds it, then runs one workload. The last line
of standard output is the benchmark's JSON result. Build output goes to
standard error.

Extra modes:
  --repeat K   run the workload K times with seeds seed..seed+K-1 and print,
               per metric, the median, the quartiles and the relative spread
               (interquartile range / median), as statistics.quantiles gives
               them.
  --selftest   build and run the tests of the benchmark's own arithmetic.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def bench_command(binary, args, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, seed))]
    return cmd


def run_once(binary, args, seed, capture):
    try:
        proc = subprocess.run(bench_command(binary, args, seed), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc


def repeat(binary, args):
    values = {}
    units = {}
    for k in range(args.repeat):
        seed = args.seed + k
        proc = run_once(binary, args, seed, capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.exit("perfbench: seed %d failed" % seed)
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("perfbench: seed %d returned wrong answers" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, json.dumps(result["metrics"])), flush=True)
    print("\n%-32s %14s %14s %14s %8s  %s" %
          ("metric", "median", "q1", "q3", "spread", "unit"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-32s %14.6g %14.6g %14.6g %8.4f  %s" %
              (name, med, q1, q3, spread, units[name]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    if args.repeat > 0:
        repeat(binary, args)
        return
    sys.exit(run_once(binary, args, args.seed, capture=False).returncode)


if __name__ == "__main__":
    main()
