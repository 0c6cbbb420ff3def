#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the harness (perfbench/CMakeLists.txt, which compiles the EINet
libraries from ../src) into .bench_build/perfbench, runs one workload and
relays its report. The last line of standard output is the JSON result;
its metric names must match BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).

    python3 perfbench/run.py --workload live-int8 --seed 3 --seconds 10 --trace 0

Exit status: 0 when the harness ran and every correctness, coverage and
trace gate passed; non-zero otherwise (build failure, refused thread
budget, failed gate, timeout or a result that does not match
BENCHMARK.json).
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure until a build succeeded, then (re)build the harness target;
    output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    return [m["name"] for m in group], workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    started = time.monotonic()
    if not build():
        return 1
    try:
        names, workloads = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; expected one of {workloads}")
        return 1

    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--artifacts", os.path.join(ROOT, "artifacts"),
           "--work-dir", work_dir]
    log(f"build took {time.monotonic() - started:.1f} s; running {args.workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_LIMIT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, TypeError, IndexError):
        log("harness printed no result line")
        return 1
    if got != names:
        log(f"metric names {got} do not match BENCHMARK.json {names}")
        return 1
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result.get("correct", False):
        log(f"harness reported failure (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
