#!/usr/bin/env python3
"""Serving benchmark for STOF: build, run one workload, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload chat_gpt768 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset, then runs one workload.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
is a self-describing record (unit, clock, statistic and sample count of
every metric, the checks, the seed and a machine fingerprint).  With
--trace 1 the run reports the per-layer metrics and writes a Chrome trace
of per-step spans next to the build.

Seeds: DEFAULT_SEED is what a run without --seed uses.  Seed 4242 is held
out: a claim must also hold on it, and it is not used while working on one.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 20261017
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the benchmark binary (incremental)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are missing from this checkout")
        return None
    cmds = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds.append(["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "stof_perfbench"])
    for cmd in cmds:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "stof_perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", build_dir]
    if args.trace:
        trace_file = os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        log(f"benchmark run failed (exit code {done.returncode})")
        return 1
    if args.trace:
        log(f"chrome trace: {trace_file}")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
