#!/usr/bin/env python3
"""Build and run the pfl benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed-batch --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR, or .bench_build when unset, then runs one
workload. The last line of standard output is the JSON result. A failed
build or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("closed-batch", "hyperbolic-table", "volunteer-rpc")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pfl_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return None
    return os.path.join(build_dir, "pfl_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: run from the repository root (src/ not found)\n")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: workload timed out\n")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: workload exited with %d\n" % proc.returncode)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: no result line\n")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
