#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

Run from the repository root:

    python3 svcbench/run.py --workload pooled_ml --seed 1 --seconds 20 --trace 0

The C++ benchmark program is compiled into .bench_build/svcbench (configured once,
rebuilt incrementally), then executed with the same arguments. Build output
goes to stderr; the program's standard output is passed through unchanged, so
its last line is the result JSON. Exits non-zero, printing no result, when
the sources are missing or the build fails.

`--workload all` runs every workload in turn and prints one
`<workload> <result JSON>` line each; it exits non-zero if any run fails or
reports a failed operation.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "svcbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "svcbench")
BINARY = os.path.join(BUILD_DIR, "svcbench")
WORKLOADS = ["pooled_ml", "durable_ledger", "inthread_fanout"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("svcbench: no GUPT sources under src/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "svcbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("svcbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def run_all(args):
    status = 0
    at = args.index("--workload") + 1
    for workload in WORKLOADS:
        args[at] = workload
        done = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        result = lines[-1] if lines else ""
        print(workload, result, flush=True)
        if done.returncode != 0 or '"correct": true' not in result:
            status = 1
    return status


def main():
    if not build():
        return 2
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        return run_all(args)
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
