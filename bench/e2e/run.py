#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the end-to-end benchmark.

Run from the repository root:

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]

Configures and builds bench/e2e (a CMake project that builds the library from
the repository's own CMakeLists) into .bench_build/e2e, then runs bench_e2e
with the same arguments. Build output goes to stderr; the benchmark's stdout,
whose last line is the result JSON, passes through unchanged. Exits with the
benchmark's exit code, or 1 when the build fails or the run overruns.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "bench_e2e")
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e overran {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
