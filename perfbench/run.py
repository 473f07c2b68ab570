#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse|batch|stream --seed N \
        --seconds S --trace 0|1 [--exec-threads T] [--quick]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the current directory and is incremental, so only the first run compiles.
Build output goes to stderr; stdout is the benchmark's own, ending in one
JSON line. Any build or run failure exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return 1


def build():
    """Configures and builds the perfbench binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                     BUILD_TIMEOUT_S) != 0:
            return None
    if run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
