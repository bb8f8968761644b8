#!/usr/bin/env python3
"""Builds the earthcc benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sim-ideal|sim-torus|serve-mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return cmake_dir


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmake_dir = build(build_dir)
    if cmake_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(cmake_dir, "perfbench"),
           "--data", HERE,
           "--server", os.path.join(cmake_dir, "earthcc")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
