#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/WORKLOADS.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_cached --seed 1 --seconds 15 --trace 0

The benchmark binary is built from the checkout's sources into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when set) on first
use; build output goes to stderr. The binary's result object is the last
line of stdout. Exits non-zero, without a result, when the build fails
or the run is invalid.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "vkg_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "vkg_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 2

    # The binary runs the harness self-tests before measuring anything
    # and exits 3, without a result, when one fails.
    sys.stdout.flush()
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
