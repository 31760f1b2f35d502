#!/usr/bin/env python3
"""The dyngossip benchmark command.

    python3 perfbench/run.py --workload frontier|grid|serve --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Builds the harness (perfbench/CMakeLists.txt) from the repository's src/
into .bench_build/perfbench, then runs it.  Everything it writes stays
under .bench_build/.  Build output goes to stderr; stdout carries the
harness report, whose last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is the harness's: 0 only when
every output was checked correct.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "algo", "registry.hpp")):
        sys.exit("perfbench: no dyngossip sources under %s" % os.path.join(ROOT, "src"))
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "dg_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["frontier", "grid", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    scratch = os.path.join(ROOT, ".bench_build", "perfbench-scratch", str(os.getpid()))
    try:
        rc = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", args.trace,
                             "--size", args.size, "--scratch", scratch]).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
