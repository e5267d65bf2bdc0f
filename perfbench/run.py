#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|analyze|sweep|live \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-v4]

The first call configures and builds `.bench_build/perfbench` (the bsdtrace
libraries from `src/` plus the program in this directory); later calls only
let the build check that it is up to date.  Build output goes to standard
error.  The program's standard output is passed through, so its last line is
the result object.  Scratch files go to `.bench_build/work`.

Exit status: the program's; 1 if the build fails, the program times out or
prints no result; 2 if the checkout holds no bsdtrace sources.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-v4", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no bsdtrace sources under " + ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--workdir", os.path.join(BUILD, "work")]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_v4:
        command.append("--corrupt-v4")
    try:
        # subprocess.run kills and reaps the program if it overruns.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        return done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the program printed no result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
