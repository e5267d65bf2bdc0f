#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload it runs perfbench/run.py once untraced and once traced
on inputs shrunk to 40 users per machine, for one second, and checks that:

  * the result line names exactly the end-to-end (untraced) or per-layer
    (traced) metrics of BENCHMARK.json, each with its unit and a finite value;
  * every output check passed (correct, no failed operation).

It then flips one byte of the analyze workload's stored v4 input and checks
that the run still ends normally, with the corruption counted as failed
operations rather than a crash.  Exit status 0 when everything holds.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "analyze", "sweep", "live")


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        return None, "exit %d: %s" % (done.returncode, done.stderr[-500:])
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no result line"


def check_metrics(result, expected):
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metrics differ: missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s has unit %r, not %r" % (name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s has value %r" % (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, error = run(workload, trace)
            problems = [error] if result is None else check_metrics(result, expected[trace])
            if result is not None and not (result["correct"] and result["failed"] == 0
                                           and result["attempted"] >= 1):
                problems.append("checks failed: correct=%s attempted=%s failed=%s" % (
                    result["correct"], result["attempted"], result["failed"]))
            print("%-8s trace=%d %s" % (workload, trace, "ok" if not problems else "FAIL"))
            for p in problems:
                print("    " + p)
            failures += bool(problems)

    result, error = run("analyze", 0, "--corrupt-v4")
    drill_ok = (result is not None and result["failed"] >= 1 and not result["correct"]
                and result["attempted"] >= result["failed"])
    print("corrupt-v4 drill %s" % ("ok" if drill_ok else "FAIL " + (error or str(result))))
    failures += not drill_ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
