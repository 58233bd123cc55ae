#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny datasets.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in both modes at a tiny dataset
scale and checks that:
  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with correct true and no failed trial;
  * --trace 0 reports exactly the end_to_end metrics and --trace 1
    exactly the per_layer metrics, each with its declared unit;
  * perfbench/README.md tables every declared metric with the same unit
    and direction.
Exits 0 when all hold. Takes about a minute once the build exists.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_readme(spec, problems):
    with open(os.path.join(HERE, "README.md")) as f:
        rows = re.findall(r"^\| `([^`]+)` \| (\S+) \| (higher|lower) \|",
                          f.read(), re.MULTILINE)
    documented = {name: (unit, better) for name, unit, better in rows}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        want = (metric["unit"], metric["better"])
        got = documented.pop(metric["name"], None)
        if got != want:
            problems.append("README row for %s: %s, want %s" % (
                metric["name"], got, want))
    for name in documented:
        problems.append("README documents undeclared metric " + name)


def check_run(spec, workload, trace, problems):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.02"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        problems.append("%s exited %d: %s" % (where, done.returncode,
                                              done.stderr[-2000:]))
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s\n%s" % (
            where, result["correct"], result["attempted"], result["failed"],
            done.stdout[-2000:]))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append("%s: metrics/units differ from BENCHMARK.json: "
                        "missing %s, extra %s, unit mismatches %s" % (
                            where, sorted(set(units) - set(got)),
                            sorted(set(got) - set(units)),
                            sorted(n for n in got.keys() & units.keys()
                                   if got[n] != units[n])))
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append("%s: %s is not a number" % (where, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    check_readme(spec, problems)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace, problems)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
