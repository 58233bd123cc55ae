#!/usr/bin/env python3
"""Compares two sets of benchmark results, refusing mismatched hosts.

    python3 perfbench/run.py ... --out base-1.json   # on the parent commit
    python3 perfbench/run.py ... --out new-1.json    # on the change
    python3 perfbench/compare.py --base base-*.json --new new-*.json

Results are grouped by workload and trace mode. For every metric the
tool prints both medians and the change as a share of the base median,
signed so that positive is worse. An end-to-end metric that got worse by
more than its bound in BENCHMARK.json is a regression (exit code 1).

Every result carries the host stamp run.py records. Results whose nproc,
build type, compiler or SIMD level differ are not comparable: the tool
refuses them (exit code 2) unless --force is given. The git sha and
source digest identify the code and are expected to differ.
"""

import argparse
import json
import os
import statistics
import sys

HOST_FIELDS = ("nproc", "build_type", "compiler", "simd")


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    return results


def medians(results):
    """{(workload, trace): {metric: median value}}."""
    grouped = {}
    for r in results:
        key = (r["workload"], r["trace"])
        for name, metric in r["result"]["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(
                metric["value"])
    return {key: {name: statistics.median(values)
                  for name, values in metrics.items()}
            for key, metrics in grouped.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--force", action="store_true",
                        help="compare even if the host stamps differ")
    args = parser.parse_args(argv)

    base, new = load(args.base), load(args.new)
    stamps = {tuple(r["stamp"][f] for f in HOST_FIELDS) for r in base + new}
    if len(stamps) > 1:
        print("host stamps differ (%s):" % ", ".join(HOST_FIELDS))
        for stamp in sorted(stamps, key=str):
            print("  " + str(stamp))
        if not args.force:
            print("refusing to compare; pass --force to override")
            return 2

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    base_medians, new_medians = medians(base), medians(new)
    regressed = False
    for key in sorted(set(base_medians) & set(new_medians)):
        print("%s (trace %d)" % key)
        for name, b in base_medians[key].items():
            n = new_medians[key].get(name)
            metric = declared.get(name)
            if n is None or metric is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (n - b) / abs(b) + 0.0 if b else 0.0
            verdict = ""
            if "bound" in metric:
                verdict = "REGRESSED" if worse > metric["bound"] else "ok"
                regressed = regressed or worse > metric["bound"]
            print("  %-30s %14.6g -> %14.6g %+8.2f%% worse %s" % (
                name, b, n, 100.0 * worse, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
