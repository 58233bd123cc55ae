#!/usr/bin/env python3
"""Builds BENCH_e2e.json from paired perfbench results.

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0 \\
        --out base-W-1.json                  # on the parent commit
    python3 perfbench/run.py ... --out new-W-1.json   # on the change
    ...                                      # alternate which runs first
    python3 scripts/bench_e2e.py --base base-*.json --new new-*.json \\
        --out BENCH_e2e.json

Results are grouped by (workload, seed, trace mode). Within a group the
i-th --base file and the i-th --new file, in the order given, form pair
i. For every metric the file records each side's median and quartiles,
every run's value, the change's median as a ratio of the base median,
and how many pairs the change won (ties count for neither side). Each
side's host stamp is kept; results from hosts whose nproc, build type,
compiler or SIMD level differ are refused, as perfbench/compare.py does.
"""

import argparse
import json
import os
import statistics
import sys

HOST_FIELDS = ("nproc", "build_type", "compiler", "simd")


def load(paths):
    groups = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        key = (record["workload"], record["seed"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args(argv)

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "BENCHMARK.json")
    with open(spec_path) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    base, new = load(args.base), load(args.new)
    hosts = {tuple(r["stamp"][k] for k in HOST_FIELDS)
             for group in list(base.values()) + list(new.values())
             for r in group}
    if len(hosts) != 1:
        print("host stamps differ: %s" % sorted(hosts, key=str))
        return 2

    workloads = []
    for key in sorted(set(base) & set(new)):
        workload, seed, trace = key
        b_runs, n_runs = base[key], new[key]
        pairs = min(len(b_runs), len(n_runs))
        metrics = {}
        for name, metric in b_runs[0]["result"]["metrics"].items():
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs]
            entry = {"unit": metric["unit"], "base": summarize(b),
                     "new": summarize(n)}
            if entry["base"]["median"]:
                entry["new_over_base"] = (entry["new"]["median"] /
                                          entry["base"]["median"])
            if name in better:
                sign = 1.0 if better[name] == "higher" else -1.0
                entry["better"] = better[name]
                entry["pairs_won"] = sum(
                    1 for i in range(pairs) if sign * (n[i] - b[i]) > 0)
                entry["pairs_lost"] = sum(
                    1 for i in range(pairs) if sign * (n[i] - b[i]) < 0)
            metrics[name] = entry
        workloads.append({
            "workload": workload, "seed": seed, "trace": trace,
            "pairs": pairs,
            "correct": all(r["result"]["correct"] for r in b_runs + n_runs),
            "base_code": sorted({r["stamp"]["source_digest"] for r in b_runs}),
            "new_code": sorted({r["stamp"]["source_digest"] for r in n_runs}),
            "metrics": metrics,
        })

    stamp = next(iter(base.values()))[0]["stamp"]
    report = {"host": {k: stamp[k] for k in HOST_FIELDS},
              "workloads": workloads}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for w in workloads:
        m = w["metrics"].get("train_samples_per_s")
        if m is not None:
            print("%-22s seed %d: train_samples_per_s %.4g -> %.4g "
                  "(x%.3f, won %d/%d)" % (
                      w["workload"], w["seed"], m["base"]["median"],
                      m["new"]["median"], m.get("new_over_base", 0.0),
                      m["pairs_won"], w["pairs"]))
    print("wrote " + args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
