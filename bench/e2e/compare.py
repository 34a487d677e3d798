#!/usr/bin/env python3
"""Compares end-to-end benchmark runs of a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the reports of one side: any *.json / *.jsonl file
whose lines include untraced hetsched_bench reports (the JSON objects
with "workload"; run.py prints one before its summary line).
Runs are taken in file-name order, then line order, and the i-th run of
the parent is paired with the i-th run of the change, so collect them
alternating: parent, change, change, parent, ...

For every workload and end-to-end metric, plus the raw wall_s and
failed_frac, it prints both sides' median and quartiles, the pair win
rate (ties count for neither side) and a verdict:

  improved    >= 10 pairs, the change wins >= 9/10 of them, and the
              medians differ by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json); for failed_frac, any
              change run that fails more than every parent run
  unresolved  not regressed, but the parent's own spread is wider than
              the bound, and not every change run beats every parent run
  no worse    otherwise

Exits 1 if any pairing regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# failed_frac is 0 on a healthy run, so it cannot carry a relative
# bound; any increase is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "fraction", "better": "lower", "bound": 0.0}
# The raw wall time is compared too, with wall_norm_s's bound: between
# alternating runs the host's load hits both sides alike.
RAW_WALL = "wall_s"


def load_runs(directory):
    runs = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")) +
                   glob.glob(os.path.join(directory, "*.jsonl")))
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                report = json.loads(line)
                # Traced runs measure layers, not end-to-end numbers.
                if "workload" in report and "layers" not in report:
                    runs.setdefault(report["workload"], []).append(report["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if metric["name"] == FAILED_FRAC["name"]:
        return wins, len(pairs), "regressed" if max(change) > max(parent) else "no worse"
    worse = (mc - mp) if lower else (mp - mc)
    rel_worse = worse / abs(mp) if mp else 0.0
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worse > q3 - q1:
        return wins, len(pairs), "improved"
    if rel_worse > metric["bound"]:
        return wins, len(pairs), "regressed"
    spread = (q3 - q1) / abs(mp) if mp else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > metric["bound"] and not all_better:
        return wins, len(pairs), "unresolved"
    return wins, len(pairs), "no worse"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    norm = next(m for m in metrics if m["name"] == "wall_norm_s")
    metrics += [dict(norm, name=RAW_WALL), FAILED_FRAC]

    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    regressed = False
    print("%-10s %-12s %-32s %-32s %8s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name = metric["name"]
            p = [r[name]["value"] for r in parent[workload] if name in r]
            c = [r[name]["value"] for r in change[workload] if name in r]
            if not p or not c:
                continue
            wins, n, v = verdict(metric, p, c)
            regressed |= v == "regressed"
            mp, mc = statistics.median(p), statistics.median(c)
            delta = "%+.2f%%" % (100.0 * (mc - mp) / mp) if mp else "n/a"
            side = "%.5g [%.5g, %.5g]"
            print("%-10s %-12s %-32s %-32s %8s %3d/%-3d  %s" % (
                workload, name, side % (mp, *quartiles(p)), side % (mc, *quartiles(c)),
                delta, wins, n, v))
    for workload in sorted(set(parent) ^ set(change)):
        print("%-10s only in %s" % (workload, "parent" if workload in parent else "change"))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
