#!/usr/bin/env python3
"""Perf gate: compare a bench/perf_smoke run against its baseline.

Usage:
    python3 tools/perf_gate.py BASELINE RUN

BASELINE and RUN are hetsched-perf-smoke/1 files, e.g.
bench/baselines/perf_smoke.json and a fresh BENCH_PERF.json. The gate
compares heap-normalized ratios, which cancel runner speed: the engine
and request.* keys are ns over the heap probe, rep_cost.* is heap ops
per rep. Lower is better everywhere. Every baseline key must be
measured by the run and stay under min(1.5 x baseline, absolute cap).
Prints one verdict line per key and exits 1 if any check fails.
"""

import json
import sys

RELATIVE_LIMIT = 1.5

# Absolute caps on the data-aware request paths, in heap units so they
# transfer across runners. The run-length Assignment protocol measures
# ~13 (DynamicMatrix, N/l = 40) and ~1.4 (DynamicOuter, N/l = 100) on a
# 4-core host; the caps pin the order of magnitude independently of
# the relative limit.
ABS_CAPS = {
    "request.DynamicMatrix": 16.0,
    "request.DynamicOuter": 2.0,
}

# Keys both files must carry, so a rename or a dropped workload cannot
# silently skip its comparison: the data-aware request paths, the three
# event engines, and the telemetry-on rep cost (a profiler slowdown
# fails the build like any other). Every capped key is required.
REQUIRED = (
    "request.DynamicMatrix",
    "request.DynamicOuter",
    "flat_engine_ns_per_event",
    "timed_engine_ns_per_event",
    "dag_engine_ns_per_event",
    "profile.rep_cost.fig10_mm_n100.DynamicMatrix2Phases",
)
assert set(ABS_CAPS) <= set(REQUIRED)

# 10^9 ids at one bit each is 119 MiB; a second per-id array (e.g. the
# 32-bit-per-word stamps the bitset once carried, 179 MiB in all)
# fails this.
MAX_POOL_RSS_MB = 160


def gate(baseline, run):
    """Prints a verdict per check; returns the list of failures."""
    failures = []
    base_ratios = baseline["ratios_vs_heap"]
    run_ratios = run["ratios_vs_heap"]
    # A required key in the baseline is then checked against the run
    # like every other baseline key.
    for key in REQUIRED:
        if key not in base_ratios:
            failures.append(f"{key} missing from baseline")
    if "engine.run" not in run.get("profile", {}):
        failures.append("profiler totals missing from the run")
    iqr = run["ratios_vs_heap_iqr"]
    for key, base in base_ratios.items():
        if key not in run_ratios:
            failures.append(f"{key} missing from run")
            continue
        got = run_ratios[key]
        limit = min(RELATIVE_LIMIT * base, ABS_CAPS.get(key, float("inf")))
        verdict = "ok" if got <= limit else "REGRESSED"
        if verdict != "ok":
            failures.append(f"{key} regressed: {got:.2f} > {limit:.2f}")
        spread = f" (IQR {iqr[key]:.2f})" if key in iqr else ""
        print(f"{key}: {got:.2f}{spread} vs baseline {base:.2f} "
              f"(limit {limit:.2f}) -> {verdict}")
    rss = run["large_pool"]["rss_delta_mb"]
    print(f"large_pool rss_delta_mb: {rss:.0f} (limit < {MAX_POOL_RSS_MB})")
    if rss >= MAX_POOL_RSS_MB:
        failures.append("10^9-id pool grew past one bit per id")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        baseline = json.load(fh)
    with open(argv[2]) as fh:
        run = json.load(fh)
    failures = gate(baseline, run)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
