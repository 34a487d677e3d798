#!/usr/bin/env python3
"""Self-test for tools/perf_gate.py.

Usage:
    python3 tools/perf_gate_test.py

Runs the gate on synthetic baseline/run files and checks its exit
status: a clean run passes; a key at 1.6x its baseline, a key under
1.5x but over its absolute cap, a missing required key and a 161 MB
pool each fail.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perf_gate.py")

BASELINE = {
    "schema": "hetsched-perf-smoke/1",
    "ratios_vs_heap": {
        "flat_engine_ns_per_event": 0.2,
        "timed_engine_ns_per_event": 0.5,
        "dag_engine_ns_per_event": 6.0,
        "request.DynamicOuter": 1.2,
        "request.DynamicMatrix": 12.0,
        "request.RandomOuter": 0.25,
        "profile.rep_cost.fig10_mm_n100.DynamicMatrix2Phases": 240000.0,
    },
}

RUN = {
    "schema": "hetsched-perf-smoke/1",
    "ratios_vs_heap": dict(BASELINE["ratios_vs_heap"]),
    "ratios_vs_heap_iqr": {"request.DynamicOuter": 0.1},
    "profile": {"engine.run": {"ns": 1, "self_ns": 1, "calls": 1}},
    "large_pool": {"capacity_ids": 1000000000, "rss_delta_mb": 119.1},
}


def run_gate(baseline, run):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline.json", baseline), ("run.json", run)):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths.append(path)
        proc = subprocess.run([sys.executable, GATE, *paths],
                              capture_output=True, text=True)
    return proc.returncode, proc.stdout


class PerfGateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        status, out = run_gate(BASELINE, RUN)
        self.assertEqual(status, 0, out)
        self.assertIn("request.DynamicOuter: 1.20 (IQR 0.10) vs baseline "
                      "1.20 (limit 1.80) -> ok", out)
        self.assertNotIn("FAIL", out)

    def test_key_at_1_6x_baseline_fails(self):
        run = copy.deepcopy(RUN)
        run["ratios_vs_heap"]["request.RandomOuter"] = 1.6 * 0.25
        status, out = run_gate(BASELINE, run)
        self.assertEqual(status, 1, out)
        self.assertIn("request.RandomOuter: 0.40 vs baseline 0.25 "
                      "(limit 0.38) -> REGRESSED", out)

    def test_key_under_relative_limit_but_over_abs_cap_fails(self):
        # 16.5 < 1.5 x 12 = 18, but over the 16.0 cap.
        run = copy.deepcopy(RUN)
        run["ratios_vs_heap"]["request.DynamicMatrix"] = 16.5
        status, out = run_gate(BASELINE, run)
        self.assertEqual(status, 1, out)
        self.assertIn("request.DynamicMatrix: 16.50 vs baseline 12.00 "
                      "(limit 16.00) -> REGRESSED", out)

    def test_missing_required_key_fails(self):
        for doc_name in ("baseline", "run"):
            baseline = copy.deepcopy(BASELINE)
            run = copy.deepcopy(RUN)
            doc = baseline if doc_name == "baseline" else run
            del doc["ratios_vs_heap"]["timed_engine_ns_per_event"]
            status, out = run_gate(baseline, run)
            self.assertEqual(status, 1, out)
            self.assertIn(f"FAIL: timed_engine_ns_per_event missing from "
                          f"{doc_name}", out)

    def test_pool_rss_161_mb_fails(self):
        run = copy.deepcopy(RUN)
        run["large_pool"]["rss_delta_mb"] = 161
        status, out = run_gate(BASELINE, run)
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: 10^9-id pool grew past one bit per id", out)


if __name__ == "__main__":
    unittest.main()
