#!/usr/bin/env python3
"""Self-test for tools/check_results.py.

Usage:
    python3 tools/check_results_test.py

Builds a temporary results directory with one bench output missing and
one rule failing, and checks the summary line, the exit status, the
string and multi-column row keys, the printed notes and table
selection.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_results.py")

TABLES = {
    "scenarios": "# header comment\n"
                 "scenario,A.mean,B.mean\n"
                 "unif.1,2.0,4.5\n"
                 "dyn.5,2.1,4.4\n",
    "grid": "p,n,value\n"
            "10,100,1.5\n"
            "10,1000,39.8\n"
            "20,100,0.5\n"
            "\n"
            "# second table\n"
            "p,n,value\n"
            "30,100,7.0\n",
}

SPEC = {
    "_comment": "ignored",
    "scenarios": [
        {"x": "dyn.5", "ratio_above": ["B.mean", "A.mean"], "factor": 2.0},
        {"x": "unif.1", "series": "A.mean", "max": 1.0},
    ],
    "grid": [
        {"x": [10, 1000], "series": "value", "min": 39, "max": 41,
         "note": "pinned deviation"},
        {"x": [20, 100], "series": "value", "max": 1.0},
    ],
    "absent": [
        {"x": 1, "series": "value", "max": 1.0},
    ],
}


def run_checker(spec, tables):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in tables.items():
            with open(os.path.join(tmp, name + ".txt"), "w") as fh:
                fh.write(text)
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        proc = subprocess.run(
            [sys.executable, CHECKER, tmp, "--spec", spec_path],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout


class CheckResultsTest(unittest.TestCase):
    def test_missing_output_and_failed_rule(self):
        status, out = run_checker(SPEC, TABLES)
        self.assertEqual(status, 1)
        lines = out.strip().splitlines()
        self.assertEqual(lines[-1], "3/4 checks passed, 1 bench outputs missing")
        self.assertIn("MISSING absent:", out)
        self.assertIn("FAIL scenarios: A.mean(unif.1) = 2", out)

    def test_string_and_list_keys_with_note(self):
        _, out = run_checker(SPEC, TABLES)
        self.assertIn("ok   scenarios: B.mean(dyn.5) = 4.4 >= 2.0 * "
                      "A.mean(dyn.5)", out)
        self.assertIn("ok   grid: value(10, 1000) = 39.8 in [39, 41]  "
                      "(note: pinned deviation)", out)
        self.assertIn("ok   grid: value(20, 100) = 0.5", out)

    def test_only_missing_output_still_fails(self):
        spec = {"grid": SPEC["grid"], "absent": SPEC["absent"]}
        status, out = run_checker(spec, TABLES)
        self.assertEqual(status, 1)
        self.assertTrue(out.rstrip().endswith(
            "2/2 checks passed, 1 bench outputs missing"))

    def test_first_table_by_default(self):
        spec = {"grid": [{"x": [30, 100], "series": "value", "max": 10}]}
        status, out = run_checker(spec, TABLES)
        self.assertEqual(status, 1)
        self.assertIn("x=30, 100 not found in table", out)

    def test_second_table_by_index(self):
        spec = {"grid": [
            {"x": [30, 100], "series": "value", "max": 10, "table": 1},
            {"x": [30, 100], "series": "value", "max": 5, "table": 1},
            {"x": [10, 100], "series": "value", "max": 10, "table": 1},
            {"x": [30, 100], "series": "value", "max": 10, "table": 2},
        ]}
        status, out = run_checker(spec, TABLES)
        self.assertEqual(status, 1)
        self.assertIn("ok   grid: value(30, 100; table 1) = 7 in [-inf, 10]",
                      out)
        self.assertIn("FAIL grid: value(30, 100; table 1) = 7 in [-inf, 5]",
                      out)
        self.assertIn("x=10, 100 not found in table", out)
        self.assertIn("table 2 not found (2 in file)", out)
        self.assertTrue(out.rstrip().endswith("1/4 checks passed"))

    def test_all_pass(self):
        spec = {"grid": SPEC["grid"]}
        status, out = run_checker(spec, TABLES)
        self.assertEqual(status, 0)
        self.assertTrue(out.rstrip().endswith("2/2 checks passed"))


if __name__ == "__main__":
    unittest.main()
