#!/usr/bin/env python3
"""Regression-check bench outputs against tools/expectations.json.

Usage:
    python3 tools/check_results.py results/ [--spec tools/expectations.json]

Each spec entry names a bench output file (without .txt) and a list of
rules evaluated at an x position, which selects one row of one table in
the file: blank lines separate tables, and a rule's optional "table": k
picks the k-th (0-based, default 0). A number matches the first CSV
column with a small tolerance, a string matches it exactly (e.g.
"dyn.5"), and a list matches the leading columns one by one (e.g.
[10, 1000] for the row p = 10, n = 1000). Rule shapes:

  {"x": 100, "series": "S.mean", "min": a, "max": b}
      a <= S.mean(x) <= b
  {"x": 100, "ratio_above": ["A", "B"], "factor": f}
      A(x) >= f * B(x)
  {"x": 100, "within_pct": ["A", "B"], "pct": q}
      |A(x) - B(x)| <= (q/100) * B(x)

Any rule may carry a "note", printed with its result: a rule that pins
a known deviation from the paper states the reason there.

Exits non-zero if any rule fails or any bench output is missing. CI
regenerates every named output at default args and runs this on it.
"""

import argparse
import csv
import json
import os
import sys


def load_tables(path):
    """The file's tables as (header, rows) pairs, in file order."""
    tables = []
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() and rows:
                tables.append((header, rows))  # a blank line ends a table
                header, rows = None, []
            if line.startswith("#") or not line.strip():
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(cells)
    if rows:
        tables.append((header, rows))
    return tables


def key_matches(cell, key):
    if isinstance(key, str):
        return cell == key
    try:
        value = float(cell)
    except ValueError:
        return False
    return abs(value - key) <= 1e-9 + 1e-6 * abs(key)


def row_matches(row, x):
    keys = x if isinstance(x, list) else [x]
    return len(row) >= len(keys) and all(
        key_matches(cell, key) for cell, key in zip(row, keys))


def label(x):
    return ", ".join(map(str, x)) if isinstance(x, list) else str(x)


def value_at(header, rows, x, column):
    if column not in header:
        raise KeyError(f"column {column!r} not in {header}")
    col_idx = header.index(column)
    for row in rows:
        if row_matches(row, x):
            cell = row[col_idx]
            if cell == "":
                raise KeyError(f"empty cell for {column} at x={label(x)}")
            return float(cell)
    raise KeyError(f"x={label(x)} not found in table")


def check_rule(tables, rule):
    index = rule.get("table", 0)
    if index >= len(tables):
        raise KeyError(f"table {index} not found ({len(tables)} in file)")
    header, rows = tables[index]

    def at(column):
        return value_at(header, rows, rule["x"], column)

    x = label(rule["x"])
    if index:
        x += f"; table {index}"
    if "series" in rule:
        v = at(rule["series"])
        ok = rule.get("min", -1e300) <= v <= rule.get("max", 1e300)
        detail = (f"{rule['series']}({x}) = {v:.4g} "
                  f"in [{rule.get('min', '-inf')}, {rule.get('max', 'inf')}]")
        return ok, detail
    if "ratio_above" in rule:
        a_name, b_name = rule["ratio_above"]
        a = at(a_name)
        b = at(b_name)
        ok = a >= rule["factor"] * b
        return ok, (f"{a_name}({x}) = {a:.4g} >= {rule['factor']} * "
                    f"{b_name}({x}) = {rule['factor'] * b:.4g}")
    if "within_pct" in rule:
        a_name, b_name = rule["within_pct"]
        a = at(a_name)
        b = at(b_name)
        ok = abs(a - b) <= rule["pct"] / 100.0 * abs(b)
        return ok, (f"|{a_name}({x}) - {b_name}({x})| = {abs(a - b):.4g} "
                    f"<= {rule['pct']}% of {b:.4g}")
    raise ValueError(f"unknown rule shape: {rule}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(__file__), "expectations.json"))
    args = parser.parse_args()

    with open(args.spec) as fh:
        spec = json.load(fh)

    failures = 0
    checks = 0
    missing = 0
    for bench, rules in spec.items():
        if bench.startswith("_"):
            continue
        path = os.path.join(args.results_dir, bench + ".txt")
        if not os.path.exists(path):
            print(f"MISSING {bench}: {path} not found")
            missing += 1
            continue
        tables = load_tables(path)
        for rule in rules:
            checks += 1
            try:
                ok, detail = check_rule(tables, rule)
            except (KeyError, ValueError) as err:
                ok, detail = False, str(err)
            status = "ok  " if ok else "FAIL"
            note = f"  (note: {rule['note']})" if "note" in rule else ""
            print(f"{status} {bench}: {detail}{note}")
            if not ok:
                failures += 1

    summary = f"\n{checks - failures}/{checks} checks passed"
    if missing:
        summary += f", {missing} bench outputs missing"
    print(summary)
    sys.exit(1 if failures or missing else 0)


if __name__ == "__main__":
    main()
