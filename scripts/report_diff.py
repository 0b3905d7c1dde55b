#!/usr/bin/env python3
"""Compare two report directories written by ``nplab`` (``--out DIR``).

    python scripts/report_diff.py A B

A row is one measurement of one report: (JSON file name, measurement
name).  For each row present in both directories the script prints every
cell that differs (value or bound, with its relative change B/A - 1) and
every verdict change.  Report-level fields (seed, params, error) are
compared too; ``wall_time_ms`` is ignored.  A NaN equals a NaN, in cells
and in report-level fields alike.  It then prints missing rows
(in A only) and extra rows (in B only) and a one-line summary.

Exit status: 1 if any verdict changed or any row is missing or extra,
0 otherwise (changed values alone do not fail), 2 on a usage error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

IGNORED = ("wall_time_ms",)
ROW_FIELDS = ("measurements", "bounds", "verdicts")


def load(directory: Path) -> dict:
    """File name -> report dict for every JSON report in the directory."""
    reports = {}
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            reports[path.name] = json.load(fh)
    return reports


def same(a, b) -> bool:
    """a == b, except that NaN equals NaN, in nested lists and dicts too."""
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def rows(report: dict) -> set:
    return set().union(*(report.get(f, {}) for f in ROW_FIELDS))


def relative_change(a, b) -> str:
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):
        return "not numeric"
    if a == b or (math.isnan(a) and math.isnan(b)):
        return "rel 0"
    if a == 0.0 or not math.isfinite(a):
        return "rel n/a"
    return f"rel {b / a - 1.0:+.3e}"


def compare(a_dir: Path, b_dir: Path, out=sys.stdout) -> dict:
    """Print the differences of B against A; returns the counts."""
    A, B = load(a_dir), load(b_dir)
    counts = {"rows": 0, "cells": 0, "verdicts": 0, "missing": 0, "extra": 0}
    for name in sorted(set(A) | set(B)):
        ra, rb = A.get(name), B.get(name)
        if rb is None or ra is None:
            side, rep = ("missing", ra) if rb is None else ("extra", rb)
            for row in sorted(rows(rep)) or [""]:
                counts[side] += 1
                print(f"{side}: {name} {row}", file=out)
            continue
        for key in sorted((set(ra) | set(rb)) - set(ROW_FIELDS)
                          - set(IGNORED)):
            if not same(ra.get(key), rb.get(key)):
                counts["cells"] += 1
                print(f"{name} [{key}]: {ra.get(key)!r} -> {rb.get(key)!r}",
                      file=out)
        row_a, row_b = rows(ra), rows(rb)
        for row in sorted(row_a - row_b):
            counts["missing"] += 1
            print(f"missing: {name} {row}", file=out)
        for row in sorted(row_b - row_a):
            counts["extra"] += 1
            print(f"extra: {name} {row}", file=out)
        for row in sorted(row_a & row_b):
            counts["rows"] += 1
            for field in ("measurements", "bounds"):
                va = ra.get(field, {}).get(row)
                vb = rb.get(field, {}).get(row)
                if not same(va, vb):
                    counts["cells"] += 1
                    print(f"{name} {row} {field[:-1]}: {va!r} -> {vb!r} "
                          f"({relative_change(va, vb)})", file=out)
            va = ra.get("verdicts", {}).get(row)
            vb = rb.get("verdicts", {}).get(row)
            if va != vb:
                counts["verdicts"] += 1
                print(f"{name} {row} VERDICT: {va} -> {vb}", file=out)
    print(f"{counts['rows']} rows compared: {counts['cells']} cells differ, "
          f"{counts['verdicts']} verdicts changed, {counts['missing']} "
          f"missing, {counts['extra']} extra", file=out)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two nplab report directories, ignoring "
                    "wall_time_ms.")
    parser.add_argument("a", type=Path, help="reference report directory")
    parser.add_argument("b", type=Path, help="report directory to compare")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    counts = compare(args.a, args.b)
    failed = counts["verdicts"] or counts["missing"] or counts["extra"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
