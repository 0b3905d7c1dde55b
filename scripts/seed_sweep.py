#!/usr/bin/env python3
"""Run the hierarchy suite at every seed of a range and count failures.

    python scripts/seed_sweep.py --from 0 --to 199

For each experiment of the suite, in suite order, it prints how many seeds
failed (a fail verdict or an error) and which ones, then one total line.
It exits 0 whatever fails, and 2 on a bad range.
"""

import argparse
import sys

from nplab import lab


def sweep(start: int, stop: int) -> dict:
    """Experiment id -> the seeds in [start, stop] at which it failed."""
    failing = {eid: [] for eid in lab.HIERARCHY_SUITE}
    for seed in range(start, stop + 1):
        for report in lab.run_suite(lab.hierarchy_configs(seed))["reports"]:
            if report.failed:
                failing[report.experiment_id].append(seed)
    return failing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--from", dest="start", type=int, required=True,
                    help="first seed")
    ap.add_argument("--to", dest="stop", type=int, required=True,
                    help="last seed, inclusive")
    args = ap.parse_args(argv)
    if not 0 <= args.start <= args.stop:
        ap.error("need 0 <= --from <= --to")
    failing = sweep(args.start, args.stop)
    for eid, seeds in failing.items():
        line = f"{eid}: {len(seeds)} failed"
        if seeds:
            line += " at seeds " + " ".join(map(str, seeds))
        print(line)
    runs = args.stop - args.start + 1
    print(f"seeds {args.start}..{args.stop}: {runs} suite runs, "
          f"{sum(map(len, failing.values()))} failed reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
