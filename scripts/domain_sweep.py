#!/usr/bin/env python3
"""Run every experiment across its declared parameter domain and count
what each run ends in.

    python scripts/domain_sweep.py

Edges: each numeric param (one declared with a range, not choices) alone
at its lo and then at its hi, every other param at its default, at seed 0.
Interior: DRAWS runs per experiment.  Run i takes its draws from
``nplab.rng.stream(0, "domain_sweep", ID, i)``: one numeric param, uniformly
among the experiment's, a value inside its range (log-uniform where lo > 0
and hi / lo > 50; an int param takes the nearest integer) and a seed in
0..999.  A list param is set to the one-element list of its value.

For each experiment and phase it prints how many runs passed, were usage
errors, ended in a FAIL verdict and ended in an in-run error, then the
config of every FAIL and in-run error as ``nplab run`` reads it, and last
one total line per phase.  It exits 0 whatever fails.
"""

import argparse
import json
import math
import sys

from nplab import lab
from nplab.errors import UsageError
from nplab.rng import stream

DRAWS = 15
OUTCOMES = ("pass", "usage error", "FAIL", "error")


def numeric_params(eid: str) -> dict:
    return {key: param for key, param in lab.REGISTRY[eid].schema.items()
            if not param.choices}


def _config(eid, key, param, value, seed):
    value = param.kind(value)
    if isinstance(param.default, list):
        value = [value]
    return lab.ExperimentConfig(eid, {key: value}, seed)


def edge_configs(eid: str) -> list:
    return [_config(eid, key, param, end, 0)
            for key, param in numeric_params(eid).items()
            for end in (param.lo, param.hi)]


def interior_configs(eid: str) -> list:
    params = numeric_params(eid)
    configs = []
    for i in range(DRAWS):
        rng = stream(0, "domain_sweep", eid, i)
        key = sorted(params)[int(rng.integers(0, len(params)))]
        lo, hi = params[key].lo, params[key].hi
        if lo > 0 and hi / lo > 50:
            value = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        else:
            value = rng.uniform(lo, hi)
        value = min(max(value, lo), hi)
        if params[key].kind is int:
            value = round(value)
        configs.append(_config(eid, key, params[key], value,
                               int(rng.integers(0, 1000))))
    return configs


def outcome(config) -> tuple:
    """(one of OUTCOMES, the in-run error's message or None)."""
    try:
        [report] = lab.run_suite([config])["reports"]
    except UsageError:
        return "usage error", None
    if report.error is not None:
        return "error", report.error
    return ("FAIL" if report.failed else "pass"), None


def sweep(eids) -> dict:
    """{eid: {phase: (counts by outcome, [(kind, config, message)])}} for
    each phase, edges then interior."""
    result = {}
    for eid in eids:
        result[eid] = {}
        for phase, build in (("edges", edge_configs),
                             ("interior", interior_configs)):
            counts = dict.fromkeys(OUTCOMES, 0)
            notes = []
            for config in build(eid):
                kind, message = outcome(config)
                counts[kind] += 1
                if kind in ("FAIL", "error"):
                    notes.append((kind, config, message))
            result[eid][phase] = counts, notes
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    result = sweep(lab.HIERARCHY_SUITE)
    for phase in ("edges", "interior"):
        totals = dict.fromkeys(OUTCOMES, 0)
        for eid, phases in result.items():
            counts, notes = phases[phase]
            print(f"{eid} {phase}: "
                  + ", ".join(f"{counts[k]} {k}" for k in OUTCOMES))
            for kind, config, message in notes:
                doc = json.dumps({"experiment_id": eid,
                                  "params": config.params,
                                  "seed": config.seed})
                print(f"  {kind} {doc}"
                      + (f"  ({message})" if message else ""))
            for k in OUTCOMES:
                totals[k] += counts[k]
        print(f"{phase} total: {sum(totals.values())} runs, "
              + ", ".join(f"{totals[k]} {k}" for k in OUTCOMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
