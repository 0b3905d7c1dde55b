"""Command line interface.

Subcommands: run <config.json>, suite hierarchy, list, describe <id>.
Flags of run and suite: --out DIR (writes one JSON report per experiment
and summary.csv), --seed N.  Experiments run one after another in this
process.  Seed precedence: --seed flag > config.
Exit codes: 0 all pass, 1 any failure (a numeric failure is a failed report
carrying its error), 2 usage error, raised before any experiment runs.
Only run and suite import numpy and the compute modules, once an experiment
starts; list, describe and a usage error cost stdlib imports alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import UsageError
from .lab import (REGISTRY, hierarchy_configs, parse_config_file, parse_seed,
                  registry_entry, run_suite, write_reports)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nplab",
        description="Numerical verification lab for context-conditioned "
                    "predictor architectures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="directory for JSON/CSV reports")
        p.add_argument("--seed", default=None,
                       help="override every experiment seed")

    p_run = sub.add_parser("run", help="run experiments from a JSON config")
    p_run.add_argument("config", help="path to the config JSON document")
    add_common(p_run)

    p_suite = sub.add_parser("suite", help="run a named experiment suite")
    p_suite.add_argument("name", help="suite name (hierarchy)")
    add_common(p_suite)

    sub.add_parser("list", help="list registered experiments")

    p_desc = sub.add_parser("describe", help="describe one experiment")
    p_desc.add_argument("experiment_id")

    return parser


def _resolve_seed(flag_seed):
    return None if flag_seed is None else parse_seed(flag_seed, "--seed")


def _execute(configs, args) -> tuple:
    if args.out:  # before the run, so a bad path costs no experiment
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            raise UsageError(f"--out {args.out}: {err.strerror}") from err
    result = run_suite(configs)
    lines = []
    for report in result["reports"]:
        status = "FAIL" if report.failed else "pass"
        line = f"{status}  {report.experiment_id}"
        if report.error:
            line += f"  ({report.error})"
        lines.append(line)
    if args.out:
        paths = write_reports(result["reports"], args.out)
        lines.append(f"wrote {len(paths)} report file(s) to {args.out}")
    lines.append("overall: " + ("pass" if result["overall_pass"] else "fail"))
    return EXIT_PASS if result["overall_pass"] else EXIT_FAIL, lines


def _cmd_run(args) -> tuple:
    configs = parse_config_file(args.config)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        configs = [replace(c, seed=seed) for c in configs]
    return _execute(configs, args)


def _cmd_suite(args) -> tuple:
    if args.name != "hierarchy":
        raise UsageError(f"unknown suite {args.name!r}; available: hierarchy")
    seed = _resolve_seed(args.seed)
    configs = hierarchy_configs(seed=0 if seed is None else seed)
    return _execute(configs, args)


def _cmd_list(_args) -> tuple:
    return EXIT_PASS, [
        f"{eid:32s} {REGISTRY[eid].description.splitlines()[0]}"
        for eid in sorted(REGISTRY)]


def _cmd_describe(args) -> tuple:
    entry = registry_entry(args.experiment_id)
    lines = [entry.experiment_id, "", entry.description, "",
             "parameters (default: allowed values):"]
    lines += [f"  {key} = {param.default!r}: {param.range}"
              for key, param in sorted(entry.schema.items())]
    lines += [f"  requires {text}" for text, _ in entry.relations]
    lines += ["", f"tolerances: {entry.tolerances}"]
    return EXIT_PASS, lines


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "suite": _cmd_suite, "list": _cmd_list,
                "describe": _cmd_describe}
    try:
        code, lines = handlers[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader is gone, not the result: keep the exit code, and point
        # stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
