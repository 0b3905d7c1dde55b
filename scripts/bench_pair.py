#!/usr/bin/env python3
"""Paired benchmark runs of two versions of this repository.

    python3 scripts/bench_pair.py --base REV [--head REV] --workdir DIR \\
        --out BENCH_<n>.json [--workload W ...] [--seed-from 100]

Both sides are exported with ``git archive`` into DIR: the base commit,
and the head commit or, without ``--head``, the working tree as
``git add -A`` would stage it (tracked and untracked files, ignored files
left out).  For each workload, pair i of ten runs ``bench/run.py --trace 0``
at workload seed ``seed-from + i`` on both sides, one after the other,
alternating which side runs first, for the ``run_seconds`` of the head's
BENCHMARK.json.  Each side runs its own ``bench/`` on its own sources.

The JSON written to ``--out`` holds every run's metrics and, per workload
and end-to-end metric (the ``end_to_end`` list of the head's
BENCHMARK.json), each side's median and quartiles, the ratio of the
medians (head / base) with a bootstrap 95 % interval over the pairs, the
pairs each side won (ties count for neither), and whether the head's
median is within the metric's bound.  ``gain`` is true only when the head
won at least nine of the ten pairs, its median beats the base's by more
than the base's interquartile range, and the interval excludes 1.  Both
revisions and the Python, numpy and mpmath versions are recorded too, and
under ``machine`` whether the children write bytecode
(``PYTHONDONTWRITEBYTECODE`` unset), which ``setup_s`` depends on.

Before the workloads, each side runs the Tier-1 test command of ROADMAP.md
once on its own sources and tests; ``tier1_s`` holds each side's wall
seconds and ``tier1_outcome`` pytest's last line.  One run per side is a
trajectory, not a paired claim, and it is not one of BENCHMARK.json's
metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("hierarchy", "dense_n64", "grid_256")
PAIRS = 10
BOOTSTRAP = 2000
# each side runs on its own sources; nplab no longer reads NPLAB_SEED, but
# the older commits this script also runs do
CLEARED_ENV = ("PYTHONPATH", "NPLAB_SEED")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--base", required=True,
                        help="base revision (the parent commit)")
    parser.add_argument("--head", default=None,
                        help="head revision (default: the working tree)")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="directory to export both sides into")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to write")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed-from", type=int, default=100,
                        help="workload seed of the first pair")
    args = parser.parse_args(argv)
    if args.seed_from < 0:
        parser.error("need --seed-from >= 0")
    return args


def git(*argv, env=None, text=True):
    return subprocess.run(["git", "-C", str(ROOT), *argv], check=True,
                          capture_output=True, text=text, env=env).stdout


def worktree_tree(workdir: Path) -> str:
    """Tree id of the working tree as ``git add -A`` would stage it,
    built in a temporary index so the repository's own index is untouched."""
    env = dict(os.environ, GIT_INDEX_FILE=str(workdir / "worktree.index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).strip()


def export(treeish: str, dest: Path):
    """Extract ``git archive treeish`` into a fresh ``dest``."""
    if dest.exists():
        raise SystemExit(f"{dest} exists; give an empty --workdir")
    dest.mkdir(parents=True)
    data = git("archive", "--format=tar", treeish, text=False)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def child_env() -> dict:
    """The environment every child of this script runs in."""
    return {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}


def run_bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(600.0, 20.0 * seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "exit": proc.returncode, "correct": False,
                "stderr": proc.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    return {"seed": seed, "exit": 0, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_tier1(side: Path):
    """Wall seconds and pytest's last output line of one Tier-1 run on the
    side's own ``src`` and ``tests``; failing tests do not stop it."""
    env = child_env()
    env["PYTHONPATH"] = str(side / "src")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=side, env=env,
                          capture_output=True, text=True, timeout=3600)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return seconds, lines[-1] if lines else f"exit {proc.returncode}"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base, head, better, bound, rng):
    """Paired summary of one metric; base[i] and head[i] ran as pair i."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    h_q1, h_q3 = quartiles(head)
    b, h = np.array(base), np.array(head)
    idx = rng.integers(0, len(b), size=(BOOTSTRAP, len(b)))
    boot = np.median(h[idx], axis=1) / np.median(b[idx], axis=1)
    lo, hi = (float(x) for x in np.percentile(boot, [2.5, 97.5]))
    head_wins = int(np.sum(sign * (b - h) > 0))
    base_wins = int(np.sum(sign * (h - b) > 0))
    ratio = h_med / b_med
    excludes_one = hi < 1.0 if better == "lower" else lo > 1.0
    return {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "head": {"median": h_med, "q1": h_q1, "q3": h_q3},
        "ratio": ratio, "ratio_interval_95": [lo, hi],
        "head_wins": head_wins, "base_wins": base_wins,
        "within_bound": sign * (h_med - b_med) <= bound * b_med,
        "gain": (head_wins >= 0.9 * len(b)
                 and sign * (b_med - h_med) > b_q3 - b_q1 and excludes_one),
    }


def end_to_end_metrics(side: Path):
    with open(side / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    return declared["run_seconds"], {
        m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    base_sha = git("rev-parse", f"{args.base}^{{commit}}").strip()
    if args.head is None:
        head_rev = {"worktree_of": git("rev-parse", "HEAD").strip(),
                    "tree": worktree_tree(args.workdir)}
        head_treeish = head_rev["tree"]
    else:
        head_treeish = git("rev-parse", f"{args.head}^{{commit}}").strip()
        head_rev = {"commit": head_treeish}
    sides = {"base": args.workdir / "base", "head": args.workdir / "head"}
    export(base_sha, sides["base"])
    export(head_treeish, sides["head"])
    seconds, metrics = end_to_end_metrics(sides["head"])

    rng = np.random.default_rng(0)
    out = {
        "base": {"commit": base_sha}, "head": head_rev,
        "settings": {"pairs": PAIRS, "seconds": seconds,
                     "seed_from": args.seed_from},
        # a child that writes no bytecode compiles every import afresh,
        # which slows setup_s: compare two files only in the same mode
        "machine": {"platform": platform.platform(),
                    "cpus": os.cpu_count(),
                    "writes_bytecode":
                        not child_env().get("PYTHONDONTWRITEBYTECODE")},
        "versions": {"python": platform.python_version(),
                     "numpy": version("numpy"), "mpmath": version("mpmath")},
        "workloads": {},
        "tier1_s": {},
        "tier1_outcome": {},
    }
    for side in ("base", "head"):
        wall, outcome = run_tier1(sides[side])
        out["tier1_s"][side] = wall
        out["tier1_outcome"][side] = outcome
        print(f"tier1 {side}: {wall:.1f} s, {outcome}", file=sys.stderr)
    for workload in args.workload or WORKLOADS:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = args.seed_from + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_bench(sides[side], workload, seed,
                                            seconds))
            passes = [runs[s][-1].get("metrics", {}).get("pass_s")
                      for s in ("base", "head")]
            print(f"{workload} pair {i} seed {seed} ({order[0]} first): "
                  f"pass_s base {passes[0]} head {passes[1]}",
                  file=sys.stderr)
        summary = {}
        ok = all(r["correct"] for side in runs.values() for r in side)
        if ok:
            for name, (better, bound) in metrics.items():
                summary[name] = compare(
                    [r["metrics"][name] for r in runs["base"]],
                    [r["metrics"][name] for r in runs["head"]],
                    better, bound, rng)
                s = summary[name]
                print(f"{workload:10s} {name:12s} "
                      f"base {s['base']['median']:.4g} "
                      f"head {s['head']['median']:.4g} ratio {s['ratio']:.3f}"
                      f" [{s['ratio_interval_95'][0]:.3f}, "
                      f"{s['ratio_interval_95'][1]:.3f}] wins "
                      f"{s['head_wins']}:{s['base_wins']}"
                      f"{' gain' if s['gain'] else ''}"
                      f"{'' if s['within_bound'] else ' OUT OF BOUND'}")
        out["workloads"][workload] = {"all_correct": ok, "summary": summary,
                                      "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0 if all(w["all_correct"] for w in out["workloads"].values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
