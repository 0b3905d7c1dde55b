"""Benchmark of nplab's public API, timed from outside the package.

Run from the repository root:

    python3 bench/run.py --workload hierarchy --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (setup_s, cold_run_s,
pass_s, peak_rss_mb); with ``--trace 1`` it wraps nplab's public functions
and prints the per-layer metrics instead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Progress and diagnostics go to standard error.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread everywhere: with the default OpenBLAS pool, grid passes
# spent more CPU time than wall time on two cores, competing with the cold
# child.  Set before numpy is first imported, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import layers  # noqa: E402  (the benchmark's own modules, next to this file)
import selftest  # noqa: E402
from checks import closed_forms, same_summary, traced_results  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import Workload  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 100

# Each warm pass is followed by one child, taking these in turn, so every
# metric samples the whole run.  Cold passes are sampled twice as often as
# starts: their median is the noisier one, and starts are cheap.
SIDE_TASKS = ("cold", "cold", "setup")
IMPORT_PROFILES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env.pop("NPLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Bench:
    """State of one benchmark run: samples, operation counts, problems."""

    def __init__(self, workload, seconds):
        from nplab.lab import REGISTRY
        self.wl = workload
        self.seconds = seconds
        self.env = child_env()
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = None
        if workload.name != "hierarchy":
            self.config_path = self.dir / "config.json"
            self.config_path.write_text(workload.config_document(),
                                        encoding="utf-8")
        self.n_experiments = len(REGISTRY)
        self.samples = {"setup_s": [], "cold_run_s": [], "pass_s": []}
        self.attempted = 0
        self.failed = 0
        self.failed_ops = []
        self.problems = []

    # -- children ---------------------------------------------------------

    def child(self, argv, ok_codes=(0,)):
        """Run one child to completion; returns (seconds, stdout, stderr)."""
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode not in ok_codes:
            self.problems.append(
                f"{' '.join(argv[1:])} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}")
        return dt, proc.stdout, proc.stderr

    def setup_start(self, timed=True):
        dt, out, _ = self.child([sys.executable, "-m", "nplab", "list"])
        if len(out.splitlines()) != self.n_experiments:
            self.problems.append("nplab list did not list every experiment")
        if timed:
            self.samples["setup_s"].append(dt)

    def cold_pass(self, suite_seed, warm_dir, warm_failed):
        cold_dir = self.dir / f"cold_{suite_seed}"
        shutil.rmtree(cold_dir, ignore_errors=True)
        code = 1 if warm_failed else 0
        dt, _, _ = self.child(self.wl.cli(suite_seed, cold_dir,
                                          self.config_path), ok_codes=(code,))
        self.samples["cold_run_s"].append(dt)
        self.problems += same_summary(cold_dir / "summary.csv",
                                      warm_dir / "summary.csv",
                                      f"{self.wl.name} seed {suite_seed}")
        shutil.rmtree(cold_dir, ignore_errors=True)

    # -- warm passes ------------------------------------------------------

    def warm_pass(self, configs, suite_seed, out_dir):
        """One timed in-process pass; returns (ns, any operation failed)."""
        from nplab import lab  # attributes looked up per call: traced or not
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter_ns()
        result = lab.run_suite(configs)
        lab.write_reports(result["reports"], out_dir)
        dt = time.perf_counter_ns() - t0
        self.account(configs, result["reports"], suite_seed)
        return dt, not result["overall_pass"]

    def account(self, configs, reports, suite_seed):
        self.attempted += len(configs)
        if len(reports) != len(configs):
            self.problems.append(f"{len(configs)} configs gave "
                                 f"{len(reports)} reports")
        for report in reports:
            if report.failed:
                self.failed += 1
                self.failed_ops.append(f"{report.experiment_id}@{suite_seed}")
            self.problems += closed_forms(report)

    def passes(self, at_least):
        """Yield (j, suite seed) for whole rounds of at least ``at_least``
        passes until the run has measured for the requested seconds."""
        start = time.perf_counter()
        for j in itertools.count():
            if j % self.wl.round == 0 and j >= at_least and \
                    time.perf_counter() - start >= self.seconds:
                return
            yield j, self.wl.pass_seed(j)

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self):
        self.setup_start(timed=False)  # fills the bytecode and file caches
        side = itertools.cycle(SIDE_TASKS)
        for j, seed in self.passes(at_least=2 * len(SIDE_TASKS)):
            warm_dir = self.dir / f"warm_{j}"
            ns, failed = self.warm_pass(self.wl.configs(seed), seed, warm_dir)
            self.samples["pass_s"].append(ns * 1e-9)
            if next(side) == "cold":
                self.cold_pass(seed, warm_dir, failed)
            else:
                self.setup_start()
            shutil.rmtree(warm_dir, ignore_errors=True)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, v in self.samples.items():
            print(f"{name} samples:", " ".join(f"{x:.3f}" for x in v),
                  file=sys.stderr)
        metrics = {name: (statistics.median(v), "s")
                   for name, v in self.samples.items()}
        metrics["peak_rss_mb"] = (rss, "MB")
        return metrics

    def traced(self):
        self.problems += selftest.run_all()
        imports = [layers.import_profile(self.child)
                   for _ in range(IMPORT_PROFILES)]
        tracer = Tracer()
        per_pass = []
        overhead = []
        for j, seed in self.passes(at_least=1):
            warm_dir = self.dir / f"warm_{j}"
            configs = self.wl.configs(seed)
            plain_ns, _ = self.warm_pass(configs, seed, warm_dir)
            uninstall = install(tracer, work=layers.WORK,
                                observe=layers.OBSERVED)
            lo = len(tracer)
            try:
                traced_ns, _ = self.warm_pass(configs, seed, warm_dir)
            finally:
                uninstall()
            self.problems += traced_results(tracer.observed)
            tracer.observed.clear()
            summary, top_ns, min_self = tracer.summarize(lo, len(tracer))
            self.problems += layers.accounting(summary, top_ns, min_self,
                                               traced_ns, seed)
            per_pass.append(layers.pass_metrics(summary))
            overhead.append((traced_ns - plain_ns) * 1e-6)
            shutil.rmtree(warm_dir, ignore_errors=True)
        tracer.write(self.dir / "spans.csv")
        metrics = {}
        for name, unit in layers.IMPORT_METRICS:
            metrics[name] = (statistics.median(p[name] for p in imports), unit)
        for name, unit in layers.PASS_METRICS:
            metrics[name] = (statistics.median(p[name] for p in per_pass),
                             unit)
        metrics["trace.overhead_ms"] = (statistics.median(overhead), "ms")
        return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nplab" / "__init__.py").is_file():
        print(f"no nplab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        workload = Workload(args.workload, args.seed)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    bench = Bench(workload, args.seconds)
    metrics = bench.traced() if args.trace else bench.end_to_end()
    for line in bench.problems:
        print("CHECK FAILED:", line, file=sys.stderr)
    if bench.failed_ops:
        print("failed operations:", " ".join(bench.failed_ops),
              file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
