"""The benchmark's tracer keeps working on this checkout's sources: its
self-test passes, and a traced dense_n64 pass checks clean.  These tests
read bench/ and change nothing in it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nplab
from nplab import lab, linalg

ROOT = Path(__file__).resolve().parents[1]
BENCH_MODULES = ("tracer", "layers", "checks", "workloads")


def test_tracer_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(nplab.__file__)),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tracer self-test: pass" in proc.stdout


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's own modules, imported from bench/ and dropped from
    sys.modules again afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in BENCH_MODULES}
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_traced_dense_pass_checks_clean(bench):
    tracer_mod, layers = bench["tracer"], bench["layers"]
    original = linalg.jacobi_eigh
    tracer = tracer_mod.Tracer()
    configs = bench["workloads"].Workload("dense_n64", 0).configs(0)
    uninstall = tracer_mod.install(tracer, work=layers.WORK,
                                   observe=layers.OBSERVED)
    try:
        result = lab.run_suite(configs)
    finally:
        uninstall()
    assert linalg.jacobi_eigh is original
    assert [r.experiment_id for r in result["reports"] if r.failed] == []
    names = {name for name, _, _ in tracer.observed}
    assert "linalg.jacobi_eigh" in names
    assert bench["checks"].traced_results(tracer.observed) == []
    summary, _, _ = tracer.summarize(0, len(tracer))
    assert summary["linalg.jacobi_eigvalsh_many"]["calls"] > 0
