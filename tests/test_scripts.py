"""Smoke runs of the documented scripts on this checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

import nplab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = os.path.dirname(os.path.dirname(nplab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env)


def test_collision_demo_prints_gp_gap():
    proc = run_script("collision_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "gp posterior means at x_t=1: " in proc.stdout
    assert "(gap 0.030176)" in proc.stdout


def test_depth_sweep_writes_csv():
    proc = run_script("depth_sweep.py", "--kappas", "16", "--degrees",
                      "4", "6", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "kappa,degree,minimax_error,chebyshev_bound,barrier"
    assert [line.split(",")[1] for line in lines[1:]] == ["4", "6", "8"]


def test_bench_pair_help():
    proc = run_script("bench_pair.py", "--help")
    assert proc.returncode == 0, proc.stderr
    for flag in ("--base", "--head", "--workdir", "--out", "--workload",
                 "--seed-from"):
        assert flag in proc.stdout
