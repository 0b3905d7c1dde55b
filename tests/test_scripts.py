"""Smoke runs of the documented scripts on this checkout's sources."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nplab
from nplab import lab
from nplab.errors import UsageError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = os.path.dirname(os.path.dirname(nplab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env)


def test_readme_lists_exactly_the_scripts():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `scripts/([\w.]+\.py)", section, re.M))
    assert listed == {p.name for p in SCRIPTS.glob("*.py")}


def test_bench_pair_help():
    proc = run_script("bench_pair.py", "--help")
    assert proc.returncode == 0, proc.stderr
    for flag in ("--base", "--head", "--workdir", "--out", "--workload",
                 "--seed-from"):
        assert flag in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_tier1_run_times_one_side(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text(
        "def test_one():\n    assert True\n\n\n"
        "def test_two():\n    assert False\n")
    seconds, outcome = load_script("bench_pair").run_tier1(tmp_path)
    assert seconds > 0.0
    assert "1 failed, 1 passed" in outcome


def fake_bench_pair(tmp_path, monkeypatch):
    """bench_pair's JSON from one hierarchy run on stand-ins for git, the
    export, Tier-1 and the benchmark, the sides Tier-1 ran on and the run
    lengths the benchmark runs were given."""
    bench_pair = load_script("bench_pair")
    root = SCRIPTS.parent
    tier1 = {}
    lengths = set()

    def export(treeish, dest):
        dest.mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", dest / "BENCHMARK.json")

    def run_tier1(side):
        tier1[side.name] = 12.5 if side.name == "base" else 10.0
        return tier1[side.name], "9 passed"

    def run_bench(side, workload, seed, seconds):
        lengths.add(seconds)
        metrics = {"setup_s": 0.3, "cold_run_s": 1.0, "pass_s": 0.5,
                   "peak_rss_mb": 45.0}
        return {"seed": seed, "exit": 0, "correct": True, "attempted": 1,
                "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pair, "git", lambda *argv, **kw: "abc123\n")
    monkeypatch.setattr(bench_pair, "export", export)
    monkeypatch.setattr(bench_pair, "run_tier1", run_tier1)
    monkeypatch.setattr(bench_pair, "run_bench", run_bench)
    out = tmp_path / "pair.json"
    code = bench_pair.main(["--base", "b", "--head", "h", "--workdir",
                            str(tmp_path / "work"), "--out", str(out),
                            "--workload", "hierarchy"])
    assert code == 0
    return json.loads(out.read_text()), set(tier1), lengths


def test_bench_pair_writes_tier1_s(tmp_path, monkeypatch):
    written, tier1_sides, lengths = fake_bench_pair(tmp_path, monkeypatch)
    assert written["tier1_s"] == {"base": 12.5, "head": 10.0}
    assert written["tier1_outcome"] == {"base": "9 passed",
                                        "head": "9 passed"}
    assert tier1_sides == {"base", "head"}
    # every benchmark run lasts BENCHMARK.json's run_seconds, whatever
    # Tier-1 took
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    assert lengths == {written["settings"]["seconds"]} \
        == {declared["run_seconds"]}


@pytest.mark.parametrize("value, writes", [(None, True), ("", True),
                                           ("1", False)])
def test_bench_pair_records_bytecode_mode(value, writes, tmp_path,
                                          monkeypatch):
    # an empty PYTHONDONTWRITEBYTECODE counts as unset, as Python reads it
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    written, _, _ = fake_bench_pair(tmp_path, monkeypatch)
    assert written["machine"]["writes_bytecode"] is writes


def test_seed_sweep_counts_match_run_suite():
    proc = run_script("seed_sweep.py", "--from", "0", "--to", "1")
    assert proc.returncode == 0, proc.stderr
    want = {eid: [] for eid in lab.HIERARCHY_SUITE}
    for seed in (0, 1):
        for report in lab.run_suite(lab.hierarchy_configs(seed))["reports"]:
            if report.failed:
                want[report.experiment_id].append(seed)
    *lines, total = proc.stdout.splitlines()
    got = {}
    for line in lines:
        eid, count, seeds = re.fullmatch(
            r"(\S+): (\d+) failed(?: at seeds ([\d ]+))?", line).groups()
        got[eid] = [int(s) for s in (seeds or "").split()]
        assert int(count) == len(got[eid])
    assert got == want
    assert total == (f"seeds 0..1: 2 suite runs, "
                     f"{sum(map(len, want.values()))} failed reports")


def test_seed_sweep_rejects_a_reversed_range():
    proc = run_script("seed_sweep.py", "--from", "2", "--to", "1")
    assert proc.returncode == 2
    assert "--from <= --to" in proc.stderr


def test_domain_sweep_counts_match_run_suite():
    eid = "cnp.collision"
    domain_sweep = load_script("domain_sweep")
    edges = domain_sweep.edge_configs(eid)
    interior = domain_sweep.interior_configs(eid)
    # x_t alone at lo and at hi, then the fixed number of interior draws
    assert [c.params for c in edges] == [{"x_t": -10.0}, {"x_t": 10.0}]
    assert len(interior) == domain_sweep.DRAWS
    assert len({(c.params["x_t"], c.seed) for c in interior}) == \
        domain_sweep.DRAWS
    got = domain_sweep.sweep([eid])
    assert list(got) == [eid]
    for phase, configs in (("edges", edges), ("interior", interior)):
        counts, notes = got[eid][phase]
        want = dict.fromkeys(domain_sweep.OUTCOMES, 0)
        for config in configs:
            try:
                [report] = lab.run_suite([config])["reports"]
            except UsageError:
                want["usage error"] += 1
                continue
            want["error" if report.error else
                 "FAIL" if report.failed else "pass"] += 1
        assert counts == want
        assert len(notes) == want["FAIL"] + want["error"]
