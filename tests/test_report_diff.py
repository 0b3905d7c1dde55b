"""scripts/report_diff.py on report directories written by write_reports."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nplab.lab import ExperimentConfig, run_suite, write_reports

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"


def report_diff(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                           capture_output=True, text=True)


def edit(directory, prefix, change):
    """Rewrite the one JSON report whose file name starts with prefix."""
    (path,) = directory.glob(prefix + "_*.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    configs = [ExperimentConfig("anp.factorization", {}, 0),
               ExperimentConfig("tnp.eig_family", {}, 0)]
    out = tmp_path_factory.mktemp("reports") / "a"
    write_reports(run_suite(configs)["reports"], out)
    return out


def test_identical_but_for_wall_time_exits_0(reports, tmp_path):
    b = tmp_path / "b"
    shutil.copytree(reports, b)
    edit(b, "anp_factorization",
         lambda d: d.update(wall_time_ms=d["wall_time_ms"] + 1.0))
    proc = report_diff(reports, b)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 cells differ, 0 verdicts changed, 0 missing, 0 extra" \
        in proc.stdout


def test_changed_value_is_printed_and_exits_0(reports, tmp_path):
    b = tmp_path / "b"
    shutil.copytree(reports, b)

    def nudge(d):
        d["measurements"]["gp_weight_gap"] *= 1.5
    edit(b, "anp_factorization", nudge)
    proc = report_diff(reports, b)
    assert proc.returncode == 0
    assert "gp_weight_gap measurement:" in proc.stdout
    assert "rel +5.000e-01" in proc.stdout
    assert "1 cells differ" in proc.stdout


def test_nan_against_nan_is_no_change(reports, tmp_path):
    # a NaN cell, and a NaN inside a report-level field, on both sides
    def set_nan(d):
        nan = float("nan")
        d["measurements"]["gp_weight_gap"] = nan
        d["diagnostics"] = {"residual": nan, "bracket": [0.0, nan]}
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        shutil.copytree(reports, side)
        edit(side, "anp_factorization", set_nan)
    proc = report_diff(a, b)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 cells differ" in proc.stdout
    # a NaN against a number is still a change
    proc = report_diff(reports, b)
    assert "gp_weight_gap measurement:" in proc.stdout
    assert "[diagnostics]" in proc.stdout
    assert "2 cells differ" in proc.stdout


def test_verdict_change_exits_1(reports, tmp_path):
    b = tmp_path / "b"
    shutil.copytree(reports, b)

    def flip(d):
        d["verdicts"]["gp_weight_gap"] = "fail"
    edit(b, "anp_factorization", flip)
    proc = report_diff(reports, b)
    assert proc.returncode == 1
    assert "gp_weight_gap VERDICT: pass -> fail" in proc.stdout


def test_missing_and_extra_rows_exit_1(reports, tmp_path):
    b = tmp_path / "b"
    shutil.copytree(reports, b)
    (path,) = b.glob("tnp_eig_family_*.json")
    path.unlink()
    proc = report_diff(reports, b)
    assert proc.returncode == 1
    assert "missing: tnp_eig_family_" in proc.stdout
    proc = report_diff(b, reports)
    assert proc.returncode == 1
    assert "extra: tnp_eig_family_" in proc.stdout


def test_not_a_directory_is_usage_error(reports, tmp_path):
    assert report_diff(reports, tmp_path / "absent").returncode == 2
