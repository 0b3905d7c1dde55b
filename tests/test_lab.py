import contextlib
import csv
import json
import operator
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from nplab import cnp, lab, runners
from nplab.errors import ContractError, NumericError, UsageError
from nplab.lab import (FAIL, HIERARCHY_SUITE, INFO, PASS, REGISTRY, Check,
                       ExperimentConfig, hierarchy_configs,
                       parse_config_file, run_experiment, run_suite,
                       validate_params, write_reports)


@contextlib.contextmanager
def time_budget(seconds):
    """Fail the block, rather than hang, once it runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(*argv, stdout=subprocess.PIPE):
    """Run `python -m nplab` on this checkout's sources, whatever the
    caller's PYTHONPATH holds."""
    import nplab
    full_env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nplab.__file__))
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, full_env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "nplab", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=full_env)
    return proc


COMPUTE_MODULES = ("anp", "cnp", "convcnp", "gp_oracle", "kernels", "latent",
                   "linalg", "polyapprox", "rng", "tnp")
HEAVY_MODULES = ("numpy", "scipy", "mpmath", "nplab.runners") + tuple(
    f"nplab.{name}" for name in COMPUTE_MODULES)


def loaded_by_cli(*argv, modules=HEAVY_MODULES):
    """The exit code of `nplab *argv` in a fresh interpreter on this
    checkout's sources, writing no bytecode, and which of `modules` it
    left loaded."""
    import nplab
    script = ("import json, sys\n"
              "from nplab.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[2:])\n"
              "except SystemExit as stop:\n"
              "    code = stop.code\n"
              "print(json.dumps([code, sorted(set(json.loads(sys.argv[1]))\n"
              "                              & set(sys.modules))]))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(nplab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(modules), *argv],
        capture_output=True, text=True, env=env)
    assert proc.stdout, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


class TestRegistry:
    def test_hierarchy_ids_are_registered(self):
        for eid in HIERARCHY_SUITE:
            assert eid in REGISTRY

    def test_registry_entries_have_docs(self):
        for entry in REGISTRY.values():
            assert entry.description.strip()
            assert entry.tolerances.strip()
            assert isinstance(entry.schema, dict)

    def test_validate_rejects_unknown_param(self):
        entry = REGISTRY["cnp.collision"]
        with pytest.raises(UsageError):
            validate_params(entry, {"nonsense": 1})

    def test_validate_coerces_types(self):
        entry = REGISTRY["cnp.collision"]
        out = validate_params(entry, {"x_t": "2"})
        assert out["x_t"] == 2.0 and isinstance(out["x_t"], float)

    def test_declarations_and_runners_match_one_to_one(self):
        # each declaration names its own runner, and nplab.runners defines
        # no runner that no declaration names
        declared = [entry.runner for entry in REGISTRY.values()]
        defined = {name for name, obj in vars(runners).items()
                   if name.startswith("_run_") and callable(obj)}
        assert len(set(declared)) == len(declared) == len(REGISTRY)
        assert set(declared) == defined

    def test_pca_bound_modes_match_cnp(self):
        # the registry spells the modes out so that declaring it loads no
        # compute module; they must stay the names cnp compares against
        mode = REGISTRY["cnp.pca_bound"].schema["mode"]
        assert mode.default == cnp.SYNTHETIC_ISOTROPIC
        assert mode.choices == (cnp.SYNTHETIC_ISOTROPIC,
                                cnp.MONTE_CARLO_STATIONARY)


class TestRunExperiment:
    def test_unknown_id(self):
        with pytest.raises(UsageError):
            run_experiment(ExperimentConfig(experiment_id="nope"))

    def test_collision_experiment_passes(self):
        rep = run_experiment(ExperimentConfig(experiment_id="cnp.collision"))
        assert not rep.failed
        assert all(v in (PASS, FAIL, INFO) for v in rep.verdicts.values())

    def test_report_verdicts_reference_measurements(self):
        rep = run_experiment(ExperimentConfig(experiment_id="anp.factorization"))
        for name in rep.verdicts:
            assert name in rep.measurements
            assert name in rep.bounds

    def test_unknown_relation_rejected(self):
        with pytest.raises(ContractError):
            Check("gap", 1.0, 0.0, "<")
        with pytest.raises(ContractError):
            Check("gap", 1.0, None, "<=")  # only info may lack a bound
        assert Check("gap", 1.0, None, "info").verdict == INFO


class TestRejectionSamplers:
    def test_mean_bottleneck_runs_wherever_its_relation_holds(self):
        # up to the relation's edge: at n = 15, 14 gaps of 0.4 leave 0.4
        # of [-3, 3] free
        with time_budget(30):
            for n in (10, 12, 15):
                report = run_experiment(ExperimentConfig(
                    experiment_id="latent.mean_bottleneck", params={"n": n}))
                assert report.error is None and not report.failed
        with pytest.raises(UsageError):  # 15 gaps of 0.4 fill [-3, 3]
            run_experiment(ExperimentConfig(
                experiment_id="latent.mean_bottleneck", params={"n": 16}))

    def test_gp_pipeline_draws_are_capped(self):
        # at lengthscale 10 every 16-point Gram has kappa far above 100
        with time_budget(30):
            with pytest.raises(NumericError, match="200 draws") as info:
                run_experiment(ExperimentConfig(
                    experiment_id="tnp.gp_pipeline",
                    params={"lengthscale": 10.0}))
        best, max_kappa = info.value.bracket
        assert max_kappa == 100.0 and best > max_kappa
        assert f"kappa was {best:.6g}" in str(info.value)

    def test_cov_rank_separation_is_checked(self):
        with time_budget(30):
            with pytest.raises(UsageError):  # 9 gaps of 1.0 exceed [-4, 4]
                run_experiment(ExperimentConfig(
                    experiment_id="latent.cov_rank",
                    params={"min_separation": 1.0}))
            # near the relation's edge: 9 gaps of 0.88 leave 0.08 of [-4, 4]
            # free
            report = run_experiment(ExperimentConfig(
                experiment_id="latent.cov_rank",
                params={"min_separation": 0.88, "n_models": 1}))
        assert report.error is None and not report.failed


class _Extreme:
    """A generator stub whose uniform draws all sit at one end of their
    range: 0, or the largest value numpy's uniform can return."""

    def __init__(self, top):
        self.fraction = 1.0 - 2.0 ** -53 if top else 0.0

    def uniform(self, low, high, size):
        return np.full(size, low + (high - low) * self.fraction)


def rejection_points(gen, m, n, lo, hi, gap):
    """The law the spaced points must have: m draws of n sorted uniforms
    on [lo, hi], kept when every gap is at least `gap`."""
    kept = []
    while sum(len(k) for k in kept) < m:
        xs = np.sort(gen.uniform(lo, hi, (4 * m, n)), axis=-1)
        kept.append(xs[np.min(np.diff(xs, axis=-1), axis=-1) >= gap])
    return np.concatenate(kept)[:m]


class TestSpacedPoints:
    # lo + u + i gap rounds in its product and its two sums, so a computed
    # gap can fall short of `gap` by about an ulp of the span hi - lo
    SLACK_ULPS = 4

    def assert_spaced(self, pts, lo, hi, gap):
        assert np.all(np.diff(pts, axis=-1) >= 0.0)
        assert pts.min() >= lo and pts.max() <= hi
        slack = self.SLACK_ULPS * np.spacing(hi - lo)
        assert np.min(np.diff(pts, axis=-1)) >= gap - slack

    @pytest.mark.parametrize("shape,lo,hi,gap", [
        ((6,), -3.0, 3.0, 0.4),
        ((15,), -3.0, 3.0, 0.4),     # mean_bottleneck's largest n
        ((100, 10), -4.0, 4.0, 0.3),
        ((100, 10), -4.0, 4.0, 0.888),  # cov_rank's widest separation
    ])
    def test_points_are_sorted_spaced_and_inside(self, shape, lo, hi, gap):
        gen = np.random.default_rng(7)
        for _ in range(20):
            pts = runners._spaced_points(gen, shape, lo, hi, gap)
            assert pts.shape == shape
            self.assert_spaced(pts, lo, hi, gap)
        for top in (False, True):
            pts = runners._spaced_points(_Extreme(top), shape, lo, hi, gap)
            self.assert_spaced(pts, lo, hi, gap)

    def test_law_matches_the_rejection_sampler(self):
        # 3 points 1.0 apart on [-3, 3]: rejection keeps about 30 % of draws
        m, n, lo, hi, gap = 20_000, 3, -3.0, 3.0, 1.0
        spaced = runners._spaced_points(np.random.default_rng(1), (m, n),
                                        lo, hi, gap)
        rejected = rejection_points(np.random.default_rng(2), m, n, lo, hi,
                                    gap)
        for stat in (lambda x: x, lambda x: x ** 2,
                     lambda x: np.min(np.diff(x, axis=-1), axis=-1)):
            a, b = stat(spaced), stat(rejected)
            # the two sample means differ by about their Monte Carlo
            # standard error; 5 of them leaves room at a fixed seed
            se = np.sqrt(a.var(axis=0) / m + b.var(axis=0) / m)
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se)


class TestDegenerateParams:
    @pytest.mark.parametrize("eid,params", [
        ("convcnp.grid_gp", {"depths": []}),
        ("convcnp.full_support", {"sizes": []}),
        ("convcnp.jacobian", {"n_stacks": 0}),
        ("convcnp.jacobian", {"n_stacks": -1}),
        ("anp.kernel_smoother", {"n_configs": 0}),
        ("cnp.pca_bound", {"n_targets": 0}),
        ("cnp.pca_bound", {"n_targets": 0, "mode": "MonteCarloStationary"}),
        ("convcnp.depth_support", {"eps_targets": []}),
        ("latent.bottleneck_lift", {"n_target_sets": 0}),
        ("latent.cov_rank", {"n_models": 0}),
        ("latent.cov_rank", {"n_configs": 0, "n_models": 1}),
        ("polyapprox.minimax_decay", {"degrees": []}),
        ("tnp.eig_family", {"kappas": []}),
        ("tnp.eig_family", {"t_points": 0}),
        ("tnp.polynomial_structure", {"n_grams": 0}),
        # counts below these could not run at all (no gap, i % 0, an
        # empty integer range)
        ("latent.mean_bottleneck", {"n": 1}),
        ("latent.mean_bottleneck", {"n": 0}),
        ("tnp.polynomial_structure", {"max_depth": 0}),
        ("latent.cov_rank", {"k_max": 0}),
        ("convcnp.jacobian", {"max_layers": 0}),
        # at 1 the checked gap is 0 by construction: a one-point smoother
        # is constant, and a rank-1 latent reads only the mean location
        ("convcnp.equivariance", {"n": 1}),
        ("latent.bottleneck_lift", {"k": 1}),
        # one point has kappa = 1 and a rate bound of 0; no Gram of n >= 2
        # distinct points has kappa <= 1
        ("tnp.gp_pipeline", {"n": 1}),
        ("tnp.gp_pipeline", {"max_kappa": 1.0}),
        # below 26 points degree 12 interpolates the grid's n // 2 + 1
        # distinct cosines, and the decay slope is fit to rounding noise
        ("convcnp.depth_support", {"n": 2}),
        ("convcnp.depth_support", {"n": 25}),
    ])
    def test_nothing_to_check_is_usage_error(self, eid, params):
        with pytest.raises(UsageError):
            run_experiment(ExperimentConfig(experiment_id=eid, params=params))

    def test_nothing_to_check_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "convcnp.full_support",
             "params": {"sizes": []}}]}), encoding="utf-8")
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "r"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_zero_count_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "latent.cov_rank",
             "params": {"n_configs": 0, "n_models": 1}}]}), encoding="utf-8")
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "r"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n_configs" in proc.stderr

    def test_filter_longer_than_grid_is_named(self):
        # the schema's relation rejects it before any experiment runs
        cfg = ExperimentConfig(experiment_id="convcnp.jacobian",
                               params={"n": 4, "support": 9})
        with pytest.raises(UsageError, match="support <= n"):
            run_suite([ExperimentConfig("cnp.collision"), cfg])


class TestRunSuite:
    def test_guarded_failure_becomes_report(self):
        # a context too tight to condition must not crash the suite
        cfg = ExperimentConfig(experiment_id="tnp.gp_pipeline",
                               params={"min_separation": 1e-9})
        result = run_suite([cfg])
        rep = result["reports"][0]
        assert rep.failed
        assert rep.error is not None
        assert rep.wall_time_ms > 0
        assert not result["overall_pass"]

    def test_suite_alias(self):
        with pytest.raises(UsageError):
            run_suite([])

    def test_one_process_one_answer(self):
        # each experiment is a function of (params, seed) alone: a second
        # run in the same process, in reverse order, gives the same reports
        def dumps(configs):
            return [json.dumps({k: v for k, v in r.to_dict().items()
                                if k != "wall_time_ms"}, sort_keys=True)
                    for r in run_suite(configs)["reports"]]
        configs = hierarchy_configs(3)
        assert dumps(configs) == dumps(configs[::-1])

    def test_numeric_error_keeps_its_diagnostics(self, tmp_path):
        cfg = ExperimentConfig("convcnp.grid_gp", {"spacing": 0.1})
        [rep] = run_suite([cfg])["reports"]
        assert rep.error == \
            "NumericError: circulant Gram numerically singular"
        assert rep.diagnostics == {
            "lambda_min": pytest.approx(-1.197e-8, rel=1e-3)}
        path, _ = write_reports([rep], tmp_path)
        written = json.loads(path.read_text(encoding="utf-8"))
        assert written["diagnostics"] == rep.diagnostics

    def test_non_finite_diagnostics_stay_standard_json(self):
        err = NumericError("x", residual=float("inf"),
                           bracket=(float("nan"), 2.0), other=1.0)
        assert lab._diagnostics(err) == {"residual": "inf",
                                         "bracket": ["nan", 2.0]}
        # an open bracket end is null; a residual of None is not carried
        err = NumericError("x", bracket=(0.0, None), residual=None)
        assert lab._diagnostics(err) == {"bracket": [0.0, None]}
        err = NumericError("x", lambda_min=np.ones(2), bracket=1.5)
        assert lab._diagnostics(err) == {"lambda_min": "array([1., 1.])",
                                         "bracket": 1.5}
        # an error that carries none of them adds no key to the report
        assert lab._diagnostics(ContractError("x")) is None
        rep = lab.ExperimentReport("cnp.collision", {}, 0, [], 1.0,
                                   error="ContractError: x")
        assert "diagnostics" not in rep.to_dict()

    def test_open_bracket_error_is_one_failed_report(self, monkeypatch,
                                                     tmp_path):
        # Remez leaves a bracket end open (None) when its exchange fails
        def runner(params, seed):
            raise NumericError("x", bracket=(1.0, None))
        eid = "polyapprox.minimax_decay"
        monkeypatch.setattr(runners, "_run_minimax_decay", runner)
        result = run_suite([ExperimentConfig(eid),
                            ExperimentConfig("cnp.collision")])
        failed = [r for r in result["reports"] if r.failed]
        assert [r.experiment_id for r in failed] == [eid]
        assert failed[0].diagnostics == {"bracket": [1.0, None]}
        written = [json.loads(p.read_text(encoding="utf-8"))
                   for p in write_reports(result["reports"], tmp_path)
                   if p.suffix == ".json"]
        assert [w.get("diagnostics") for w in written
                if w["experiment_id"] == eid] == [{"bracket": [1.0, None]}]

    def test_hierarchy_configs_cover_suite(self):
        cfgs = hierarchy_configs(seed=7)
        assert [c.experiment_id for c in cfgs] == HIERARCHY_SUITE
        assert all(c.seed == 7 for c in cfgs)


class TestEmission:
    def test_write_reports_layout(self, tmp_path):
        rep = run_experiment(ExperimentConfig(experiment_id="cnp.collision"))
        paths = write_reports([rep], tmp_path)
        json_paths = [p for p in paths if p.suffix == ".json"]
        assert len(json_paths) == 1
        assert json_paths[0].name.startswith("cnp_collision_")
        doc = json.loads(json_paths[0].read_text(encoding="utf-8"))
        assert doc["experiment_id"] == "cnp.collision"
        assert isinstance(doc["seed"], str)  # decimal string, not float

        with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment_id", "measurement_name", "value",
                           "relation", "bound", "verdict", "seed"]
        assert all(len(r) == 7 and r[6] == doc["seed"] for r in rows[1:])

    def test_summary_verdicts_follow_from_rows(self, tmp_path):
        # at seed 1 tnp.gp_pipeline misses its bound, so FAIL rows occur too
        result = run_suite(hierarchy_configs(seed=1))
        write_reports(result["reports"], tmp_path)
        with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(len(r.checks) for r in result["reports"])
        compare = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
                   ">": operator.gt}
        for row in rows:
            if row["relation"] == "info":
                expected = INFO
            else:
                ok = compare[row["relation"]](float(row["value"]),
                                              float(row["bound"]))
                expected = PASS if ok else FAIL
            assert row["verdict"] == expected, row

    def test_csv_17_digit_roundtrip(self, tmp_path):
        rep = run_experiment(ExperimentConfig(experiment_id="anp.factorization"))
        write_reports([rep], tmp_path)
        with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        by_name = {r[1]: float(r[2]) for r in rows}
        for name, value in rep.measurements.items():
            if name in by_name:
                assert by_name[name] == value  # 17 sig digits are lossless


class TestConfigParsing:
    def write_config(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        return p

    def test_happy_path_with_string_seed(self, tmp_path):
        p = self.write_config(tmp_path, {"experiments": [
            {"experiment_id": "cnp.collision", "seed": "11",
             "params": {"x_t": 0.5}}]})
        cfgs = parse_config_file(p)
        assert cfgs[0].seed == 11
        assert cfgs[0].params == {"x_t": 0.5}

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(UsageError):
            parse_config_file(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = self.write_config(tmp_path, {"experiments": [
            {"experiment_id": "cnp.collision", "bogus": 1}]})
        with pytest.raises(UsageError):
            parse_config_file(p)

    def test_missing_id_rejected(self, tmp_path):
        p = self.write_config(tmp_path, {"experiments": [{"seed": 0}]})
        with pytest.raises(UsageError):
            parse_config_file(p)


class TestCli:
    def test_list_exits_zero(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        assert "cnp.collision" in proc.stdout

    def test_import_loads_no_scipy_or_mpmath(self, tmp_path):
        # numpy and the compute modules load with nplab.runners when the
        # first experiment runs, and nplab never imports scipy or mpmath,
        # so a command that runs no experiment pays for none of them
        unknown_key = tmp_path / "unknown_key.json"
        unknown_key.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.collision", "params": {"bogus": 1}}]}))
        valid = tmp_path / "valid.json"
        valid.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.collision"}]}))
        for argv, code in ((["list"], 0),
                           (["describe", "anp.kernel_smoother"], 0),
                           (["--help"], 0),
                           (["run", str(unknown_key)], 2)):
            assert loaded_by_cli(*argv) == (code, []), argv
        # the guard sees a run's imports: one experiment loads the runners,
        # and with them numpy and the modules its runner reaches
        code, loaded = loaded_by_cli("run", str(valid))
        assert code == 0
        assert {"numpy", "nplab.runners", "nplab.cnp", "nplab.gp_oracle",
                "nplab.kernels", "nplab.linalg", "nplab.rng"} <= set(loaded)

    def test_remez_runs_load_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call; the discrete Remez
        # and its trigonometric caller take distinct values without it
        cfg = tmp_path / "remez.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "convcnp.depth_support"},
            {"experiment_id": "tnp.depth_barrier"}]}))
        assert loaded_by_cli("run", str(cfg),
                             modules=("numpy", "numpy.ma")) == (0, ["numpy"])

    def test_hierarchy_suite_loads_no_numpy_ma(self):
        # no experiment of the suite takes distinct values with np.unique,
        # the kernel smoother's grouping by context size included
        assert loaded_by_cli("suite", "hierarchy", "--seed", "0",
                             modules=("numpy", "numpy.ma")) == (0, ["numpy"])

    def test_hierarchy_pass_loads_no_scipy(self):
        # nplab depends on numpy only; scipy and mpmath are test oracles
        import os
        import nplab
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(nplab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from nplab.lab import hierarchy_configs, run_suite; "
             "run_suite(hierarchy_configs()); "
             "print('scipy' in sys.modules, 'mpmath' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    def test_describe_known(self):
        proc = run_cli("describe", "anp.kernel_smoother")
        assert proc.returncode == 0
        assert "anp.kernel_smoother" in proc.stdout

    def test_describe_unknown_is_usage_error(self):
        proc = run_cli("describe", "no.such.experiment")
        assert proc.returncode == 2

    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("suite", "nonexistent")
        assert proc.returncode == 2

    def test_run_config_writes_reports(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.collision"}]}), encoding="utf-8")
        out = tmp_path / "reports"
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        assert (out / "summary.csv").exists()
        assert "overall: pass" in proc.stdout

    def test_reports_of_two_seeds_keep_their_own_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.collision", "seed": 1},
            {"experiment_id": "cnp.collision", "seed": 2},
            {"experiment_id": "cnp.pca_bound", "seed": 1}]}),
            encoding="utf-8")
        out = tmp_path / "r"
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        files = sorted(p.name for p in out.iterdir())
        assert f"wrote {len(files)} report file(s)" in proc.stdout
        assert len(files) == 4
        seeds = {json.loads((out / name).read_text())["seed"]
                 for name in files if name.startswith("cnp_collision_")}
        assert seeds == {"1", "2"}
        # a report whose experiment and params no other report shares keeps
        # the name without the seed
        assert sum(name.startswith("cnp_pca_bound_") and "_seed" not in name
                   for name in files) == 1

    def test_identical_configs_are_a_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.collision", "seed": 1},
            {"experiment_id": "cnp.collision", "seed": "1", "params": {}}]}),
            encoding="utf-8")
        out = tmp_path / "r"
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert "listed twice" in proc.stderr
        assert proc.stdout == ""  # no experiment ran
        assert not any(out.iterdir())

    def test_seed_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.pca_bound", "seed": 5}]}),
            encoding="utf-8")
        out = tmp_path / "r"
        proc = run_cli("run", str(cfg), "--out", str(out), "--seed", "3")
        assert proc.returncode == 0
        report = json.loads(next(out.glob("*.json")).read_text())
        assert report["seed"] == "3"

    def test_numeric_failure_is_a_failed_report(self, tmp_path):
        # lengthscale 10 is in range, but every draw of the capped
        # kappa-rejection has kappa far above max_kappa
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "tnp.gp_pipeline",
             "params": {"lengthscale": 10.0}}]}), encoding="utf-8")
        out = tmp_path / "r"
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        report = json.loads(next(out.glob("*.json")).read_text())
        assert report["error"].startswith("NumericError: ")
        best, max_kappa = report["diagnostics"]["bracket"]
        assert max_kappa == 100.0 and best > max_kappa

    def test_closed_stdout_keeps_every_report_and_the_exit_code(
            self, tmp_path):
        # seed 1 fails tnp.gp_pipeline, so the run earns exit code 1
        whole = run_cli("suite", "hierarchy", "--seed", "1", "--out",
                        str(tmp_path / "whole"))
        assert whole.returncode == 1
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line
        try:
            cut = run_cli("suite", "hierarchy", "--seed", "1", "--out",
                          str(tmp_path / "cut"), stdout=write_end)
        finally:
            os.close(write_end)
        assert cut.returncode == whole.returncode
        assert "Traceback" not in cut.stderr
        assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == \
            sorted(p.name for p in (tmp_path / "whole").iterdir())
        assert len(list((tmp_path / "cut").iterdir())) == \
            len(HIERARCHY_SUITE) + 1

    def test_closed_stdout_is_silent_for_every_command(self):
        for argv in (["list"], ["describe", "cnp.collision"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = run_cli(*argv, stdout=write_end)
            finally:
                os.close(write_end)
            assert proc.returncode == 0, argv
            assert proc.stderr == "", argv

    def test_out_at_a_file_fails_before_the_run(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        proc = run_cli("suite", "hierarchy", "--out", str(taken))
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: --out")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""  # no experiment ran
