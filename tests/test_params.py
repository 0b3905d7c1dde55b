"""Every experiment parameter is declared once, as a `Param` in the
registry; these tests drive bad configs from those declarations through
the in-process CLI and check that each is a usage error raised before any
experiment runs."""

import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nplab import cli, lab
from nplab.errors import UsageError
from nplab.lab import REGISTRY, ExperimentConfig, parse_seed, validate_params


def good_item(param):
    """One in-range value of the param's kind (a list's element)."""
    if param.choices:
        return st.sampled_from(param.choices)
    if param.kind is int:
        return st.integers(param.lo, param.hi)
    return st.floats(param.lo, param.hi)


def good_value(param):
    if isinstance(param.default, list):
        return st.lists(good_item(param), min_size=1, max_size=3)
    return good_item(param)


def bad_item(param):
    """A value of the wrong kind, a bool, a non-finite number or a number
    outside [lo, hi]; never an acceptable list element or scalar."""
    kind = param.kind
    junk = [st.none(), st.booleans(), st.dictionaries(st.text(max_size=2),
                                                      st.integers(),
                                                      max_size=1),
            st.sampled_from(["", "abc", "1,5", "0x10", "[1]"])]
    if kind is int:
        junk += [st.floats(), st.sampled_from(["1.5", "2e3"]),
                 st.integers(max_value=param.lo - 1),
                 st.integers(min_value=param.hi + 1)]
    elif kind is float:
        junk += [st.sampled_from([math.nan, math.inf, -math.inf]),
                 st.floats(max_value=param.lo, exclude_max=True),
                 st.floats(min_value=param.hi, exclude_min=True)]
    else:
        junk += [st.integers(), st.floats(),
                 st.text(max_size=8).filter(lambda t: t not in param.choices)]
    return st.one_of(junk)


def bad_value(param):
    if not isinstance(param.default, list):
        return st.one_of(bad_item(param),
                         st.lists(good_item(param), min_size=1, max_size=2))
    return st.one_of(
        st.just([]),
        good_item(param),  # a bare element where a list belongs
        st.tuples(st.lists(good_item(param), max_size=2),
                  bad_item(param)).map(lambda t: t[0] + [t[1]]))


BAD_SEEDS = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=2**64),
    st.floats(), st.booleans(), st.none(), st.lists(st.integers(), max_size=1),
    st.sampled_from(["abc", "1.5", "-3", str(2**64), ""]))


@st.composite
def bad_configs(draw):
    """One config item that breaks exactly one declared rule: a param's
    kind or range, an entry's relation, or the seed rule."""
    eid = draw(st.sampled_from(sorted(REGISTRY)))
    entry = REGISTRY[eid]
    broken = draw(st.sampled_from(
        ["param", "seed"] + (["relation"] if entry.relations else [])))
    if broken == "param":
        key = draw(st.sampled_from(sorted(entry.schema)))
        return {"experiment_id": eid,
                "params": {key: draw(bad_value(entry.schema[key]))}}
    if broken == "seed":
        return {"experiment_id": eid, "seed": draw(BAD_SEEDS)}
    params = {key: draw(good_value(param))
              for key, param in sorted(entry.schema.items())}
    assume(not all(holds(params) for _, holds in entry.relations))
    return {"experiment_id": eid, "params": params}


def no_run(config):
    raise AssertionError(f"{config.experiment_id} ran")


def run_main(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(item=bad_configs())
def test_schema_fuzz_exits_two_before_any_run(item, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr(lab, "_run_guarded", no_run)
    cfg = tmp_path / "cfg.json"
    # a valid config first: a bad item anywhere stops the whole run
    cfg.write_text(json.dumps({"experiments": [
        {"experiment_id": "cnp.collision"}, item]}), encoding="utf-8")
    code, out = run_main(["run", str(cfg)], capsys)
    assert code == 2, (item, out)
    assert out.err.startswith("usage error: ") and "Traceback" not in out.err
    assert out.out == ""


class TestDeclarations:
    def test_every_param_is_declared_with_a_range(self):
        count = 0
        for entry in REGISTRY.values():
            for key, param in entry.schema.items():
                count += 1
                items = param.default if isinstance(param.default, list) \
                    else [param.default]
                if param.choices:
                    assert all(v in param.choices for v in items), key
                else:
                    assert all(param.lo <= v <= param.hi for v in items), key
        assert count == 62

    def test_defaults_validate_unchanged(self):
        for entry in REGISTRY.values():
            defaults = {k: p.default for k, p in entry.schema.items()}
            assert validate_params(entry, {}) == defaults
            assert validate_params(entry, defaults) == defaults
            assert all(holds(defaults) for _, holds in entry.relations)

    def test_values_take_the_kind_of_the_default(self):
        entry = REGISTRY["convcnp.grid_gp"]
        out = validate_params(entry, {"spacing": 2, "depths": ["3", 4],
                                      "n": "16"})
        assert out["spacing"] == 2.0 and isinstance(out["spacing"], float)
        assert out["depths"] == [3, 4] and out["n"] == 16

    @pytest.mark.parametrize("eid,params,text", [
        ("cnp.pca_bound", {"d": 5}, "d <= n"),
        ("convcnp.jacobian", {"support": 33}, "support <= n"),
        ("latent.mercer", {"k": 5}, "m >= 8 k"),
        ("polyapprox.minimax_decay", {"degrees": [8, 8]},
         "two distinct degrees"),
        ("latent.cov_rank", {"min_separation": 0.89}, "9 min_separation"),
        ("latent.mean_bottleneck", {"n": 16}, "(n - 1) 0.4 < 6"),
        ("tnp.depth_barrier", {"L": 6}, "t_grid >= 4 L + 4"),
        ("latent.mercer", {"k": 1}, "k >= degree + 1"),
        ("latent.mercer", {"k": 2}, "k >= degree + 1"),
        ("latent.mercer", {"degree": 8}, "k >= degree + 1"),
    ])
    def test_relations_name_themselves(self, eid, params, text):
        with pytest.raises(UsageError) as info:
            validate_params(REGISTRY[eid], params)
        assert text in str(info.value)

    def test_depth_is_capped(self):
        # an uncapped depth ran until the process was killed
        with pytest.raises(UsageError, match="L"):
            validate_params(REGISTRY["tnp.gp_pipeline"], {"L": 10**9})


class TestSeedRule:
    @pytest.mark.parametrize("value,want", [
        (0, 0), ("11", 11), (2**64 - 1, 2**64 - 1),
        (str(2**64 - 1), 2**64 - 1)])
    def test_accepted(self, value, want):
        assert parse_seed(value) == want

    @pytest.mark.parametrize("value", [
        -1, 2**64, 1.5, 1.0, True, None, "abc", "-3", "1e3", [1]])
    def test_rejected(self, value):
        with pytest.raises(UsageError):
            parse_seed(value)

    def test_api_seed_checked_before_any_run(self, monkeypatch):
        monkeypatch.setattr(lab, "_run_guarded", no_run)
        with pytest.raises(UsageError, match="seed"):
            lab.run_suite([ExperimentConfig("cnp.collision", {}, -1)])

    @pytest.mark.parametrize("seed", ["abc", 1.5, -3, 2**64])
    def test_config_seed(self, seed, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"experiment_id": "cnp.pca_bound", "seed": seed}]}),
            encoding="utf-8")
        code, out = run_main(["run", str(cfg)], capsys)
        assert code == 2 and out.err.startswith("usage error: ")

    def test_flag_and_env_seed(self, capsys, monkeypatch):
        monkeypatch.setattr(lab, "_run_guarded", no_run)
        code, out = run_main(["suite", "hierarchy", "--seed", "-3"], capsys)
        assert code == 2 and "--seed" in out.err
        # the environment gives no seed: without --seed the config's stands
        seen = []

        def record(configs):
            seen.extend(configs)
            return {"reports": [], "overall_pass": True}
        monkeypatch.setattr(cli, "run_suite", record)
        monkeypatch.setenv("NPLAB_SEED", "-5")
        code, out = run_main(["suite", "hierarchy"], capsys)
        assert code == 0 and {c.seed for c in seen} == {0}


class TestConfigShape:
    @pytest.mark.parametrize("doc,text", [
        ({"experiments": [1]}, "experiment #0"),
        ({"experiments": [{"experiment_id": "cnp.collision"},
                          {"experiment_id": 5}]}, "experiment #1"),
        ({"experiments": [{"experiment_id": "cnp.collision",
                           "params": [1]}]}, "params must be an object"),
        ({"experiments": {}}, '"experiments" list'),
        ([], '"experiments" list'),
        ({"experiments": [{"experiment_id": "cnp.collision"}], "seed": 3},
         "unknown top-level key 'seed'"),
    ])
    def test_bad_shape_is_usage_error(self, doc, text, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.setattr(lab, "_run_guarded", no_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_main(["run", str(cfg)], capsys)
        assert code == 2 and text in out.err, out.err
        assert out.err.count("\n") == 1 and out.out == ""
