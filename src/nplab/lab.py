"""Experiment orchestration: registry, configs, deterministic execution,
and JSON/CSV report emission.

Every named experiment is a pure function of (params, seed) that returns a
list of `Check`s.  Within an experiment, stochastic tasks derive their own
Philox streams from (seed, experiment id, task label), so results are
independent of execution order.  The registry declares each experiment and
names its runner in `nplab.runners`; this module imports the standard
library alone, so that a command that runs no experiment loads no numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import time
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from pathlib import Path
from typing import Optional

from .errors import ContractError, UsageError

PASS = "pass"
FAIL = "fail"
INFO = "informational"

_COMPARE = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
            ">": operator.gt}
RELATIONS = tuple(_COMPARE) + ("info",)


@dataclass(frozen=True)
class Check:
    """One measured value, the bound it is held to and the relation that
    must hold between them; relation "info" records a value undecided."""

    name: str
    value: float
    bound: Optional[float]
    relation: str

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ContractError(f"check {self.name!r}: unknown relation "
                                f"{self.relation!r}; allowed: {RELATIONS}")
        if self.bound is None and self.relation != "info":
            raise ContractError(f"check {self.name!r}: relation "
                                f"{self.relation!r} needs a bound")
        object.__setattr__(self, "value", float(self.value))
        if self.bound is not None:
            object.__setattr__(self, "bound", float(self.bound))

    @property
    def verdict(self) -> str:
        """Compare the value with its bound; a NaN value fails every
        relation.  Every verdict is decided here except two, whose values
        reach their checks already decided as booleans:
        ``anp.factorization``'s ``score_inputs_identical`` (the two
        configurations' score inputs compared with ``==``) and
        ``convcnp.depth_support``'s ``coverage_ok`` (a fold of per-target
        flags that is 1.0 by construction)."""
        if self.relation == "info":
            return INFO
        return PASS if _COMPARE[self.relation](self.value, self.bound) \
            else FAIL


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    params: dict = field(default_factory=dict)
    seed: int = 0


@dataclass
class ExperimentReport:
    experiment_id: str
    params: dict
    seed: int
    checks: list
    wall_time_ms: float
    error: Optional[str] = None
    # what the error carried of NumericError's residual, lambda_min, bracket
    diagnostics: Optional[dict] = None

    @property
    def measurements(self) -> dict:
        return {c.name: c.value for c in self.checks}

    @property
    def bounds(self) -> dict:
        return {c.name: c.bound for c in self.checks}

    @property
    def verdicts(self) -> dict:
        return {c.name: c.verdict for c in self.checks}

    @property
    def failed(self) -> bool:
        return self.error is not None or FAIL in self.verdicts.values()

    def to_dict(self) -> dict:
        out = {
            "experiment_id": self.experiment_id,
            "params": self.params,
            "seed": str(self.seed),
            "measurements": self.measurements,
            "bounds": self.bounds,
            "verdicts": self.verdicts,
            "wall_time_ms": self.wall_time_ms,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


@dataclass(frozen=True)
class Param:
    """One experiment parameter, of the type of its default (a list default:
    a non-empty list of its first element's type), in [lo, hi] or `choices`."""

    default: object
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: tuple = ()

    @property
    def kind(self) -> type:
        many = isinstance(self.default, list)
        return type(self.default[0] if many else self.default)

    @property
    def range(self) -> str:
        one = f"one of {self.choices}" if self.choices else \
            f"{self.kind.__name__} in [{self.lo!r}, {self.hi!r}]"
        return f"non-empty list of {one}" \
            if isinstance(self.default, list) else one

    def parse(self, name: str, value):
        if not isinstance(self.default, list):
            return self._one(name, value)
        if not isinstance(value, list) or not value:
            raise UsageError(f"{name}: need {self.range}, got {value!r}")
        return [self._one(f"{name}[{i}]", v) for i, v in enumerate(value)]

    def _one(self, name, value):
        # a number may come as a decimal string; a bool is never a number
        ok = {int: (Integral, str), float: (Real, str), str: (str,)}
        try:
            out = self.kind(value) if isinstance(value, ok[self.kind]) \
                and not isinstance(value, bool) else None
        except (ValueError, OverflowError):
            out = None
        if out is None or not (out in self.choices if self.choices
                               else self.lo <= out <= self.hi):  # NaN fails
            raise UsageError(f"{name}: need {self.range}, got {value!r}")
        return out


_ELL = Param(1.0, 0.01, 10.0)  # a kernel lengthscale


def parse_seed(value, name: str = "seed") -> int:
    """The one seed rule: an int or a decimal string in [0, 2**64)."""
    return Param(0, 0, 2**64 - 1).parse(name, value)


@dataclass(frozen=True)
class RegistryEntry:
    experiment_id: str
    runner: str           # its (params, seed) function in nplab.runners
    description: str
    schema: dict          # param name -> Param
    tolerances: str
    relations: tuple = ()  # (text, predicate on the params) pairs


def validate_params(entry: RegistryEntry, params) -> dict:
    """The only place a config's params become runnable params or a
    UsageError: each value is checked against its Param, then the whole set
    against the entry's relations."""
    eid = entry.experiment_id
    if not isinstance(params, dict):
        raise UsageError(f"{eid}: params must be an object, got {params!r}")
    out = {key: param.default for key, param in entry.schema.items()}
    for key, value in params.items():
        if key not in entry.schema:
            raise UsageError(f"unknown parameter {key!r} for {eid}; "
                             f"allowed: {sorted(entry.schema)}")
        out[key] = entry.schema[key].parse(f"{eid}: {key}", value)
    for text, holds in entry.relations:
        if not holds(out):
            raise UsageError(f"{eid}: need {text}")
    return out


def registry_entry(experiment_id) -> RegistryEntry:
    if not isinstance(experiment_id, str) or experiment_id not in REGISTRY:
        raise UsageError(
            f"unknown experiment {experiment_id!r}; run 'nplab list'")
    return REGISTRY[experiment_id]


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """A config with its params and seed checked, or a UsageError."""
    eid = config.experiment_id
    params = validate_params(registry_entry(eid), config.params)
    return replace(config, params=params,
                   seed=parse_seed(config.seed, f"{eid}: seed"))


# ---------------------------------------------------------------------------
# registry entries: id, runner, description, schema, tolerances, relations

REGISTRY = {entry.experiment_id: entry for entry in (
    RegistryEntry("cnp.collision", "_run_cnp_collision",
        "Stored two-point mean-encoding collision: equal encodings and "
        "bit-equal mean-pool predictions, yet the exact GP posterior means "
        "differ.",
        {"x_t": Param(1.0, -10.0, 10.0)},
        "encoding and prediction gaps exactly 0; GP separation > 0.01"),
    RegistryEntry("cnp.pca_bound", "_run_pca_bound",
        "Relative MSE of the best d-dimensional linear encoder against the "
        "1 - d/n floor, with a random-encoder dominance check.",
        {"n": Param(4, 1, 64), "d": Param(2, 1, 64), "mode": Param(
            "SyntheticIsotropic",
            choices=("SyntheticIsotropic", "MonteCarloStationary")),
         "n_targets": Param(2000, 1, 10_000), "lengthscale": _ELL},
        "synthetic ratio within 1e-10 of 1 - d/n; no random encoder beats the "
        "optimal one by more than 1e-9; Monte Carlo mode informational",
        relations=(("d <= n", lambda p: p["d"] <= p["n"]),)),
    RegistryEntry("anp.kernel_smoother", "_run_kernel_smoother",
        "Softmax attention with log-kernel scores reproduces the "
        "kernel-weighted mean exactly, over random contexts.",
        {"n_configs": Param(500, 1, 10_000), "n_max": Param(16, 1, 64),
         # no kernel underflow on [-3, 3]
         "lengthscale": Param(1.0, 0.2, 10.0)},
        "max absolute gap <= 1e-10 over all configurations"),
    RegistryEntry("anp.factorization", "_run_factorization",
        "Two planar configurations with identical per-point score inputs "
        "whose exact GP weights differ: no factorized attention rule can "
        "match both.",
        {"angle_a": Param(180.0, 1.0, 359.0),
         "angle_b": Param(60.0, 1.0, 359.0)},
        "GP weight gap >= 0.15; gap matches the closed form within 1e-4"),
    RegistryEntry("tnp.polynomial_structure", "_run_poly_structure",
        "Layerwise residual attention stacks equal their expanded matrix "
        "polynomial: depth L applies a degree-L polynomial in the attention "
        "matrix.",
        {"n_grams": Param(20, 1, 200), "n": Param(6, 1, 64),
         "max_depth": Param(8, 1, 32)},
        "layerwise vs expanded deviation <= 1e-10 on every random Gram"),
    RegistryEntry("tnp.eig_family", "_run_eig_family",
        "Rank-one eigenvalue family: unit row sums, moving eigenvalue "
        "mu1(t) = 1/kappa + t, all other eigenvalues exactly one.",
        {"kappas": Param([4.0, 16.0, 64.0], 2.0, 1000.0), "n": Param(8, 2, 64),
         "t_points": Param(20, 1, 256)},
        "all three deviations <= 1e-10 on the t grid"),
    RegistryEntry("tnp.gp_pipeline", "_run_gp_pipeline",
        "Chebyshev-iteration attention stack solves the Gram system and reads "
        "out the posterior mean within the depth-L rate bound.",
        {"n": Param(16, 2, 64), "L": Param(30, 1, 1000),
         "max_kappa": Param(100.0, 1.0, 1e8),
         "lengthscale": Param(0.4, 0.01, 10.0),
         "min_separation": Param(0.5, 0.0, 10.0)},
        "prediction error <= ||k|| ||y|| (2/lambda_min) rho^L",
        # n = 1 gives kappa = 1 and a rate bound of 0, which rounding alone
        # fails; n >= 2 distinct points give kappa > 1
        relations=(("max_kappa > 1 (kappa > 1 for any n >= 2 distinct points)",
                    lambda p: p["max_kappa"] > 1),)),
    RegistryEntry("tnp.depth_barrier", "_run_depth_barrier",
        "Depth lower bound on the eigenvalue family: quadratic forms of "
        "depth-L stacks are degree-L polynomials in the moving eigenvalue, "
        "the degree-2L minimax oracle bounds their accuracy, and the oracle "
        "decays at the square-root-of-kappa rate.",
        {"kappa": Param(16.0, 2.0, 1000.0), "n": Param(8, 2, 64),
         "L": Param(3, 1, 63), "t_grid": Param(24, 8, 256),
         "eps": Param(1e-2, 1e-15, 1.0)},
        "fit residual <= 1e-8; decay slope within 5% of log rho; oracle error "
        ">= classical barrier (valid for kappa >= 2 + sqrt(5))",
        relations=(("t_grid >= 4 L + 4",
                    lambda p: p["t_grid"] >= 4 * p["L"] + 4),)),
    RegistryEntry("polyapprox.minimax_decay", "_run_minimax_decay",
        "Discrete minimax oracle on [1/kappa, 1]: geometric error decay at "
        "the square-root-of-kappa rate, with the depth advantage over the "
        "Neumann series.",
        # the Neumann depth search stops at 5000; at kappa 100 and eps 1e-12 it
        # needs about kappa ln(kappa / eps) = 3200
        {"kappa": Param(16.0, 2.0, 100.0),
         "degrees": Param([6, 8, 10, 12, 14, 16], 0, 64),
         "eps": Param(1e-6, 1e-12, 1.0)},
        "decay slope within 5% of log rho; Chebyshev depth <= "
        "(2/sqrt(kappa) + 0.2) x Neumann depth",
        relations=(("two distinct degrees (a slope needs two points)",
                    lambda p: len(set(p["degrees"])) >= 2),)),
    RegistryEntry("convcnp.equivariance", "_run_equivariance",
        "Kernel smoothers are translation equivariant for stationary kernels "
        "and not for amplitude-scaled non-stationary ones: a stored witness "
        "moves by sin(1)/2 under a shift of pi, and the random draw's "
        "scaled-kernel defect matches its closed form.",
        {"shift": Param(0.7, -10.0, 10.0), "n": Param(5, 2, 64)},
        "stationary defect <= 1e-10 on the random draw; non-stationary "
        "defect > 1e-2 on the witness x = (-1, 1), y = (0, 1), x_t = 0, "
        "shift pi; the draw's non-stationary defect within 1e-12 of its "
        "closed form (the defect itself is info)"),
    RegistryEntry("convcnp.grid_gp", "_run_grid_gp",
        "Grid CNN as a circulant Chebyshev solver: prediction error against "
        "the exact posterior stays within the depth-L rate bound.",
        {"n": Param(32, 2, 256), "spacing": Param(1.0, 0.1, 10.0),
         "depths": Param([5, 10, 20, 40], 1, 1000), "lengthscale": _ELL},
        "error <= ||k|| ||y|| (2/lambda_min) rho^L + 1e-6 at every depth"),
    RegistryEntry("convcnp.jacobian", "_run_jacobian",
        "Finite-difference Jacobian of the nonlinear grid forward pass "
        "matches the per-frequency circulant factorization.",
        {"n": Param(32, 2, 256), "n_stacks": Param(20, 1, 100),
         "max_layers": Param(3, 1, 8), "support": Param(5, 1, 256),
         "lengthscale": _ELL},
        "per-frequency deviation <= 1e-5 on every random filter stack",
        relations=(("support <= n", lambda p: p["support"] <= p["n"]),)),
    RegistryEntry("convcnp.full_support", "_run_full_support",
        "A single full-support filter inverts the circulant Gram exactly in "
        "frequency space.",
        {"sizes": Param([8, 32, 128], 2, 256), "lengthscale": _ELL,
         "d1": Param(0.5, 0.01, 10.0)},
        "max_k |J_hat(k) lambda_k - 1| <= 1e-8 at every grid size"),
    RegistryEntry("convcnp.pure_no_gp", "_run_pure_no_gp",
        "Pure convolutional readouts weight points by query distance alone: "
        "two contexts with equal distance sets get identical outputs while "
        "the exact GP means differ.",
        {"spacing": Param(0.5, 0.01, 1.0)},
        "pure output gap exactly 0; GP mean gap > 0.05",
        relations=(("1/spacing whole (points 1 and 2 on the grid)",
                    lambda p: abs(1 / p["spacing"]
                                  - round(1 / p["spacing"])) <= 1e-12),)),
    RegistryEntry("convcnp.depth_support", "_run_depth_support",
        "Depth needed at bounded filter support to invert the grid spectrum, "
        "with the decay-slope check on an affine-symbol grid operator.",
        # n >= 26: the n-point grid has n // 2 + 1 distinct cosines, which a
        # degree-12 fit interpolates to rounding unless n // 2 > 12, and the
        # slope is fit over degrees 4, 6, ..., 12
        {"n": Param(64, 26, 256), "support": Param(4, 2, 256),
         "eps_targets": Param([1e-1, 1e-2, 1e-3], 1e-12, 1.0),
         "slope_a": Param(2.5, 0.01, 100.0),
         "slope_b": Param(0.75, 0.01, 50.0)},
        "layer count x per-layer degree covers the required degree; slope "
        "within 10% of log rho on the affine symbol",
        relations=(("slope_a > 2 slope_b (a positive affine symbol)",
                    lambda p: p["slope_a"] > 2 * p["slope_b"]),)),
    RegistryEntry("latent.cov_rank", "_run_cov_rank",
        "Rank-k latent predictives cap the covariance rank above the noise "
        "floor while exact GP posterior covariances stay full rank.",
        {"n_models": Param(100, 1, 1000), "k_max": Param(4, 1, 16),
         "n_configs": Param(100, 1, 1000),
         "min_separation": Param(0.3, 0.01, 1.0)},
        "eigenvalue k+1 <= 1e-8 x trace for latent models; GP posterior "
        "covariance min eigenvalue > 1e-10",
        relations=(("9 min_separation < 8 (10 points fit in [-4, 4])",
                    lambda p: 9 * p["min_separation"] < 8.0),)),
    RegistryEntry("latent.mean_bottleneck", "_run_mean_bottleneck",
        "Best rank-k factorization of the posterior weight matrix: zero "
        "residual only at full rank, bounded below at half rank.",
        {"n": Param(6, 2, 64), "lengthscale": _ELL,
         "offset": Param(0.37, -10.0, 10.0)},
        "residual <= 1e-8 at k = n; residual > 0.01 x ||Phi||_F at k <= n/2",
        relations=(("(n - 1) 0.4 < 6 (n points 0.4 apart fit in [-3, 3])",
                    lambda p: (p["n"] - 1) * 0.4 < 6.0),)),
    RegistryEntry("latent.mercer", "_run_mercer",
        "Spectral tail of the grid Gram: exact zero past the polynomial "
        "kernel's finite rank, and trace-norm optimality of eigenvalue "
        "truncation.",
        {"m": Param(32, 8, 256), "k": Param(3, 1, 32),
         "degree": Param(2, 0, 8)},
        "polynomial tail exactly 0 at k >= degree + 1; Eckart-Young gap <= "
        "1e-10",
        relations=(("m >= 8 k", lambda p: p["m"] >= 8 * p["k"]),
                   ("k >= degree + 1 (the degree-d kernel has rank d + 1)",
                    lambda p: p["k"] >= p["degree"] + 1))),
    RegistryEntry("latent.bottleneck_lift", "_run_bottleneck_lift",
        "Colliding contexts stay indistinguishable after any latent layer "
        "built from the mean encoding; non-colliding contexts separate.",
        {"k": Param(2, 2, 16), "n_target_sets": Param(20, 1, 10_000)},
        "collision pair: identical predictives within 1e-6; perturbed pair "
        "separates by > 1e-3")
)}


# the hierarchy suite is every declared experiment, in the table's order
HIERARCHY_SUITE = list(REGISTRY)


# ---------------------------------------------------------------------------
# execution

def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config = validate_config(config)
    # numpy and the compute modules load with the runners, on the first run
    from . import runners
    start = time.perf_counter()
    runner = getattr(runners, REGISTRY[config.experiment_id].runner)
    checks = runner(config.params, config.seed)
    wall = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(
        experiment_id=config.experiment_id, params=config.params,
        seed=config.seed, checks=checks, wall_time_ms=wall)


def _param_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _run_guarded(config: ExperimentConfig) -> ExperimentReport:
    """Run a validated config; any error becomes a failed report."""
    start = time.perf_counter()
    try:
        return run_experiment(config)
    except Exception as exc:  # deliberate isolation between experiments
        return ExperimentReport(
            experiment_id=config.experiment_id, params=dict(config.params),
            seed=config.seed,
            checks=[Check("execution_failed", 1.0, 0.0, "==")],
            wall_time_ms=(time.perf_counter() - start) * 1000.0,
            error=f"{type(exc).__name__}: {exc}",
            diagnostics=_diagnostics(exc))


def _diagnostics(exc: Exception) -> Optional[dict]:
    """The residual, lambda_min and bracket an error carries, or None if
    it carries none of them. It never raises, since it runs while a failed
    experiment is turned into a report: an end the error left open is JSON
    null, a non-finite value its ``_cell`` string and a value that is no
    number its ``repr``, so that the report stays standard JSON."""
    def number(value):
        if value is None:
            return None
        try:
            value = float(value)
        except Exception:  # whatever the error carries, the report is kept
            return repr(value)
        return value if math.isfinite(value) else _cell(value)
    out = {}
    for key in ("residual", "lambda_min", "bracket"):
        value = getattr(exc, key, None)
        if value is not None:
            out[key] = ([number(v) for v in value]
                        if isinstance(value, (tuple, list))
                        else number(value))
    return out or None


def hierarchy_configs(seed: int = 0) -> list:
    return [ExperimentConfig(experiment_id=eid, params={}, seed=seed)
            for eid in HIERARCHY_SUITE]


def run_suite(configs) -> dict:
    """Validate every config before the first runs, then run each; two
    configs of one experiment, params and seed are a usage error."""
    configs = [validate_config(c) for c in configs]
    if not configs:
        raise UsageError("suite expansion is empty")
    keys = [(c.experiment_id, _param_hash(c.params), c.seed) for c in configs]
    for eid, _, seed in (k for k in keys if keys.count(k) > 1):
        raise UsageError(f"{eid} is listed twice with the same params and "
                         f"seed {seed}")
    reports = [_run_guarded(c) for c in configs]
    reports.sort(key=lambda r: (r.experiment_id, _param_hash(r.params)))
    overall = all(not r.failed for r in reports)
    return {"reports": reports, "overall_pass": overall}


# ---------------------------------------------------------------------------
# emission

def _cell(value: Optional[float]) -> str:
    return "" if value is None else f"{float(value):.17g}"


def write_reports(reports, out_dir) -> list:
    """One JSON file per report plus a flat CSV summary; returns paths.

    A report's file is named by its experiment and params hash, and by its
    seed too where another report of the same write shares both."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    names = [r.experiment_id.replace(".", "_") + "_"
             + _param_hash(r.params) for r in reports]
    shared = {name for name in names if names.count(name) > 1}
    for report, name in zip(reports, names):
        if name in shared:
            name += f"_seed{report.seed}"
        path = out / (name + ".json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    path = out / "summary.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["experiment_id", "measurement_name", "value",
                         "relation", "bound", "verdict", "seed"])
        for report in reports:
            for c in sorted(report.checks, key=lambda c: c.name):
                writer.writerow([report.experiment_id, c.name,
                                 _cell(c.value), c.relation, _cell(c.bound),
                                 c.verdict, report.seed])
    written.append(path)
    return written


def parse_config_file(path) -> list:
    """Parse the JSON config document {"experiments": [...]}, which holds
    no other key; seeds are decimal strings or integers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as err:
        raise UsageError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"config is not valid JSON: {err}") from err
    items = doc.get("experiments") if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise UsageError('config must be an object with an "experiments" list')
    for key in sorted(set(doc) - {"experiments"}):
        raise UsageError(f'unknown top-level key {key!r} in config; it may '
                         f'hold only "experiments"')
    configs = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or \
                not isinstance(item.get("experiment_id"), str) or \
                set(item) - {"experiment_id", "params", "seed"}:
            raise UsageError(f"experiment #{i} must be an object with a "
                             f"string experiment_id and optional params and "
                             f"seed, got {item!r}")
        configs.append(ExperimentConfig(
            experiment_id=item["experiment_id"],
            params=item.get("params", {}),
            seed=parse_seed(item.get("seed", 0), f"experiment #{i}: seed")))
    return configs
