"""Experiment orchestration: registry, configs, deterministic execution,
and JSON/CSV report emission.

Every named experiment is a pure function of (params, seed) that returns a
list of `Check`s.  Within an experiment, stochastic tasks derive their own
Philox streams from (seed, experiment id, task label), so results are
independent of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import operator
import time
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Optional

from .errors import ContractError, NumericError, UsageError


class _Deferred:
    """A global name of this module that stands for a module not yet
    imported.  The first attribute read imports it and binds the name to
    it, so later reads cost what a plain module's do, and a command that
    runs no experiment (list, describe, a usage error) loads neither numpy
    nor the compute modules."""

    def __init__(self, alias: str, name: str):
        self._alias, self._name = alias, name

    def __getattr__(self, attr):
        module = importlib.import_module(self._name)
        globals()[self._alias] = module
        return getattr(module, attr)


np = _Deferred("np", "numpy")
anp, cnp, convcnp, kernels, latent, linalg, polyapprox, rng, tnp = (
    _Deferred(name, f"{__package__}.{name}") for name in (
        "anp", "cnp", "convcnp", "kernels", "latent", "linalg", "polyapprox",
        "rng", "tnp"))

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
    description: str
    schema: dict          # param name -> Param
    tolerances: str
    runner: Callable      # (params, seed) -> list of Check
    relations: tuple = ()  # (text, predicate on the params) pairs


REGISTRY: dict = {}


def register(experiment_id: str, description: str, schema: dict,
             tolerances: str, relations: tuple = ()):
    def wrap(fn):
        REGISTRY[experiment_id] = RegistryEntry(
            experiment_id=experiment_id, description=description,
            schema=schema, tolerances=tolerances, runner=fn,
            relations=relations)
        return fn
    return wrap


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


def _rbf(ell=1.0) -> kernels.KernelSpec:
    return kernels.KernelSpec(family="rbf", lengthscale=ell)


# ---------------------------------------------------------------------------
# registry entries


@register(
    "cnp.collision",
    "Stored two-point mean-encoding collision: equal encodings and bit-equal "
    "mean-pool predictions, yet the exact GP posterior means differ.",
    {"x_t": Param(1.0, -10.0, 10.0)},
    "encoding and prediction gaps exactly 0; GP separation > 0.01")
def _run_cnp_collision(params, seed):
    pair = cnp.example_collision_pair()
    decoder = lambda r, x: r[0]
    x_t = params["x_t"]
    out1 = cnp.cnp_predict(decoder, pair.C, x_t)
    out2 = cnp.cnp_predict(decoder, pair.C2, x_t)
    sep = cnp.collision_separation(_rbf(), pair.C, pair.C2, x_t)
    return [Check("encoding_gap", pair.encoding_gap, 0.0, "=="),
            Check("cnp_output_gap", abs(out1 - out2), 0.0, "=="),
            Check("gp_separation", sep, 0.01, ">")]


@register(
    "cnp.pca_bound",
    "Relative MSE of the best d-dimensional linear encoder against the "
    "1 - d/n floor, with a random-encoder dominance check.",
    {"n": Param(4, 1, 64), "d": Param(2, 1, 64), "mode": Param(
        "SyntheticIsotropic",
        choices=("SyntheticIsotropic", "MonteCarloStationary")),
     "n_targets": Param(2000, 1, 10_000), "lengthscale": _ELL},
    "synthetic ratio within 1e-10 of 1 - d/n; no random encoder beats the "
    "optimal one by more than 1e-9; Monte Carlo mode informational",
    relations=(("d <= n", lambda p: p["d"] <= p["n"]),))
def _run_pca_bound(params, seed):
    spec = _rbf(params["lengthscale"]) \
        if params["mode"] == cnp.MONTE_CARLO_STATIONARY else None
    rep = cnp.pca_bound_experiment(
        params["n"], params["d"], mode=params["mode"], spec=spec,
        n_targets=params["n_targets"], seed=seed)
    ratio = rep["measured_ratio"]
    synthetic = params["mode"] == cnp.SYNTHETIC_ISOTROPIC
    return [
        Check("measured_ratio", ratio,
              rep["bound"] - 1e-10 if synthetic else rep["bound"],
              ">=" if synthetic else "info"),
        Check("ratio_deviation", abs(rep["deviation_from_bound"]), 1e-10,
              "<=" if synthetic else "info"),
        Check("dominance_margin", ratio - rep["best_random_encoder_ratio"],
              1e-9, "<="),
    ]


@register(
    "anp.kernel_smoother",
    "Softmax attention with log-kernel scores reproduces the kernel-weighted "
    "mean exactly, over random contexts.",
    {"n_configs": Param(500, 1, 10_000), "n_max": Param(16, 1, 64),
     "lengthscale": Param(1.0, 0.2, 10.0)},  # no kernel underflow on [-3, 3]
    "max absolute gap <= 1e-10 over all configurations")
def _run_kernel_smoother(params, seed):
    spec = _rbf(params["lengthscale"])
    score = anp.log_kernel_score(spec)
    value_map = lambda x, y: (y[0], 1.0)
    decoder = lambda x, r: r[0] / r[1]
    worst = 0.0
    for i in range(params["n_configs"]):
        gen = rng.stream(seed, "anp.kernel_smoother", i)
        n = int(gen.integers(1, params["n_max"] + 1))
        C = cnp.ContextSet(gen.uniform(-3, 3, (n, 1)), gen.normal(size=(n, 1)))
        x_t = gen.uniform(-3, 3, 1)
        a = anp.anp_predict(score, value_map, decoder, C, x_t)
        b = anp.nadaraya_watson(spec, C, x_t)
        worst = max(worst, abs(a - b))
    return [Check("max_gap", worst, 1e-10, "<=")]


@register(
    "anp.factorization",
    "Two planar configurations with identical per-point score inputs whose "
    "exact GP weights differ: no factorized attention rule can match both.",
    {"angle_a": Param(180.0, 1.0, 359.0), "angle_b": Param(60.0, 1.0, 359.0)},
    "GP weight gap >= 0.15; gap matches the closed form within 1e-4")
def _run_factorization(params, seed):
    rep = anp.factorization_counterexample(
        _rbf(), angle_a_deg=params["angle_a"], angle_b_deg=params["angle_b"])
    gap = rep["gp_weight_gap"]
    closed_form = (np.exp(-0.5) / (1 + np.exp(-2.0))
                   - np.exp(-0.5) / (1 + np.exp(-0.5)))
    default_angles = params["angle_a"] == 180.0 and params["angle_b"] == 60.0
    return [
        Check("gp_weight_gap", gap, 0.15, ">=" if default_angles else "info"),
        Check("closed_form_deviation", abs(gap - closed_form),
              1e-4, "<=" if default_angles else "info"),
        Check("score_inputs_identical",
              1.0 if rep["score_inputs_identical"] else 0.0, 1.0, "=="),
    ]


def _expanded_product(A: np.ndarray, alphas, H: np.ndarray) -> np.ndarray:
    coeffs = np.array([1.0])
    for a in alphas:
        coeffs = np.convolve(coeffs, np.array([1.0, a]))
    out = coeffs[-1] * H
    for c in coeffs[-2::-1]:
        out = A @ out + c * H
    return out


@register(
    "tnp.polynomial_structure",
    "Layerwise residual attention stacks equal their expanded matrix "
    "polynomial: depth L applies a degree-L polynomial in the attention "
    "matrix.",
    {"n_grams": Param(20, 1, 200), "n": Param(6, 1, 64),
     "max_depth": Param(8, 1, 32)},
    "layerwise vs expanded deviation <= 1e-10 on every random Gram")
def _run_poly_structure(params, seed):
    worst = 0.0
    for i in range(params["n_grams"]):
        gen = rng.stream(seed, "tnp.polynomial_structure", i)
        X = gen.uniform(-3, 3, (params["n"], 1))
        A = tnp.normalize_attention(kernels._gram_matrix(_rbf(), X))
        L = 1 + i % params["max_depth"]
        alphas = gen.uniform(-1.5, 1.5, L)
        H0 = gen.normal(size=(params["n"], 2))
        sched = polyapprox.product_schedule(alphas)
        layerwise = tnp.tnp_forward(A, sched, H0)
        expanded = _expanded_product(A, alphas, H0)
        worst = max(worst, float(np.max(np.abs(layerwise - expanded))))
    return [Check("max_deviation", worst, 1e-10, "<=")]


@register(
    "tnp.eig_family",
    "Rank-one eigenvalue family: unit row sums, moving eigenvalue "
    "mu1(t) = 1/kappa + t, all other eigenvalues exactly one.",
    {"kappas": Param([4.0, 16.0, 64.0], 2.0, 1000.0), "n": Param(8, 2, 64),
     "t_points": Param(20, 1, 256)},
    "all three deviations <= 1e-10 on the t grid")
def _run_eig_family(params, seed):
    dev_rows = dev_quad = dev_spec = 0.0
    members = [tnp.eig_family(kappa, params["n"], t)
               for kappa in params["kappas"]
               for t in np.linspace(0.0, 1.0 - 1.0 / kappa,
                                    params["t_points"])]
    spectra = linalg.jacobi_eigvalsh_many([mem.matrix for mem in members])
    for mem, vals in zip(members, spectra):
        dev_rows = max(dev_rows, float(np.max(np.abs(
            mem.matrix @ np.ones(mem.n) - 1.0))))
        dev_quad = max(dev_quad, abs(
            float(mem.v1 @ mem.matrix @ mem.v1) - mem.mu1))
        expected = np.sort(np.concatenate([[mem.mu1], np.ones(mem.n - 1)]))
        dev_spec = max(dev_spec, float(np.max(np.abs(vals - expected))))
    return [Check("row_sum_deviation", dev_rows, 1e-10, "<="),
            Check("eigenvalue_deviation", dev_quad, 1e-10, "<="),
            Check("spectrum_deviation", dev_spec, 1e-10, "<=")]


# contexts tnp.gp_pipeline draws before it gives up; each draw factors a Gram
_PIPELINE_DRAWS = 200


@register(
    "tnp.gp_pipeline",
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
                lambda p: p["max_kappa"] > 1),))
def _run_gp_pipeline(params, seed):
    spec = _rbf(params["lengthscale"])
    max_kappa = params["max_kappa"]
    best = np.inf  # smallest kappa of a rejected draw
    for attempt in range(_PIPELINE_DRAWS):
        gen = rng.stream(seed, "tnp.gp_pipeline", attempt)
        gaps = params["min_separation"] + gen.uniform(0.0, 0.4, params["n"])
        xs = np.cumsum(gaps)
        S = kernels.gram_spectrum(spec, xs.reshape(-1, 1))
        if S.kappa <= max_kappa:
            break
        best = min(best, S.kappa)
    else:
        raise NumericError(
            f"no context of {params['n']} points had kappa <= {max_kappa:g} "
            f"in {_PIPELINE_DRAWS} draws; the best kappa was {best:.6g}",
            bracket=(best, max_kappa))
    y = gen.normal(size=params["n"])
    C = cnp.ContextSet(xs.reshape(-1, 1), y.reshape(-1, 1))
    x_t = gen.uniform(0.0, 12.0, 1)
    rep = tnp.tnp_gp_pipeline(spec, C, x_t, params["L"], spectrum=S)
    return [Check("error_vs_oracle", rep["error_vs_oracle"], rep["bound"],
                  "<="),
            Check("kappa", rep["kappa"], params["max_kappa"], "info")]


@register(
    "tnp.depth_barrier",
    "Depth lower bound on the eigenvalue family: quadratic forms of depth-L "
    "stacks are degree-L polynomials in the moving eigenvalue, the degree-2L "
    "minimax oracle bounds their accuracy, and the oracle decays at the "
    "square-root-of-kappa rate.",
    {"kappa": Param(16.0, 2.0, 1000.0), "n": Param(8, 2, 64),
     "L": Param(3, 1, 63), "t_grid": Param(24, 8, 256),
     "eps": Param(1e-2, 1e-15, 1.0)},
    "fit residual <= 1e-8; decay slope within 5% of log rho; oracle error "
    ">= classical barrier (valid for kappa >= 2 + sqrt(5))",
    relations=(("t_grid >= 4 L + 4",
                lambda p: p["t_grid"] >= 4 * p["L"] + 4),))
def _run_depth_barrier(params, seed):
    rep = tnp.depth_barrier_experiment(
        params["kappa"], params["n"], params["L"], params["t_grid"],
        seed=seed, eps=params["eps"])
    slope_dev = abs(rep["decay_slope"] - rep["log_rho"]) / abs(rep["log_rho"])
    return [Check("fit_residual", rep["fit_residual"], 1e-8, "<="),
            Check("slope_relative_deviation", slope_dev, 0.05, "<="),
            Check("oracle_error", rep["oracle_error"], rep["barrier"], ">="),
            Check("implied_min_depth", rep["implied_min_depth"], None, "info")]


@register(
    "polyapprox.inverse_bounds",
    "Neumann and Chebyshev inverse iterations meet their convergence-factor "
    "bounds on random SPD matrices; deep Chebyshev depths are certified "
    "spectrally in extended precision.",
    {"n_matrices": Param(10, 1, 100), "n_max": Param(16, 4, 64),
     "max_depth": Param(40, 1, 100), "kappa_min": Param(10.0, 2.0, 1000.0),
     "kappa_max": Param(100.0, 2.0, 1000.0)},
    "error <= (2/lambda_min) rho^L (Chebyshev) and <= rho_N^L / lambda_min "
    "(Neumann) for all depths up to max_depth",
    relations=(("kappa_min <= kappa_max",
                lambda p: p["kappa_min"] <= p["kappa_max"]),))
def _run_inverse_bounds(params, seed):
    chebyshev, neumann = [], []
    for i in range(params["n_matrices"]):
        gen = rng.stream(seed, "polyapprox.inverse_bounds", i)
        n = int(gen.integers(4, params["n_max"] + 1))
        kappa = float(gen.uniform(params["kappa_min"], params["kappa_max"]))
        Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
        lams = np.concatenate([[1.0 / kappa, 1.0],
                               gen.uniform(1.0 / kappa, 1.0, n - 2)])
        eigenvalues = linalg.jacobi_eigvalsh((Q * lams) @ Q.T)
        depths = (1, 3, 5, params["max_depth"])
        chebyshev += [m for _, _, m in
                      polyapprox.chebyshev_exact_check(eigenvalues, depths)]
        neumann += [m for _, _, m in
                    polyapprox.neumann_exact_check(eigenvalues, depths)]
    # np.min, unlike Python's min, keeps a NaN margin, so that it fails
    return [Check("chebyshev_margin", np.min(chebyshev), 0.0, ">="),
            Check("neumann_margin", np.min(neumann), 0.0, ">=")]


@register(
    "polyapprox.minimax_decay",
    "Discrete minimax oracle on [1/kappa, 1]: geometric error decay at the "
    "square-root-of-kappa rate, with the depth advantage over the Neumann "
    "series.",
    # the Neumann depth search stops at 5000; at kappa 100 and eps 1e-12 it
    # needs about kappa ln(kappa / eps) = 3200
    {"kappa": Param(16.0, 2.0, 100.0),
     "degrees": Param([6, 8, 10, 12, 14, 16], 0, 64),
     "eps": Param(1e-6, 1e-12, 1.0)},
    "decay slope within 5% of log rho; Chebyshev depth <= "
    "(2/sqrt(kappa) + 0.2) x Neumann depth",
    relations=(("two distinct degrees (a slope needs two points)",
                lambda p: len(set(p["degrees"])) >= 2),))
def _run_minimax_decay(params, seed):
    kappa = params["kappa"]
    degs = params["degrees"]
    errs = [polyapprox.minimax_oracle(1.0 / kappa, 1.0, d).error for d in degs]
    slope = float(np.polyfit(degs, np.log(errs), 1)[0])
    log_rho = float(np.log(polyapprox.chebyshev_rho(kappa)))
    slope_dev = abs(slope - log_rho) / abs(log_rho)
    d_cheb = polyapprox.depth_to_target(
        polyapprox.CHEBYSHEV, 1.0 / kappa, 1.0, params["eps"])
    d_neu = polyapprox.depth_to_target(
        polyapprox.NEUMANN, 1.0 / kappa, 1.0, params["eps"])
    return [Check("slope_relative_deviation", slope_dev, 0.05, "<="),
            Check("depth_ratio", d_cheb / d_neu, 2.0 / np.sqrt(kappa) + 0.2,
                  "<="),
            Check("chebyshev_depth", d_cheb, None, "info"),
            Check("neumann_depth", d_neu, None, "info")]


@register(
    "convcnp.equivariance",
    "Kernel smoothers are translation equivariant for stationary kernels "
    "and measurably not for amplitude-scaled non-stationary ones.",
    {"shift": Param(0.7, -10.0, 10.0), "n": Param(5, 2, 64)},
    "stationary defect <= 1e-10; non-stationary defect > 1e-2")
def _run_equivariance(params, seed):
    gen = rng.stream(seed, "convcnp.equivariance")
    C = cnp.ContextSet(gen.uniform(-2, 2, (params["n"], 1)),
                       gen.normal(size=(params["n"], 1)))
    x_t = gen.uniform(-2, 2, 1)
    stationary = convcnp.equivariance_defect(_rbf(), C, x_t, params["shift"])
    scaled = kernels.KernelSpec(family="scaled", base=_rbf(),
                        amplitude=lambda p: 1.0 + 0.5 * np.sin(p[0]))
    nonstationary = convcnp.equivariance_defect(scaled, C, x_t,
                                                params["shift"])
    return [Check("stationary_defect", stationary, 1e-10, "<="),
            Check("nonstationary_defect", nonstationary, 1e-2, ">")]


@register(
    "convcnp.grid_gp",
    "Grid CNN as a circulant Chebyshev solver: prediction error against the "
    "exact posterior stays within the depth-L rate bound.",
    {"n": Param(32, 2, 256), "spacing": Param(1.0, 0.1, 10.0),
     "depths": Param([5, 10, 20, 40], 1, 1000), "lengthscale": _ELL},
    "error <= ||k|| ||y|| (2/lambda_min) rho^L + 1e-6 at every depth")
def _run_grid_gp(params, seed):
    gen = rng.stream(seed, "convcnp.grid_gp")
    grid = convcnp.GridSpec(n=params["n"], spacing=params["spacing"])
    y = gen.normal(size=params["n"])
    t_index = int(gen.integers(0, params["n"]))
    worst_excess = -np.inf
    kappa = None
    for L in params["depths"]:
        rep = convcnp.grid_cnn_gp(_rbf(params["lengthscale"]), grid, y,
                                  t_index, L)
        worst_excess = max(worst_excess,
                           rep["error_vs_oracle"] - rep["bound"])
        kappa = rep["kappa"]
    return [Check("worst_bound_excess", worst_excess, 1e-6, "<="),
            Check("kappa", kappa, None, "info")]


@register(
    "convcnp.jacobian",
    "Finite-difference Jacobian of the nonlinear grid forward pass matches "
    "the per-frequency circulant factorization.",
    {"n": Param(32, 2, 256), "n_stacks": Param(20, 1, 100),
     "max_layers": Param(3, 1, 8), "support": Param(5, 1, 256),
     "lengthscale": _ELL},
    "per-frequency deviation <= 1e-5 on every random filter stack",
    relations=(("support <= n", lambda p: p["support"] <= p["n"]),))
def _run_jacobian(params, seed):
    n = params["n"]
    grid = convcnp.GridSpec(n=n, spacing=1.0)
    w_row = convcnp.wrapped_kernel_row(_rbf(params["lengthscale"]), grid)
    w_hat = convcnp.circulant(w_row)
    worst = 0.0
    for i in range(params["n_stacks"]):
        gen = rng.stream(seed, "convcnp.jacobian", i)
        L = 1 + int(gen.integers(0, params["max_layers"]))
        filters = [gen.uniform(-0.2, 0.2, params["support"]) for _ in range(L)]
        g_short = gen.uniform(-0.5, 0.5, 3)
        g_row = np.zeros(n)
        g_row[:3] = g_short
        g_hat = convcnp.circulant(g_row)
        forward = convcnp.grid_forward_map(filters, w_row, g_row)
        J_fd = tnp.fd_jacobian(forward, np.zeros(n))
        symbol_fd = convcnp.frequency_diagonal(J_fd)
        fact = convcnp.circulant_jacobian(filters, [0.5] * L, w_hat, g_hat)
        worst = max(worst, float(np.max(np.abs(
            symbol_fd - fact.dft_eigenvalues))))
    return [Check("max_frequency_deviation", worst, 1e-5, "<=")]


@register(
    "convcnp.full_support",
    "A single full-support filter inverts the circulant Gram exactly in "
    "frequency space.",
    {"sizes": Param([8, 32, 128], 2, 256), "lengthscale": _ELL,
     "d1": Param(0.5, 0.01, 10.0)},
    "max_k |J_hat(k) lambda_k - 1| <= 1e-8 at every grid size")
def _run_full_support(params, seed):
    worst = 0.0
    for n in params["sizes"]:
        grid = convcnp.GridSpec(n=n, spacing=1.0)
        row = convcnp.wrapped_kernel_row(_rbf(params["lengthscale"]), grid)
        K_hat = convcnp.circulant(row)
        e0 = np.zeros(n)
        e0[0] = 1.0
        g_hat = convcnp.circulant(e0)
        w_hat = convcnp.circulant(e0)
        filt = convcnp.full_support_solve(K_hat, g_hat, w_hat,
                                          d1=params["d1"])
        J = convcnp.circulant_jacobian([filt], [params["d1"]], w_hat, g_hat)
        dev = float(np.max(np.abs(
            J.dft_eigenvalues * K_hat.dft_eigenvalues.real - 1.0)))
        worst = max(worst, dev)
    return [Check("max_inversion_deviation", worst, 1e-8, "<=")]


@register(
    "convcnp.pure_no_gp",
    "Pure convolutional readouts weight points by query distance alone: two "
    "contexts with equal distance sets get identical outputs while the "
    "exact GP means differ.",
    {"spacing": Param(0.5, 0.01, 1.0)},
    "pure output gap exactly 0; GP mean gap > 0.05",
    relations=(("1/spacing whole (points 1 and 2 on the grid)", lambda p:
                abs(1 / p["spacing"] - round(1 / p["spacing"])) <= 1e-12),))
def _run_pure_no_gp(params, seed):
    rep = convcnp.pure_convcnp_counterexample(_rbf(),
                                              spacing=params["spacing"])
    return [Check("pure_output_gap", rep["pure_output_gap"], 0.0, "=="),
            Check("gp_mean_gap", rep["gp_mean_gap"], 0.05, ">")]


@register(
    "convcnp.depth_support",
    "Depth needed at bounded filter support to invert the grid spectrum, "
    "with the decay-slope check on an affine-symbol grid operator.",
    # n >= 26: the n-point grid has n // 2 + 1 distinct cosines, which a
    # degree-12 fit interpolates to rounding unless n // 2 > 12, and the
    # slope is fit over degrees 4, 6, ..., 12
    {"n": Param(64, 26, 256), "support": Param(4, 2, 256),
     "eps_targets": Param([1e-1, 1e-2, 1e-3], 1e-12, 1.0),
     "slope_a": Param(2.5, 0.01, 100.0), "slope_b": Param(0.75, 0.01, 50.0)},
    "layer count x per-layer degree covers the required degree; slope "
    "within 10% of log rho on the affine symbol",
    relations=(("slope_a > 2 slope_b (a positive affine symbol)",
                lambda p: p["slope_a"] > 2 * p["slope_b"]),))
def _run_depth_support(params, seed):
    grid = convcnp.GridSpec(n=params["n"], spacing=1.0)
    rep = convcnp.depth_support_experiment(
        _rbf(), grid, params["support"], params["eps_targets"])
    achieved = all(entry["achieved"] for entry in rep["required"].values()
                   if entry["degree"] is not None)
    # affine symbol a + 2b cos(w): trig degree equals algebraic degree, so
    # the decay rate is exactly the Chebyshev factor
    row = convcnp.nearest_neighbor_row(params["slope_a"], params["slope_b"],
                                       params["n"])
    rep_affine = convcnp.depth_support_experiment(
        _rbf(), grid, params["support"], [1e-2], first_row=row)
    slope_dev = (abs(rep_affine["decay_slope"] - rep_affine["log_rho"])
                 / abs(rep_affine["log_rho"]))
    return [Check("coverage_ok", 1.0 if achieved else 0.0, 1.0, "=="),
            Check("slope_relative_deviation", slope_dev, 0.10, "<="),
            Check("kappa", rep["kappa"], None, "info")]


@register(
    "latent.cov_rank",
    "Rank-k latent predictives cap the covariance rank above the noise "
    "floor while exact GP posterior covariances stay full rank.",
    {"n_models": Param(100, 1, 1000), "k_max": Param(4, 1, 16),
     "n_configs": Param(100, 1, 1000),
     "min_separation": Param(0.3, 0.01, 1.0)},
    "eigenvalue k+1 <= 1e-8 x trace for latent models; GP posterior "
    "covariance min eigenvalue > 1e-10",
    relations=(("9 min_separation < 8 (10 points fit in [-4, 4])",
                lambda p: 9 * p["min_separation"] < 8.0),))
def _run_cov_rank(params, seed):
    # every draw has its own stream, so all are drawn first and each size
    # group of matrices is factored by one call
    models, covs = [], []
    for i in range(params["n_models"]):
        gen = rng.stream(seed, "latent.cov_rank", "models", i)
        k = 1 + int(gen.integers(0, params["k_max"]))
        B = gen.normal(size=(k, k))
        freqs = gen.uniform(0.5, 2.5, k)

        model = latent.RankKLatent(
            k=k,
            a=lambda x, f=freqs: np.sin(f * float(np.atleast_1d(x)[0]) + f),
            b=lambda x: 0.0,
            m=gen.normal(size=k),
            S=B @ B.T,
            sigma2=float(gen.uniform(0.0, 0.5)))
        X_T = gen.uniform(-3, 3, (k + 3, 1))
        pred = latent.latent_predictive(model, X_T)["cov"]
        models.append(model)
        covs.append(pred - model.sigma2 * np.eye(len(X_T)))
    worst_rel = 0.0
    for model, vals in zip(models, linalg.jacobi_eigvalsh_many(covs)):
        vals = np.sort(vals)[::-1]
        tr = max(float(np.sum(np.abs(vals))), 1e-300)
        worst_rel = max(worst_rel, float(vals[model.k]) / tr)

    entries = []
    for i in range(params["n_configs"]):
        gen = rng.stream(seed, "latent.cov_rank", "gp", i)
        spec = _rbf() if i % 2 == 0 else kernels.KernelSpec(family="matern")
        pts = _separated_points(gen, 10, params["min_separation"])
        entries.append((spec, pts[:4].reshape(-1, 1), pts[4:].reshape(-1, 1)))
    worst_min_eig = min(np.inf, *latent.gp_cov_rank_check(entries))
    return [Check("max_rank_excess", worst_rel, 1e-8, "<="),
            Check("min_gp_eigenvalue", worst_min_eig, 1e-10, ">")]


# draws a rejection sampler may make before it gives up
_MAX_DRAWS = 10_000


def _separated_points(gen, count, min_separation):
    """Place points in [-4, 4] one at a time, rejecting candidates that
    fall within `min_separation` of a placed point."""
    pts = []
    widest = 0.0  # largest nearest-point gap of a rejected candidate
    draws = 0
    while len(pts) < count:
        if draws == _MAX_DRAWS:
            raise NumericError(
                f"placed {len(pts)} of {count} points at least "
                f"{min_separation:g} apart in {draws} draws; the best "
                f"rejected candidate lay {widest:.6g} from a placed point",
                bracket=(widest, min_separation))
        draws += 1
        cand = float(gen.uniform(-4.0, 4.0))
        gap = min((abs(cand - p) for p in pts), default=np.inf)
        if gap >= min_separation:
            pts.append(cand)
        else:
            widest = max(widest, gap)
    return np.array(pts)


@register(
    "latent.mean_bottleneck",
    "Best rank-k factorization of the posterior weight matrix: zero "
    "residual only at full rank, bounded below at half rank.",
    {"n": Param(6, 2, 64), "lengthscale": _ELL,
     "offset": Param(0.37, -10.0, 10.0)},
    "residual <= 1e-8 at k = n; residual > 0.01 x ||Phi||_F at k <= n/2",
    relations=(("(n - 1) 0.4 < 6 (n points 0.4 apart fit in [-3, 3])",
                lambda p: (p["n"] - 1) * 0.4 < 6.0),))
def _run_mean_bottleneck(params, seed):
    n = params["n"]
    gen = rng.stream(seed, "latent.mean_bottleneck")
    widest = 0.0  # largest smallest gap of a rejected draw
    for draws in range(1, _MAX_DRAWS + 1):
        xs = np.sort(gen.uniform(-3, 3, n))
        gap = float(np.min(np.diff(xs)))
        if gap >= 0.4:
            break
        widest = max(widest, gap)
    else:
        raise NumericError(
            f"no draw of {n} points in [-3, 3] had all gaps >= 0.4 in "
            f"{draws} draws; the best draw's smallest gap was {widest:.6g}",
            bracket=(widest, 0.4))
    X_C = xs.reshape(-1, 1)
    X_T = (xs + params["offset"]).reshape(-1, 1)
    spec = _rbf(params["lengthscale"])
    full = latent.mean_matching_residual(spec, X_C, X_T, n)
    half = latent.mean_matching_residual(spec, X_C, X_T, n // 2)
    Phi = latent.posterior_weight_matrix(spec, X_C, X_T)
    frob = float(np.linalg.norm(Phi))
    return [Check("residual_full_rank", full, 1e-8, "<="),
            Check("residual_half_rank_rel", half / frob, 0.01, ">")]


@register(
    "latent.mercer",
    "Spectral tail of the grid Gram: exact zero past the polynomial "
    "kernel's finite rank, and trace-norm optimality of eigenvalue "
    "truncation.",
    {"m": Param(32, 8, 256), "k": Param(3, 1, 32), "degree": Param(2, 0, 8)},
    "polynomial tail exactly 0 at k >= degree + 1; Eckart-Young gap <= "
    "1e-10",
    relations=(("m >= 8 k", lambda p: p["m"] >= 8 * p["k"]),
               ("k >= degree + 1 (the degree-d kernel has rank d + 1)",
                lambda p: p["k"] >= p["degree"] + 1)))
def _run_mercer(params, seed):
    grid = np.linspace(-1.0, 1.0, params["m"]).reshape(-1, 1)
    spec = kernels.KernelSpec(family="polynomial", degree=params["degree"])
    rep = latent.mercer_tail(spec, grid, params["k"])
    ey_gap = abs(rep["tail_trace"] - rep["best_rank_k_error"])
    return [Check("polynomial_tail", rep["tail_trace"], 0.0, "=="),
            Check("eckart_young_gap", ey_gap, 1e-10, "<=")]


@register(
    "latent.bottleneck_lift",
    "Colliding contexts stay indistinguishable after any latent layer built "
    "from the mean encoding; non-colliding contexts separate.",
    {"k": Param(2, 2, 16), "n_target_sets": Param(20, 1, 10_000)},
    "collision pair: identical predictives within 1e-6; perturbed pair "
    "separates by > 1e-3")
def _run_bottleneck_lift(params, seed):
    pair = cnp.example_collision_pair()
    builder = latent.default_latent_builder(params["k"])
    rep = latent.encoder_bottleneck_lift(
        pair.C, pair.C2, builder,
        n_target_sets=params["n_target_sets"], seed=seed)
    # a visibly different context must yield a different predictive
    other = cnp.ContextSet(pair.C2.locations, pair.C2.values + 0.8)
    m1 = latent.latent_predictive(builder(cnp.mean_encoding(pair.C)),
                                  np.array([[0.5], [1.5]]))
    m2 = latent.latent_predictive(builder(cnp.mean_encoding(other)),
                                  np.array([[0.5], [1.5]]))
    separated = float(np.max(np.abs(m1["mean"] - m2["mean"])))
    return [Check("max_predictive_gap",
                  max(rep["max_mean_gap"], rep["max_cov_gap"]), 1e-6, "<="),
            Check("non_collision_gap", separated, 1e-3, ">")]


# the hierarchy suite is every registered experiment, in registration order
HIERARCHY_SUITE = list(REGISTRY)


# ---------------------------------------------------------------------------
# execution

def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config = validate_config(config)
    start = time.perf_counter()
    checks = REGISTRY[config.experiment_id].runner(config.params, config.seed)
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
        return value if np.isfinite(value) else _cell(value)
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
    """Parse the JSON config document {"experiments": [...]}; seeds are
    decimal strings or integers."""
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
