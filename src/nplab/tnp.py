"""Polynomial self-attention layers and the depth lower-bound experiment.

A depth-L stack of layers H <- (I + alpha_l A) H applies a degree-L
polynomial in the attention matrix A to its input.  On the rank-one
eigenvalue family K_t the quadratic form v1^T p(K_t) v1 collapses to a
univariate polynomial in the moving eigenvalue mu1(t), so the best any
depth-L stack can do against the inverse target is bounded by the degree-2L
minimax error on [1/kappa, 1], which the discrete exchange oracle computes
outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cnp import ContextSet
from .errors import InputError
from .gp_oracle import posterior_mean
from .kernels import GramSpectrum, KernelSpec, cross_vector, gram_spectrum
from .polyapprox import (apply_schedule, chebyshev_barrier,
                         chebyshev_error_bound, chebyshev_rho,
                         chebyshev_schedule, minimax_oracle, product_schedule)
from .rng import stream

# Columns perturbed per call of F in `fd_jacobian`, which makes
# 2 ceil(n / FD_BLOCK) + 1 calls.  A cap, not all n columns per call: on the
# benchmark's grid_256 workload (n = 256) whole-width blocks raised peak RSS
# from 46.0 to 48.1 MB, and blocks of 64 keep it at 46.1 MB.
FD_BLOCK = 64


def normalize_attention(K: np.ndarray) -> np.ndarray:
    """Row-normalized attention D^{-1} K with D = diag(K 1) for a Gram
    matrix K; rows sum to one.

    No spectrum is computed.  The condition number of D^{-1} K, through
    its symmetric similar matrix D^{-1/2} K D^{-1/2}, lies within a
    factor d_max / d_min of that of K.
    """
    K = np.asarray(K, dtype=float)
    d = K @ np.ones(len(K))
    if np.any(d <= 0):
        raise InputError("attention normalization needs positive row sums")
    return K / d[:, None]


@dataclass(frozen=True)
class EigFamilyMember:
    """I plus a rank-one bump along a fixed unit vector orthogonal to 1.

    All row sums are exactly 1; the spectrum is {mu1(t) = 1/kappa + t}
    along v1 and 1 everywhere else, so the attention normalization is the
    identity on this family.
    """

    t: float
    kappa: float
    n: int
    matrix: np.ndarray
    v1: np.ndarray
    mu1: float


def family_vector(n: int) -> np.ndarray:
    """Alternating-sign unit vector orthogonal to the all-ones vector."""
    if n < 2:
        raise InputError("family needs n >= 2")
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if n % 2 == 1:
        ones = np.ones(n)
        v = v - (v @ ones) / n * ones
    return v / np.linalg.norm(v)


def eig_family(kappa: float, n: int, t: float) -> EigFamilyMember:
    if kappa <= 1:
        raise InputError("kappa must exceed 1")
    if not (0.0 <= t <= 1.0 - 1.0 / kappa + 1e-15):
        raise InputError(f"t={t} outside [0, 1 - 1/kappa]")
    v1 = family_vector(n)
    mu1 = 1.0 / kappa + t
    K_t = np.eye(n) + (mu1 - 1.0) * np.outer(v1, v1)
    return EigFamilyMember(t=t, kappa=kappa, n=n, matrix=K_t, v1=v1, mu1=mu1)


def tnp_gp_pipeline(spec: KernelSpec, C: ContextSet, x_t, L: int,
                    spectrum: Optional[GramSpectrum] = None) -> dict:
    """Chebyshev-iteration solve of K z = y through attention layers, read
    out with kernel cross-weights, compared against the exact posterior.

    ``spectrum``, when given, must be ``gram_spectrum(spec, C.locations)``;
    the pipeline and the oracle both use it, so the Gram is factored once.
    """
    S = gram_spectrum(spec, C.locations) if spectrum is None else spectrum
    if S.lambda_min <= 1e-8:
        raise InputError("Gram matrix too ill-conditioned for the pipeline")
    schedule = chebyshev_schedule(S.lambda_min, S.lambda_max, L)
    y = C.values[:, 0]
    z = apply_schedule(S.matrix, schedule, y.reshape(-1, 1))[:, 0]
    k_t = cross_vector(spec, C.locations, x_t)
    prediction = float(k_t @ z)
    oracle = posterior_mean(spec, C.locations, y, x_t, spectrum=S)
    bound = (np.linalg.norm(k_t) * np.linalg.norm(y)
             * chebyshev_error_bound(S.lambda_min, S.lambda_max, L))
    return {
        "prediction": prediction,
        "oracle": oracle,
        "error_vs_oracle": abs(prediction - oracle),
        "bound": float(bound),
        "kappa": S.kappa,
    }


def gp_weight_row(spec: KernelSpec, X_C, x_t, L: int) -> np.ndarray:
    """Analytic Jacobian row of the pipeline at y = 0: k(x_t, X)^T q_L(K)."""
    S = gram_spectrum(spec, np.atleast_2d(np.asarray(X_C, dtype=float)))
    schedule = chebyshev_schedule(S.lambda_min, S.lambda_max, L)
    Q = apply_schedule(S.matrix, schedule, np.eye(S.n))
    return cross_vector(spec, X_C, x_t) @ Q


def pipeline_as_map(spec: KernelSpec, X_C, x_t, L: int) -> Callable:
    """The pipeline's prediction as a function of the observed values.

    A 1-d y of n values gives one float; an (n, k) block of columns gives
    the k predictions, one pipeline run per column.
    """
    Xa = np.atleast_2d(np.asarray(X_C, dtype=float))

    def predict(y: np.ndarray) -> float:
        C = ContextSet(Xa, y.reshape(-1, 1))
        return tnp_gp_pipeline(spec, C, x_t, L)["prediction"]

    def F(y: np.ndarray):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return predict(y)
        return np.array([predict(col) for col in y.T])

    return F


def fd_jacobian(F: Callable, y0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of F at the 1-d point y0.

    F maps an (n, k) array of input columns to an (m, k) array, or to a
    (k,) array when m = 1; F(y0) on the 1-d y0 itself sizes the output.
    Columns are perturbed FD_BLOCK at a time, and column j of the result
    is (F(y0 + step e_j) - F(y0 - step e_j)) / (2 step).

    The step 1e-5 * (1 + ||y0||_inf) balances truncation and rounding in
    double precision.  Exact up to rounding for linear maps.
    """
    y0 = np.asarray(y0, dtype=float)
    step = 1e-5 * (1.0 + float(np.max(np.abs(y0))) if y0.size else 1.0)
    m = np.atleast_1d(np.asarray(F(y0), dtype=float)).size
    n = y0.size
    J = np.empty((m, n))
    Y = y0[:, None]
    for lo in range(0, n, FD_BLOCK):
        k = min(FD_BLOCK, n - lo)
        E = np.zeros((n, k))
        E[lo + np.arange(k), np.arange(k)] = step
        fp = _block_values(F(Y + E), m, k)
        fm = _block_values(F(Y - E), m, k)
        J[:, lo:lo + k] = (fp - fm) / (2.0 * step)
    return J


def _block_values(out, m: int, k: int) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    if out.shape != (m, k) and not (m == 1 and out.shape == (k,)):
        raise InputError(f"F mapped {k} columns to shape {out.shape}, "
                         f"not ({m}, {k})")
    return out.reshape(m, k)


def quadratic_form_sweep(kappa: float, n: int, alphas, t_grid: int):
    """v1^T p(K_t) v1 over a uniform t grid for a fixed product-form layer
    stack; returns (mu1 values, quadratic-form values)."""
    ts = np.linspace(0.0, 1.0 - 1.0 / kappa, t_grid)
    mus = np.empty(t_grid)
    vals = np.empty(t_grid)
    schedule = product_schedule(alphas)
    for i, t in enumerate(ts):
        member = eig_family(kappa, n, t)
        H = apply_schedule(member.matrix, schedule, member.v1.reshape(-1, 1))
        mus[i] = member.mu1
        vals[i] = float(member.v1 @ H[:, 0])
    return mus, vals


def depth_barrier_experiment(kappa: float, n: int, L: int, t_grid: int,
                             seed: int = 0, eps: float = 1e-2) -> dict:
    """Three-part depth lower-bound check on the eigenvalue family.

    (i) the quadratic form of a random depth-L product stack is fit exactly
    by a univariate polynomial of degree <= L in mu1(t); (ii) the degree-2L
    discrete minimax oracle on [1/kappa, 1] bounds what any depth-L stack
    can achieve against 1/mu1; (iii) the classical barrier gives the implied
    minimum depth for accuracy eps, and the oracle's decay slope over
    degrees 6, 8, ..., 16 is fit for comparison against log rho.
    """
    if kappa <= 1 or L < 1:
        raise InputError("need kappa > 1 and L >= 1")
    if t_grid < 4 * L + 4:
        raise InputError("t_grid must be at least 4L + 4")
    rng = stream(seed, "tnp", "depth_barrier")
    alphas = rng.uniform(-2.0, 2.0, size=L)
    mus, vals = quadratic_form_sweep(kappa, n, alphas, t_grid)
    coeffs = np.polynomial.polynomial.polyfit(mus, vals, L)
    fit = np.polynomial.polynomial.polyval(mus, coeffs)
    residual = float(np.max(np.abs(fit - vals)))

    oracle = minimax_oracle(1.0 / kappa, 1.0, 2 * L)
    barrier = chebyshev_barrier(1.0 / kappa, 1.0, 2 * L)

    implied_min_depth = 1
    while chebyshev_barrier(1.0 / kappa, 1.0, 2 * implied_min_depth) > eps:
        implied_min_depth += 1

    degs = list(range(6, 17, 2))
    errs = [minimax_oracle(1.0 / kappa, 1.0, D).error for D in degs]
    slope = float(np.polyfit(degs, np.log(errs), 1)[0])

    return {
        "fit_residual": residual,
        "oracle_error": oracle.error,
        "barrier": barrier,
        "decay_slope": slope,
        "log_rho": float(np.log(chebyshev_rho(kappa))),
        "implied_min_depth": implied_min_depth,
    }
