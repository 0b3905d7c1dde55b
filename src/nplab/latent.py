"""Rank-k latent predictive distributions and their bottlenecks.

A finite-dimensional latent variable routed through a linear decoder can
only produce predictive covariances of rank k above the noise floor, and
its mean lives in a k-dimensional function space.  The checks here measure
both gaps against the exact GP posterior: covariance rank versus the full-
rank Schur complement, mean matching versus the rank of the posterior
weight matrix, and the Mercer spectral tail that governs how fast rank-k
truncations can improve.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Optional

import numpy as np

from .cnp import mean_encoding
from .errors import InputError, NumericError
from .gp_oracle import posterior_cov
from .kernels import (KernelSpec, cross_vector, gram_spectra, gram_spectrum,
                      kernel_matrix)
from .linalg import jacobi_eigh, jacobi_eigvalsh, jacobi_eigvalsh_many
from .rng import stream


@dataclass(frozen=True)
class RankKLatent:
    """Latent Gaussian with linear decoder: mean A m + b, cov A S A^T + s2 I."""

    k: int
    a: Callable      # x -> R^k feature map
    b: Callable      # x -> R mean offset
    m: np.ndarray    # latent mean, R^k
    S: np.ndarray    # latent covariance, k x k PSD
    sigma2: float = 0.0
    # the PSD check's eigenvalues of (S + S^T) / 2, for a caller that
    # factors many models' covariances in one call; None factors S here
    eigenvalues: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, eigenvalues):
        m = np.asarray(self.m, dtype=float).reshape(-1)
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        if self.k < 0:
            raise InputError("latent dimension must be nonnegative")
        if m.shape != (self.k,) or S.shape != (self.k, self.k):
            raise InputError("latent mean/covariance shape mismatch")
        if self.sigma2 < 0:
            raise InputError("observation noise must be nonnegative")
        if not (np.isfinite(m).all() and np.isfinite(S).all()):
            raise InputError(
                "latent mean or covariance has non-finite entries")
        if self.k > 0:
            # np.allclose(S, S.T, atol=1e-10) on a finite S, without its call
            if not (np.abs(S - S.T) <= 1e-10 + 1e-5 * np.abs(S.T)).all():
                raise InputError("latent covariance must be symmetric")
            vals = jacobi_eigvalsh(0.5 * (S + S.T)) if eigenvalues is None \
                else np.asarray(eigenvalues, dtype=float)
            if vals.shape != (self.k,):
                raise InputError(f"need the latent covariance's {self.k} "
                                 f"eigenvalues, got shape {vals.shape}")
            if np.min(vals) < -1e-10:
                raise InputError("latent covariance must be PSD")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "S", 0.5 * (S + S.T))

    def design(self, X_T) -> np.ndarray:
        Xt = np.atleast_2d(np.asarray(X_T, dtype=float))
        if self.k == 0:
            return np.zeros((Xt.shape[0], 0))
        return np.array([np.asarray(self.a(x), dtype=float).reshape(self.k)
                         for x in Xt])


def latent_predictive(model: RankKLatent, X_T) -> dict:
    """Predictive mean A m + b and covariance A S A^T + sigma2 I."""
    Xt = np.atleast_2d(np.asarray(X_T, dtype=float))
    A = model.design(Xt)
    offset = np.array([float(model.b(x)) for x in Xt])
    mean = (A @ model.m if model.k else np.zeros(len(Xt))) + offset
    cov = (A @ model.S @ A.T if model.k else np.zeros((len(Xt), len(Xt))))
    cov = cov + model.sigma2 * np.eye(len(Xt))
    return {"mean": mean, "cov": 0.5 * (cov + cov.T)}


def gp_cov_rank_check(entries) -> list:
    """Smallest eigenvalue of the exact posterior covariance, one per
    (spec, X_C, X_T) entry; it is positive (full rank) whenever all points
    are distinct.

    The context Grams are factored by one ``gram_spectra`` call and the
    covariances by one ``jacobi_eigvalsh_many`` call, with the bits of a
    call per entry.
    """
    entries = list(entries)
    # posterior_cov factors no Gram for an empty context or target set
    factored = [i for i, (_, X_C, X_T) in enumerate(entries)
                if np.size(X_C) and len(np.atleast_2d(X_T))]
    spectra = dict(zip(factored, gram_spectra(
        [entries[i][:2] for i in factored])))
    covs = [posterior_cov(spec, X_C, X_T, spectrum=spectra.get(i))
            for i, (spec, X_C, X_T) in enumerate(entries)]
    return [float(vals[0]) for vals in jacobi_eigvalsh_many(covs)]


def posterior_weight_matrix(spec: KernelSpec, X_C, X_T) -> np.ndarray:
    """Rows phi(x_t)^T = (K^{-1} k(X_C, x_t))^T over the targets."""
    Xc = np.atleast_2d(np.asarray(X_C, dtype=float))
    Xt = np.atleast_2d(np.asarray(X_T, dtype=float))
    S = gram_spectrum(spec, Xc)
    rows = np.array([S.solve(cross_vector(spec, Xc, x_t)) for x_t in Xt])
    return rows


def singular_values_sym(M: np.ndarray) -> np.ndarray:
    """Singular values of M via the eigenvalues of M^T M, descending."""
    vals = jacobi_eigvalsh(M.T @ M)
    return np.sqrt(np.clip(vals[::-1], 0.0, None))


def mean_matching_residual(spec: KernelSpec, X_C, X_T, k: int) -> float:
    """Frobenius residual of the best rank-k factorization of the posterior
    weight matrix; zero only when k reaches its full rank."""
    Phi = posterior_weight_matrix(spec, X_C, X_T)
    n = Phi.shape[0]
    if Phi.shape[0] != Phi.shape[1]:
        raise InputError("need as many targets as context points")
    if not (0 <= k):
        raise InputError("k must be nonnegative")
    svals = singular_values_sym(Phi)
    if svals[-1] <= 1e-12 * svals[0]:
        raise NumericError(
            "posterior weight matrix is singular; choose different targets",
            lambda_min=float(svals[-1]))
    tail = svals[min(k, n):]
    return float(np.sqrt(np.sum(tail ** 2)))


RANK_FLOOR = 1e-12  # eigenvalues below this (relative) are numerically zero


def mercer_tail(spec: KernelSpec, grid, k: int) -> dict:
    """Spectral tail of the quadrature-scaled grid Gram past rank k.

    The tail trace sum_{j>k} lam_j is also the trace-norm error of the
    best rank-k PSD approximation (eigenvalue truncation), which is
    returned alongside for the consistency check.  Eigenvalues below the
    solver's resolution (RANK_FLOOR relative to the largest) are treated
    as exact zeros.

    The error is the trace norm of G - G_k, by a second factorization.
    Where ||G - G_k||_F <= RANK_FLOOR max(lam_1, 1e-300) / 2 it is 0.0
    without one: every eigenvalue of G - G_k is at most its Frobenius
    norm, and Jacobi's computed ones are within rounding of that, so all
    of them lie under the floor that zeroes them, and the factorization
    would give 0.0 too.  This is the case whenever k reaches the rank of
    G, where G - G_k is rounding alone.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    m = pts.shape[0]
    if m < 8 * max(k, 1):
        raise InputError("grid must have at least 8k points")
    G = kernel_matrix(spec, pts) / m  # uniform quadrature weight
    vals, vecs = jacobi_eigh(G)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    vals[np.abs(vals) <= RANK_FLOOR * max(vals[0], 1e-300)] = 0.0
    vals = np.clip(vals, 0.0, None)
    tail = float(np.sum(vals[k:]))
    # independent trace-norm evaluation of the truncation error
    residual = G - (vecs[:, :k] * vals[:k]) @ vecs[:, :k].T
    floor = RANK_FLOOR * max(vals[0], 1e-300)
    best = 0.0
    if np.linalg.norm(residual) > floor / 2:
        dvals = jacobi_eigvalsh(residual)
        dvals[np.abs(dvals) <= floor] = 0.0
        best = float(np.sum(np.abs(dvals)))
    return {
        "tail_trace": tail,
        "best_rank_k_error": best,
    }


def default_latent_builder(k: int) -> Callable:
    """Deterministic map from a mean encoding to a RankKLatent with
    observation noise 0.01; used to show that equal encodings force equal
    predictives."""

    def build(encoding: np.ndarray) -> RankKLatent:
        enc = np.asarray(encoding, dtype=float).ravel()
        m = np.array([np.tanh(enc[i % len(enc)] + 0.3 * i) for i in range(k)])
        scale = 1.0 + 0.5 * np.tanh(float(np.sum(enc)))
        S = scale * np.eye(k)

        def a(x, _k=k):
            x0 = float(np.atleast_1d(x)[0])
            return np.array([np.sin((j + 1) * x0) for j in range(_k)])

        def b(x):
            return 0.1 * float(np.atleast_1d(x)[0])

        return RankKLatent(k=k, a=a, b=b, m=m, S=S, sigma2=0.01)

    return build


def encoder_bottleneck_lift(C, C2, builder: Callable,
                            n_target_sets: int = 20, seed: int = 0) -> dict:
    """Route two equal-mean-encoding contexts through the same
    encoding-to-latent map and compare the predictives on random sets of
    three targets."""
    enc1 = mean_encoding(C)
    enc2 = mean_encoding(C2)
    gap = float(np.linalg.norm(enc1 - enc2))
    if gap > 1e-8:
        raise InputError(f"contexts do not collide (encoding gap {gap:g})")
    rng = stream(seed, "latent", "bottleneck")
    model1 = builder(enc1)
    model2 = builder(enc2)
    max_mean_gap = 0.0
    max_cov_gap = 0.0
    for _ in range(n_target_sets):
        X_T = rng.uniform(-3.0, 3.0, size=(3, 1))
        p1 = latent_predictive(model1, X_T)
        p2 = latent_predictive(model2, X_T)
        max_mean_gap = max(max_mean_gap,
                           float(np.max(np.abs(p1["mean"] - p2["mean"]))))
        max_cov_gap = max(max_cov_gap,
                          float(np.max(np.abs(p1["cov"] - p2["cov"]))))
    return {
        "max_mean_gap": max_mean_gap,
        "max_cov_gap": max_cov_gap,
    }
