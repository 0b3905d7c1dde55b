"""Exact Gaussian process posterior quantities.

These are the ground-truth targets every architecture in the lab is measured
against.  Solves go through the shared GramSpectrum eigendecomposition so the
condition number used in bounds is always the one actually factored.
`posterior_weights` returns the weight vector w itself; the posterior mean
for observed values y is w @ y, which `posterior_mean` takes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DegenerateConfigurationError, InputError, NumericError
from .kernels import (GramSpectrum, KernelSpec, cross_vector, gram_spectrum,
                      kernel_matrix)

MIN_LAMBDA = 1e-8


def posterior_weights(spec: KernelSpec, X_C, x_t,
                      spectrum: Optional[GramSpectrum] = None) -> np.ndarray:
    """Posterior-mean weights k(x_t, X_C) K^{-1} at a single target.

    ``spectrum``, when given, must be ``gram_spectrum(spec, X_C)``; a caller
    that has already factored the Gram passes it instead of having the same
    matrix factored again.
    """
    Xa = np.atleast_2d(np.asarray(X_C, dtype=float))
    S = gram_spectrum(spec, Xa) if spectrum is None else spectrum
    if S.n != Xa.shape[0]:
        raise InputError(f"spectrum of a {S.n}-point Gram given for "
                         f"{Xa.shape[0]} context points")
    if S.lambda_min <= MIN_LAMBDA:
        raise NumericError(
            "Gram matrix is numerically singular", lambda_min=S.lambda_min)
    k = cross_vector(spec, Xa, x_t)
    w = S.solve(k)
    resid = np.linalg.norm(S.matrix @ w - k)
    if resid > 1e-8 * max(np.linalg.norm(k), 1e-300):
        raise NumericError("posterior solve residual too large",
                           residual=float(resid))
    return w


def posterior_mean(spec: KernelSpec, X_C, y_C, x_t,
                   spectrum: Optional[GramSpectrum] = None) -> float:
    return float(posterior_weights(spec, X_C, x_t, spectrum)
                 @ np.asarray(y_C, dtype=float))


def _check_distinct(points: np.ndarray, what: str):
    """Raise on a non-finite point, then on the first pair i < j, in row
    order, whose points are ``np.allclose(points[i], points[j],
    atol=1e-12)``."""
    if not np.isfinite(points).all():
        raise InputError("locations must be finite")
    x, y = points[:, None, :], points[None, :, :]
    # np.isclose's own expression on finite points, without its call
    close = (np.abs(x - y) <= 1e-12 + 1e-5 * np.abs(y)).all(axis=2)
    rows, cols = np.nonzero(np.triu(close, k=1))
    if rows.size:
        raise DegenerateConfigurationError(
            f"duplicated {what} at indices {rows[0]}, {cols[0]}")


def posterior_cov(spec: KernelSpec, X_C, X_T,
                  spectrum: Optional[GramSpectrum] = None) -> np.ndarray:
    """Posterior covariance K_TT - K_TC K^{-1} K_CT, noise-free.

    ``spectrum``, when given, must be ``gram_spectrum(spec, X_C)``, as in
    ``posterior_weights``.
    """
    Xt = np.atleast_2d(np.asarray(X_T, dtype=float))
    m = Xt.shape[0]
    if m == 0:
        return np.zeros((0, 0))
    Xc = np.atleast_2d(np.asarray(X_C, dtype=float))
    if Xc.size == 0:
        return kernel_matrix(spec, Xt)
    allpts = np.vstack([Xc, Xt])
    _check_distinct(allpts, "point")
    K_TT = kernel_matrix(spec, Xt)
    K_TC = kernel_matrix(spec, Xt, Xc)
    S = gram_spectrum(spec, Xc) if spectrum is None else spectrum
    if S.n != Xc.shape[0]:
        raise InputError(f"spectrum of a {S.n}-point Gram given for "
                         f"{Xc.shape[0]} context points")
    cov = K_TT - K_TC @ S.solve(K_TC.T)
    return 0.5 * (cov + cov.T)


def two_point_weight(spec: KernelSpec, x1, x2, x_t):
    """Closed-form posterior weights for a two-point context.

    With a = k(x_t,x1), b = k(x_t,x2), c = k(x1,x2) and unit-variance
    diagonal v = k(x,x):

        w1 = (a v - b c) / (v^2 - c^2),  w2 = (b v - a c) / (v^2 - c^2)
    """
    p1 = np.atleast_1d(np.asarray(x1, dtype=float))
    p2 = np.atleast_1d(np.asarray(x2, dtype=float))
    t = np.atleast_1d(np.asarray(x_t, dtype=float))
    if not p1.shape == p2.shape == t.shape:
        raise InputError(f"dimension mismatch: x1 {p1.shape}, x2 {p2.shape}, "
                         f"x_t {t.shape}")
    if np.allclose(p1, p2, atol=1e-12):
        raise DegenerateConfigurationError("two-point context must be distinct")
    (a, b), (v, c) = kernel_matrix(spec, np.vstack([t, p1]),
                                   np.vstack([p1, p2]))
    det = v * v - c * c
    if abs(det) < 1e-300:
        raise NumericError("two-point Gram is singular", lambda_min=det)
    return (a * v - b * c) / det, (b * v - a * c) / det
