"""Kernel evaluation, Gram assembly and spectral decomposition.

Every experiment in the lab starts from a positive definite kernel.  The
supported families are RBF, Matern of smoothness 1/2 (exp(-r)),
polynomial, and a non-stationary amplitude-scaled wrapper
``sigma(x) sigma(x') k_base(x, x')`` used by the equivariance-violation
experiments.

`kernel_matrix` is the one path to kernel values: every other module takes
them from it or from `cross_vector`, which calls it, and only
`kernel_matrix` calls the scalar `eval_kernel`, once per pair.  Its cost is
per-call overhead, so `eval_kernel` takes the distance as sqrt(d . d),
which is np.linalg.norm's own expression for a 1-d vector, without the
call, and `kernel_matrix` walks a list of Y's rows built once.  The
exponentials stay np.exp: math.exp may round differently.

Gram matrices carry their full symmetric eigendecomposition (`GramSpectrum`)
so that downstream solves, condition numbers and polynomial-in-K evaluations
all share one factorization; `gram_spectra` factors many Grams by one
stacked Jacobi call, with the bits of a `gram_spectrum` call each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError
from .linalg import jacobi_eigh, jacobi_eigh_many

# default diagonal jitter (every kernel has unit variance); experiments
# that study condition numbers directly pin jitter to 0 instead
DEFAULT_JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """A unit-variance kernel family with its hyperparameters.

    family is one of ``"rbf"``, ``"matern"``, ``"polynomial"``,
    ``"scaled"``.  Matern is the smoothness-1/2 kernel exp(-r), with
    r = |x - x'| / lengthscale; polynomial requires ``degree``; scaled
    requires ``base`` and ``amplitude`` (a map from a point to a positive
    real).
    """

    family: str = "rbf"
    lengthscale: float = 1.0
    jitter: float = DEFAULT_JITTER_SCALE
    degree: int = 2
    base: Optional["KernelSpec"] = None
    amplitude: Optional[Callable[[np.ndarray], float]] = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise InputError("lengthscale must be positive")
        if self.jitter < 0:
            raise InputError("jitter must be nonnegative")
        if self.family == "polynomial" and self.degree < 0:
            raise InputError("polynomial degree must be nonnegative")
        if self.family == "scaled" and (self.base is None or self.amplitude is None):
            raise InputError("scaled kernel needs base spec and amplitude map")
        if self.family not in ("rbf", "matern", "polynomial", "scaled"):
            raise InputError(f"unknown kernel family {self.family!r}")

    @property
    def stationary(self) -> bool:
        return self.family in ("rbf", "matern")


@dataclass(frozen=True)
class GramSpectrum:
    """Gram matrix together with its full symmetric eigendecomposition."""

    matrix: np.ndarray
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def kappa(self) -> float:
        return self.lambda_max / self.lambda_min

    def apply_function(self, f) -> np.ndarray:
        """Evaluate a scalar function of the matrix through the spectrum."""
        vals = f(self.eigenvalues)
        return (self.eigenvectors * vals) @ self.eigenvectors.T

    def inverse(self) -> np.ndarray:
        return self.apply_function(lambda lam: 1.0 / lam)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        V = self.eigenvectors
        return V @ ((V.T @ rhs).T / self.eigenvalues).T


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:  # what np.atleast_1d does, without its call
        p = p.reshape(1)
    if p.ndim != 1:
        raise InputError(f"a point must be a 1-d coordinate vector, got shape {p.shape}")
    return p


def _as_rows(X) -> np.ndarray:
    """``np.atleast_2d(np.asarray(X, dtype=float))``, without its call."""
    a = np.asarray(X, dtype=float)
    return a if a.ndim >= 2 else a.reshape(1, -1)


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """Evaluate k(x, x') for a single pair of points.

    The scalar form `kernel_matrix` loops over; other modules take kernel
    values from `kernel_matrix` or `cross_vector` instead of calling it.
    Symmetric bit for bit: |p - q| and |q - p| are the same norm, and the
    amplitude and dot products commute.
    """
    p, q = _as_point(x), _as_point(x2)
    if p.shape != q.shape:
        raise InputError(f"dimension mismatch: {p.shape} vs {q.shape}")
    if spec.family == "scaled":
        return (spec.amplitude(p) * spec.amplitude(q)
                * eval_kernel(spec.base, p, q))
    if spec.family == "polynomial":
        return (1.0 + float(p @ q) / spec.lengthscale**2) ** spec.degree
    d = p - q
    # np.linalg.norm's own expression for a 1-d vector, without its call
    r = sqrt(d.dot(d)) / spec.lengthscale
    if spec.family == "rbf":
        return np.exp(-0.5 * r * r)
    return np.exp(-r)  # Matern of smoothness 1/2


def kernel_matrix(spec: KernelSpec, X, Y=None) -> np.ndarray:
    """Cross-kernel matrix k(X, Y); no jitter is applied here."""
    Xa = _as_rows(X)
    Ya = Xa if Y is None else _as_rows(Y)
    if Xa.shape[1] != Ya.shape[1]:
        raise InputError("dimension mismatch between point sets")
    out = np.empty((Xa.shape[0], Ya.shape[0]))
    rows = list(Ya)
    for i, xi in enumerate(Xa):
        for j, yj in enumerate(rows):
            out[i, j] = eval_kernel(spec, xi, yj)
    return out


def cross_vector(spec: KernelSpec, X, x_t) -> np.ndarray:
    """Vector of k(x_i, x_t) over rows of X."""
    return kernel_matrix(spec, X, _as_point(x_t)[None, :])[:, 0]


def _gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix of X with jitter on the diagonal, unfactored.

    Private so that ``gram_spectrum`` spans keep their public children
    (``kernel_matrix`` and ``jacobi_eigh``) under a tracer.
    """
    Xa = np.atleast_2d(np.asarray(X, dtype=float))
    if Xa.shape[0] < 1:
        raise InputError("need at least one location")
    if not np.all(np.isfinite(Xa)):
        raise InputError("locations must be finite")
    K = kernel_matrix(spec, Xa)
    return K + spec.jitter * np.eye(Xa.shape[0])


def gram_spectrum(spec: KernelSpec, X) -> GramSpectrum:
    """Gram matrix of X (jitter on the diagonal) with its spectrum."""
    K = _gram_matrix(spec, X)
    try:
        vals, vecs = jacobi_eigh(K)
    except NumericError as err:
        raise NumericError(
            "eigensolver failed on Gram matrix",
            residual=getattr(err, "residual", None)) from err
    return GramSpectrum(matrix=K, eigenvalues=vals, eigenvectors=vecs)


def gram_spectra(entries) -> list:
    """``[gram_spectrum(spec, X) for spec, X in entries]``, bit for bit,
    with every Gram factored by one ``jacobi_eigh_many`` call."""
    Ks = [_gram_matrix(spec, X) for spec, X in entries]
    try:
        pairs = jacobi_eigh_many(Ks)
    except NumericError as err:
        raise NumericError(
            "eigensolver failed on Gram matrix",
            residual=getattr(err, "residual", None)) from err
    return [GramSpectrum(matrix=K, eigenvalues=vals, eigenvectors=vecs)
            for K, (vals, vecs) in zip(Ks, pairs)]


def spectrum_of(matrix: np.ndarray) -> GramSpectrum:
    """Wrap an externally assembled symmetric matrix as a GramSpectrum."""
    vals, vecs = jacobi_eigh(np.asarray(matrix, dtype=float))
    return GramSpectrum(matrix=np.asarray(matrix, dtype=float),
                        eigenvalues=vals, eigenvectors=vecs)
