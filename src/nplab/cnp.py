"""Mean-aggregation conditional predictor, encoding collisions, and the
optimal-linear-encoder lower bound.

The predictor here is the idealized mean-pooling architecture: encode each
(location, value) pair as itself, average (`mean_encoding`), decode at the
query.  Because the context enters only through the average encoding, any
two context sets with equal mean encodings are indistinguishable to every
decoder; `example_collision_pair` stores such a pair and
`collision_separation` measures how far apart the exact GP posterior means
are on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError
from .gp_oracle import posterior_mean
from .kernels import KernelSpec, cross_vector, gram_spectrum
from .rng import stream


def _rows(a) -> np.ndarray:
    """One row per point: a 1-d array is one scalar coordinate or value per
    point, so it becomes a column."""
    a = np.asarray(a, dtype=float)
    return np.atleast_2d(a.reshape(-1, 1) if a.ndim == 1 else a)


@dataclass(frozen=True)
class ContextSet:
    """Multiset of (location, value) pairs."""

    locations: np.ndarray  # n x d_x
    values: np.ndarray     # n x d_y

    def __post_init__(self):
        loc, val = _rows(self.locations), _rows(self.values)
        if loc.shape[0] < 1:
            raise InputError("context set must be nonempty")
        if val.shape[0] != loc.shape[0]:
            raise InputError(f"{loc.shape[0]} locations but {val.shape[0]} "
                             f"values")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "values", val)

    @property
    def n(self) -> int:
        return self.locations.shape[0]


def context_from_pairs(pairs) -> ContextSet:
    """Build a context set from [(x, y), ...] with scalar or vector entries."""
    pairs = list(pairs)
    if not pairs:
        raise InputError("context set must be nonempty")
    locs = [np.atleast_1d(np.asarray(x, dtype=float)) for x, _ in pairs]
    vals = [np.atleast_1d(np.asarray(y, dtype=float)) for _, y in pairs]
    return ContextSet(np.vstack(locs), np.vstack(vals))


# ---------------------------------------------------------------------------
# encoder and predictor

def mean_encoding(C: ContextSet) -> np.ndarray:
    """Mean over the context of the identity pair encoding h(x, y) =
    (x, y)."""
    return np.mean(np.hstack([C.locations, C.values]), axis=0)


def cnp_predict(decoder: Callable, C: ContextSet, x_t) -> float:
    """decoder(mean encoding, query).  Permutation invariant by construction
    since the context enters only through the mean."""
    if C.n < 1:
        raise InputError("context set must be nonempty")
    r = mean_encoding(C)
    return float(decoder(r, np.atleast_1d(np.asarray(x_t, dtype=float))))


# ---------------------------------------------------------------------------
# collisions

@dataclass(frozen=True)
class CollisionResult:
    C: ContextSet
    C2: ContextSet
    encoding_gap: float


def example_collision_pair() -> CollisionResult:
    """The stored two-point identity-encoder collision: both contexts
    mean-encode to (1, 1) while being far apart as multisets."""
    C = context_from_pairs([(0.0, 1.0), (2.0, 1.0)])
    C2 = context_from_pairs([(0.5, 0.5), (1.5, 1.5)])
    gap = float(np.linalg.norm(mean_encoding(C) - mean_encoding(C2)))
    return CollisionResult(C=C, C2=C2, encoding_gap=gap)


def collision_separation(spec: KernelSpec, C: ContextSet, C2: ContextSet,
                         x_t) -> float:
    """Gap between the exact GP posterior means of the two contexts."""
    mu1 = posterior_mean(spec, C.locations, C.values[:, 0], x_t)
    mu2 = posterior_mean(spec, C2.locations, C2.values[:, 0], x_t)
    return abs(mu1 - mu2)


# ---------------------------------------------------------------------------
# optimal linear encoder bound

SYNTHETIC_ISOTROPIC = "SyntheticIsotropic"
MONTE_CARLO_STATIONARY = "MonteCarloStationary"


def _relative_mse_for_projection(W_tilde: np.ndarray, A: np.ndarray) -> float:
    """Best relative MSE of reconstructing W z from the encoding A z with
    isotropic z: project the rows of W onto the row space of A."""
    # row-space projector via economical orthonormal basis of A^T
    Q, _ = np.linalg.qr(A.T)
    resid = W_tilde - (W_tilde @ Q) @ Q.T
    return float(np.sum(resid ** 2) / np.sum(W_tilde ** 2))


def pca_encoder_ratio(W_tilde: np.ndarray, d: int):
    """Optimal d-dimensional linear encoder (top right-singular subspace)
    and its relative MSE, the trailing singular-value mass."""
    _, svals, Vt = np.linalg.svd(W_tilde, full_matrices=False)
    ratio = float(np.sum(svals[d:] ** 2) / np.sum(svals ** 2))
    return ratio, Vt[:d]


def pca_bound_experiment(n: int, d: int, mode: str = SYNTHETIC_ISOTROPIC,
                         spec: Optional[KernelSpec] = None,
                         n_targets: int = 2000, seed: int = 0) -> dict:
    """Relative MSE of the best d-dimensional linear encoder against the
    1 - d/n floor.

    SyntheticIsotropic builds a whitened weight matrix with exactly equal
    singular values (scaled orthogonal), so the optimal ratio is 1 - d/n
    to rounding.  MonteCarloStationary samples i.i.d. locations, builds the
    whitened GP weight rows K^{1/2} w(x_t), and reports the measured ratio
    next to the same floor, and the best ratio of 30 random encoders.
    """
    if not (1 <= d <= n):
        raise InputError("need 1 <= d <= n")
    if mode == SYNTHETIC_ISOTROPIC:
        rng = stream(seed, "cnp", "pca_bound", "synthetic")
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        W_tilde = 1.7 * Q  # any uniform scale keeps the spectrum flat
    elif mode == MONTE_CARLO_STATIONARY:
        if spec is None:
            raise InputError("MonteCarloStationary needs a kernel spec")
        rng = stream(seed, "cnp", "pca_bound", "montecarlo")
        X_C = rng.uniform(-2.0, 2.0, size=(n, 1))
        S = gram_spectrum(spec, X_C)
        sqrtK = S.apply_function(np.sqrt)
        targets = rng.uniform(-2.0, 2.0, size=(n_targets, 1))
        rows = np.empty((n_targets, n))
        for j, x_t in enumerate(targets):
            rows[j] = sqrtK @ S.solve(cross_vector(spec, X_C, x_t))
        W_tilde = rows
    else:
        raise InputError(f"unknown mode {mode!r}")

    ratio, _ = pca_encoder_ratio(W_tilde, d)
    bound = 1.0 - d / n

    rng_enc = stream(seed, "cnp", "pca_bound", "random_encoders")
    best_random = min(
        _relative_mse_for_projection(W_tilde, rng_enc.normal(size=(d, n)))
        for _ in range(30))

    return {
        "measured_ratio": ratio,
        "bound": bound,
        "deviation_from_bound": ratio - bound,
        "best_random_encoder_ratio": best_random,
    }


# ---------------------------------------------------------------------------
# moment encoding for ordinary least squares

def moment_encoding(features, C: ContextSet) -> np.ndarray:
    """Sum-pooled encoding (vech of feature outer products, feature-value
    moments); dimension k(k+3)/2 for k features."""
    k = len(features)
    phi = np.array([[float(f(x)) for f in features] for x in C.locations])
    y = C.values[:, 0]
    M = phi.T @ phi
    v = phi.T @ y
    iu = np.triu_indices(k)
    return np.concatenate([M[iu], v])


def ols_from_encoding(features, encoding: np.ndarray, x_t) -> float:
    """Reconstruct the least-squares prediction at x_t from the moment
    encoding alone."""
    k = len(features)
    iu = np.triu_indices(k)
    M = np.zeros((k, k))
    M[iu] = encoding[:len(iu[0])]
    M = M + M.T - np.diag(np.diag(M))
    v = encoding[len(iu[0]):]
    try:
        beta = np.linalg.solve(M, v)
    except np.linalg.LinAlgError as err:
        raise NumericError("feature Gram is singular") from err
    if np.linalg.cond(M) > 1e12:
        raise NumericError("feature Gram is numerically singular",
                           lambda_min=float(np.linalg.eigvalsh(M)[0]))
    phi_t = np.array([float(f(np.atleast_1d(np.asarray(x_t, dtype=float))))
                      for f in features])
    return float(phi_t @ beta)


def ols_moment_encoder(features, C: ContextSet, x_t) -> float:
    """OLS prediction computed through the k(k+3)/2 moment encoding."""
    return ols_from_encoding(features, moment_encoding(features, C), x_t)
