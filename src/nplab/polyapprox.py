"""Polynomial approximation of matrix inverses.

Two schedule forms are applied to a square matrix by `apply_schedule`, the
one float64 applier of a schedule:

* Chebyshev iteration with nodes at shifted Chebyshev points, factor
  (sqrt(kappa) - 1)/(sqrt(kappa) + 1).
* Literal product form prod(I + alpha_l K) with free real coefficients.

The Neumann truncation (1/lam_max) sum_m (I - K/lam_max)^m, factor
1 - 1/kappa, enters only through `depth_to_target`, as the baseline of the
Chebyshev depth advantage.

A discrete Remez exchange provides the brute-force minimax oracle that all
depth lower-bound experiments compare against, and `chebyshev_barrier` is the
classical lower bound (2/(a+b)) rho^L it is checked against.

Numerical notes.  The Chebyshev affine recurrence is applied with the node
sequence interleaved (first, last, second, second-to-last, ...); the natural
ascending order is catastrophically unstable in double precision once L is
a few dozen.  The interleaving changes nothing in exact arithmetic.  The true
iteration error sits within a factor 1 + rho^(2L) of the (2/lam_min) rho^L
bound, which is far below double-precision resolution at large L, so the
exact verification of the bound at depth 40 (`polyapprox.inverse_bounds`)
uses `chebyshev_exact_check`, the closed form T_L(u)/T_L(u0) in mpmath,
rather than the float64 matrix recurrence.  It takes a sequence of depths
and computes what does not depend on the depth (each eigenvalue's acos(u),
acosh(u0), rho) once per spectrum; at the four depths of
`polyapprox.inverse_bounds` that halves its time.
`schedule_spectral_error_exact` evaluates any schedule's node product in
mpmath; it is the oracle that closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InputError, NumericError
from .kernels import GramSpectrum
from .linalg import spectral_norm_sym

NEUMANN = "neumann"
CHEBYSHEV = "chebyshev"
PRODUCT = "product"

DEFAULT_GRID = 2000
REMEZ_MAX_ITER = 100
DEPTH_SEARCH_MAX = 5000  # deepest schedule depth_to_target tries


@dataclass(frozen=True)
class PolySchedule:
    """Coefficient schedule for a depth-L inverse approximation.

    For CHEBYSHEV the coefficients are the node reciprocals 1/x_l in
    application order (interleaved for roundoff stability), placed on the
    [lambda_min, lambda_max] of the spectrum the schedule is built for.
    For PRODUCT they are the alpha_l of prod(I + alpha_l K).  The depth L
    is len(coefficients).  Only `apply_schedule`, `depth_to_target` and
    the mpmath oracle `schedule_spectral_error_exact` read them.
    """

    form: str
    coefficients: Tuple[float, ...]


def _interleave(values: np.ndarray) -> np.ndarray:
    """Reorder as first, last, second, second-to-last, ..."""
    out = np.empty_like(values)
    half = (len(values) + 1) // 2
    out[0::2] = values[:half]
    out[1::2] = values[len(values) - 1:half - 1:-1]
    return out


def chebyshev_rho(kappa: float) -> float:
    s = np.sqrt(kappa)
    return (s - 1.0) / (s + 1.0)


def chebyshev_schedule(lambda_min: float, lambda_max: float, L: int) -> PolySchedule:
    """Depth-L Chebyshev iteration schedule on [lambda_min, lambda_max].

    Nodes are x_l = mid + rad * cos((2l-1)pi/(2L)), returned as reciprocals
    in interleaved application order.
    """
    if not (0 < lambda_min <= lambda_max):
        raise InputError("need 0 < lambda_min <= lambda_max")
    if L < 1:
        raise InputError("schedule depth must be at least 1")
    mid = 0.5 * (lambda_max + lambda_min)
    rad = 0.5 * (lambda_max - lambda_min)
    ell = np.arange(1, L + 1)
    theta = (2 * ell - 1) * np.pi / (2 * L)
    nodes = _interleave(mid + rad * np.cos(theta))
    return PolySchedule(form=CHEBYSHEV, coefficients=tuple(1.0 / nodes))


def product_schedule(alphas) -> PolySchedule:
    """Literal product-form schedule prod(I + alpha_l K); p(0) = 1 always."""
    return PolySchedule(form=PRODUCT,
                        coefficients=tuple(float(a) for a in alphas))


def apply_schedule(M: np.ndarray, schedule: PolySchedule,
                   rhs: np.ndarray) -> np.ndarray:
    """Apply the schedule's polynomial in the square matrix M to rhs, layer
    by layer.

    PRODUCT runs X <- X + alpha_l M X from X = rhs, producing p(M) rhs;
    CHEBYSHEV runs the affine inverse iteration X <- X + c_l (rhs - M X)
    from X = 0, producing q_L(M) rhs.  rhs is a vector or a block of
    columns; np.eye(n) gives the polynomial in M itself.
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or \
            rhs.shape[:1] != M.shape[:1]:
        raise InputError("operator/input dimension mismatch")
    if schedule.form == PRODUCT:
        X = rhs
        for alpha in schedule.coefficients:
            X = X + alpha * (M @ X)
        return X
    if schedule.form == CHEBYSHEV:
        X = np.zeros_like(rhs)
        for c in schedule.coefficients:
            X = X + c * (rhs - M @ X)
        return X
    raise InputError(f"unsupported schedule form {schedule.form!r}")


def inverse_error(K: GramSpectrum, approx: np.ndarray) -> float:
    """Spectral-norm error of an inverse approximation, ||approx - K^{-1}||."""
    approx = np.asarray(approx, dtype=float)
    if approx.shape != K.matrix.shape:
        raise InputError("shape mismatch between approximation and matrix")
    return spectral_norm_sym(approx - K.inverse())


def chebyshev_error_bound(lambda_min: float, lambda_max: float, L: int) -> float:
    return (2.0 / lambda_min) * chebyshev_rho(lambda_max / lambda_min) ** L


def schedule_spectral_error_exact(eigenvalues, schedule: PolySchedule) -> float:
    """max_i |q(lambda_i) - 1/lambda_i| evaluated in 60 significant digits.

    Order-independent, so it certifies the bound the affine recurrence
    satisfies in exact arithmetic even when the float64 error is within
    rounding distance of the bound itself.
    """
    # imported here, not at module level, so that loading nplab loads no
    # mpmath
    import mpmath as mp
    with mp.workdps(60):
        worst = mp.mpf(0)
        if schedule.form == CHEBYSHEV:
            nodes = [mp.mpf(1) / mp.mpf(c) for c in schedule.coefficients]
        for lam_f in np.asarray(eigenvalues, dtype=float):
            lam = mp.mpf(lam_f)
            if schedule.form == CHEBYSHEV:
                r = mp.mpf(1)
                for x in nodes:
                    r *= 1 - lam / x
            elif schedule.form == PRODUCT:
                p = mp.mpf(1)
                for a in schedule.coefficients:
                    p *= 1 + mp.mpf(a) * lam
                r = 1 - lam * p
            else:
                raise InputError(f"unknown schedule form {schedule.form!r}")
            worst = max(worst, abs(r) / lam)
        return float(worst)


def chebyshev_exact_check(eigenvalues, depths):
    """Exact-arithmetic check of the depth-L iteration bound on a spectrum,
    for each L in ``depths``.

    Builds the interval, nodes and bound in 80 significant digits from the
    given eigenvalues and evaluates the residual through the closed form
    r(lambda) = T_L(u(lambda)) / T_L(u0), which equals the node product
    identically.  Returns one (error, bound, margin) per depth; margin is
    positive in exact arithmetic for every spectrum, but only by a factor
    rho^(2L), far below float64 resolution at large depth.  What does not
    depend on L (each acos(u), acosh(u0) and rho) is computed once; every
    mpmath operation is the one a single-depth evaluation makes, so each
    float returned is too.
    """
    import mpmath as mp
    depths = list(depths)
    if any(L < 1 for L in depths):
        raise InputError("depth must be at least 1")
    with mp.workdps(80):
        lams = [mp.mpf(float(v)) for v in np.asarray(eigenvalues, dtype=float)]
        a, b = min(lams), max(lams)
        if a <= 0:
            raise InputError("spectrum must be positive")
        if a == b:
            return [(0.0, float(2 / a), float(2 / a)) for _ in depths]
        acosh_u0 = mp.acosh((b + a) / (b - a))
        acos_u = [mp.acos(max(mp.mpf(-1), min(mp.mpf(1),
                                              (b + a - 2 * lam) / (b - a))))
                  for lam in lams]
        rho = (mp.sqrt(b / a) - 1) / (mp.sqrt(b / a) + 1)
        out = []
        for L in depths:
            TL0 = mp.cosh(L * acosh_u0)
            err = mp.mpf(0)
            for lam, angle in zip(lams, acos_u):
                err = max(err, abs(mp.cos(L * angle)) / (lam * TL0))
            bound = 2 / a * rho ** L
            out.append((float(err), float(bound), float(bound - err)))
        return out


def depth_to_target(form: str, lambda_min: float, lambda_max: float,
                    eps: float) -> int:
    """Smallest depth up to DEPTH_SEARCH_MAX whose measured sup inverse
    error on the interval is at most eps; scalar evaluation on 1024
    evenly spaced points of the interval."""
    if eps <= 0:
        raise InputError("eps must be positive")
    lam = np.linspace(lambda_min, lambda_max, 1024)
    if form == NEUMANN:
        r = np.ones_like(lam)
        step = 1.0 - lam / lambda_max
        for L in range(1, DEPTH_SEARCH_MAX + 1):
            r *= step
            if np.max(np.abs(r) / lam) <= eps:
                return L
    elif form == CHEBYSHEV:
        for L in range(1, DEPTH_SEARCH_MAX + 1):
            sched = chebyshev_schedule(lambda_min, lambda_max, L)
            # the residual prod(1 - c_l lambda) of the depth-L iteration,
            # and its inverse approximation q = (1 - r) / lambda
            r = np.ones_like(lam)
            for c in sched.coefficients:
                r *= 1.0 - c * lam
            q = (1.0 - r) / lam
            if np.max(np.abs(q - 1.0 / lam)) <= eps:
                return L
    else:
        raise InputError("depth search supports neumann and chebyshev forms")
    raise NumericError(f"no depth up to {DEPTH_SEARCH_MAX} reaches eps={eps}",
                       bracket=(DEPTH_SEARCH_MAX, eps))


# ---------------------------------------------------------------------------
# minimax oracle (discrete Remez exchange)

@dataclass(frozen=True)
class MinimaxResult:
    """Best sup-norm polynomial approximation on a discrete grid."""

    degree: int
    interval: Tuple[float, float]
    error: float
    witness_coefficients: Tuple[float, ...]  # Chebyshev basis on the interval

    def evaluate(self, x) -> np.ndarray:
        a, b = self.interval
        t = (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)
        return np.polynomial.chebyshev.chebval(t, self.witness_coefficients)


def _cheb_design(t: np.ndarray, degree: int) -> np.ndarray:
    cols = [np.ones_like(t), t]
    for _ in range(2, degree + 1):
        cols.append(2.0 * t * cols[-1] - cols[-2])
    return np.column_stack(cols[:degree + 1])


def _sign_run_peaks(resid: np.ndarray) -> np.ndarray:
    """Index of the largest |resid| in each maximal run of same-signed
    residuals (zeros count as +), the leftmost one on a tie.

    resid must be finite: a nan peak matches no point of its run.
    """
    positive = resid >= 0
    change = positive[1:] != positive[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change)))
    mags = np.abs(resid)
    peaks = np.maximum.reduceat(mags, starts)
    run = np.cumsum(np.concatenate(([0], change)))
    at_peak = np.flatnonzero(mags == peaks[run])
    # runs are contiguous and every run holds its peak, so the first
    # peak at or after a run's start is that run's leftmost peak
    return at_peak[np.searchsorted(at_peak, starts)]


def _distinct_sorted(a: np.ndarray):
    """``np.unique(a, return_index=True)`` for a sorted 1-d array without
    NaNs: the distinct values and the index of each one's first
    occurrence.  np.unique imports numpy.ma on its first call, an import
    no run needs."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    index = np.flatnonzero(first)
    return a[index], index


def remez_discrete(xs: np.ndarray, fs: np.ndarray, degree: int):
    """Best degree-`degree` polynomial fit to fs over the discrete set xs
    in the sup norm, by multi-point exchange.

    Returns (chebyshev coefficients on [xs.min(), xs.max()], error).
    Ties in extremum selection resolve to the leftmost grid point.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    m = degree + 2
    if len(xs) < m:
        raise InputError("grid too small for the requested degree")
    a, b = float(xs[0]), float(xs[-1])
    t = (2.0 * xs - (a + b)) / (b - a) if b > a else np.zeros_like(xs)
    design = _cheb_design(t, degree)

    # initial reference: Chebyshev points snapped to the grid
    init = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(m) / (m - 1))
    ref, _ = _distinct_sorted(np.searchsorted(xs, init).clip(0, len(xs) - 1))
    if len(ref) < m:  # fill up with the lowest grid indices left out
        free = np.ones(len(xs), dtype=bool)
        free[ref] = False
        ref = np.sort(np.append(ref, np.flatnonzero(free)[:m - len(ref)]))

    coeffs = np.zeros(degree + 1)
    level = 0.0
    scale = max(1.0, float(np.max(np.abs(fs))))
    signs = (-1.0) ** np.arange(m)
    for _ in range(REMEZ_MAX_ITER):
        A = np.column_stack([design[ref], signs])
        try:
            sol = np.linalg.solve(A, fs[ref])
        except np.linalg.LinAlgError as err:
            raise NumericError("exchange system singular",
                               bracket=(level, None)) from err
        coeffs, level = sol[:-1], abs(sol[-1])
        resid = fs - design @ coeffs
        worst = float(np.max(np.abs(resid)))
        # the absolute floor absorbs roundoff when fs is (nearly) exactly
        # representable at this degree and the true level is zero
        if worst <= abs(level) * (1.0 + 1e-12) + 1e-13 * scale:
            return tuple(coeffs), worst

        if not np.isfinite(worst):
            raise NumericError("exchange residual not finite",
                               bracket=(level, None))
        cands = _sign_run_peaks(resid)
        if len(cands) < m:
            # too few sign runs; merge with the previous reference, which
            # alternates at the solved level, then re-collapse same-sign runs
            union, _ = _distinct_sorted(np.sort(np.concatenate([ref, cands])))
            merged = []
            for idx in union:
                s = 1 if resid[idx] >= 0 else -1
                if merged and merged[-1][1] == s:
                    if abs(resid[idx]) > abs(resid[merged[-1][0]]):
                        merged[-1] = (idx, s)
                else:
                    merged.append((idx, s))
            cands = np.array([idx for idx, _ in merged])
        if len(cands) < m:
            # degenerate level (e.g. an even target on a symmetric reference):
            # pad with well-separated points of largest residual so the next
            # solve re-levels on a nondegenerate reference
            sep = max(1, len(xs) // (4 * m))
            order = np.argsort(-np.abs(resid), kind="stable")
            chosen = list(cands)
            for idx in order:
                if len(chosen) >= m:
                    break
                if all(abs(int(idx) - int(c)) >= sep for c in chosen):
                    chosen.append(int(idx))
            cands = np.sort(np.asarray(chosen))
        # trim to m points, always keeping the global maximum
        while len(cands) > m:
            mags = np.abs(resid[cands])
            if len(cands) == m + 1:
                # pair deletion would undershoot; drop the weaker endpoint
                cands = cands[1:] if mags[0] <= mags[-1] else cands[:-1]
                continue
            j = int(np.argmin(mags))
            if j == 0:
                cands = cands[1:]
            elif j == len(cands) - 1:
                cands = cands[:-1]
            else:
                # drop this one and the weaker same-sign neighbor pair member
                drop = j - 1 if mags[j - 1] <= mags[j + 1] else j + 1
                cands = np.delete(cands, [min(j, drop), max(j, drop)])
        if len(cands) < m:
            raise NumericError("exchange lost alternation",
                               bracket=(level, worst))
        if np.array_equal(cands, ref):
            return tuple(coeffs), worst
        ref = cands
    raise NumericError(
        f"exchange did not converge in {REMEZ_MAX_ITER} iterations",
        bracket=(float(level), float(np.max(np.abs(fs - design @ coeffs)))))


def minimax_oracle(a: float, b: float, degree: int) -> MinimaxResult:
    """Best sup-norm polynomial approximation to 1/mu on a uniform grid of
    ``DEFAULT_GRID`` points, which holds at least 10 (degree + 2)."""
    if not (0 < a < b):
        raise InputError("need 0 < a < b")
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree > DEFAULT_GRID // 10 - 2:
        raise InputError(f"degree must be at most {DEFAULT_GRID // 10 - 2}")
    xs = np.linspace(a, b, DEFAULT_GRID)
    coeffs, error = remez_discrete(xs, 1.0 / xs, degree)
    return MinimaxResult(degree=degree, interval=(a, b), error=float(error),
                         witness_coefficients=coeffs)


def chebyshev_barrier(a: float, b: float, L: int) -> float:
    """Classical lower bound (2/(a+b)) rho^L on the degree-L minimax error
    of 1/mu over [a, b].

    The true minimax error is E_L = (b-a)/(2ab) rho^L, so on [1/kappa, 1]
    E_L / barrier = (kappa^2 - 1)/(4 kappa) at every L.  That ratio is
    below 1 for kappa < 2 + sqrt(5): 15/16 = 0.9375 at kappa = 4, where
    acceptance criterion 07b reports 0.9374 (the discrete grid's error sits
    just under E_L).
    """
    if not (0 < a < b):
        raise InputError("need 0 < a < b")
    return (2.0 / (a + b)) * chebyshev_rho(b / a) ** L


def equioscillation_count(result: MinimaxResult) -> int:
    """Number of sign alternations of the witness residual at its extrema
    on ``minimax_oracle``'s grid."""
    a, b = result.interval
    xs = np.linspace(a, b, DEFAULT_GRID)
    resid = 1.0 / xs - result.evaluate(xs)
    near = np.abs(resid) >= result.error * (1.0 - 1e-6)
    signs = np.sign(resid[near])
    return 1 + int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0

