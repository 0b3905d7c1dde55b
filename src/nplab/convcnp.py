"""Convolutional conditional predictors on periodic grids.

A ConvCNP puts the context on a regular grid and processes it with a CNN.
Every grid here is periodic and every kernel on it is stationary and
periodically wrapped, so every operator in sight is exactly circulant and
the whole stack diagonalizes in the discrete Fourier basis: iteration
rates, Jacobians and depth requirements all become statements about
scalar symbols per frequency, which is what this module verifies.  The
incomparability witnesses at the end compare the exact GP with a pure
convolutional readout, which weights each context point by its distance
from the query alone.

`dft`, `idft` and `frequency_diagonal` go through `numpy.fft`;
`dft_matrix` is the direct exp(-2 pi i k m / n) sum they are tested
against.  Circular convolutions stay dense matvecs with the matrix
`circulant_matrix` builds: on grids up to 256 points a circulant built
once is faster per product than an FFT convolution, and its product is
the direct sum.  A block of columns goes through the same circulant as
one matrix product, which is how `grid_forward_map` serves the column
blocks of `tnp.fd_jacobian`; a product of a block rounds differently
from the matvecs of its columns, by about one unit in the last place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .anp import nadaraya_watson
from .cnp import ContextSet
from .errors import InputError, NumericError
from .gp_oracle import posterior_mean
from .kernels import KernelSpec, kernel_matrix
from .polyapprox import (_distinct_sorted, apply_schedule,
                         chebyshev_error_bound, chebyshev_rho,
                         chebyshev_schedule, remez_discrete)

WRAP_REACH = 6.0  # kernel images summed within this many lengthscales


@dataclass(frozen=True)
class GridSpec:
    """Regular periodic 1-d grid of n cells: cell m sits at m * spacing,
    and the grid wraps after its extent n * spacing."""

    n: int
    spacing: float

    def __post_init__(self):
        if self.n < 2:
            raise InputError("grid needs at least two cells")
        if self.spacing <= 0:
            raise InputError("grid spacing must be positive")

    @property
    def extent(self) -> float:
        return self.spacing * self.n


def dft_matrix(n: int) -> np.ndarray:
    """Direct DFT with the exp(-2 pi i k m / n) sign convention; the
    oracle for `dft`, `idft` and `frequency_diagonal`."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def _signal(v) -> np.ndarray:
    v = np.asarray(v)
    # numpy.fft transforms the last axis, so a 2-d argument would change
    # meaning rather than fail
    if v.ndim != 1 or v.size == 0:
        raise InputError("dft takes a non-empty 1-d array")
    return v


def dft(v: np.ndarray) -> np.ndarray:
    """sum_m v[m] exp(-2 pi i k m / n), by FFT."""
    return np.fft.fft(_signal(v))


def idft(v: np.ndarray) -> np.ndarray:
    """Inverse of `dft`: (1/n) sum_k v[k] exp(2 pi i k m / n), by FFT."""
    return np.fft.ifft(_signal(v))


def frequency_diagonal(J: np.ndarray) -> np.ndarray:
    """diag(F J F^-1) with F = dft_matrix(n): the per-frequency symbol of
    J when J is circulant, by one FFT along each axis."""
    J = np.asarray(J)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.size == 0:
        raise InputError("frequency_diagonal takes a non-empty square matrix")
    return np.diag(np.fft.fft(np.fft.ifft(J, axis=1), axis=0))


@dataclass(frozen=True)
class CirculantOperator:
    """Circulant matrix held as its first row and its DFT symbol."""

    first_row: np.ndarray
    dft_eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return len(self.first_row)

    def matrix(self) -> np.ndarray:
        return circulant_matrix(self.first_row)


def circulant(first_row) -> CirculantOperator:
    row = np.asarray(first_row, dtype=float)
    return CirculantOperator(first_row=row, dft_eigenvalues=dft(row))


def from_symbol(symbol: np.ndarray) -> CirculantOperator:
    """Circulant operator with the given DFT symbol; the first row must
    come out real (to 1e-8 relative)."""
    row = idft(np.asarray(symbol, dtype=complex))
    if np.max(np.abs(row.imag)) > 1e-8 * max(1.0, np.max(np.abs(row.real))):
        raise NumericError("symbol does not correspond to a real circulant",
                           residual=float(np.max(np.abs(row.imag))))
    return CirculantOperator(first_row=row.real,
                             dft_eigenvalues=np.asarray(symbol, dtype=complex))


def circulant_matrix(row) -> np.ndarray:
    """Dense circulant C[i, j] = row[(i - j) mod n], so that C @ x is the
    circular convolution of row with x.  Build it once where one operator
    is applied many times."""
    c = np.asarray(row, dtype=float)
    n = len(c)
    if n == 0:  # the window form below would give one empty row
        return np.empty((0, 0))
    # row i is window n - 1 - i of c[n-1], ..., c[0], c[n-1], ..., c[1]
    windows = sliding_window_view(np.concatenate([c[1:], c])[::-1], n)
    return windows[::-1].copy()


def circular_convolve(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(c * x)[i] = sum_m c[m] x[(i - m) mod n], the circulant matvec."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    if len(x) != len(c):
        raise InputError("convolution length mismatch")
    return circulant_matrix(c) @ x


def wrapped_kernel_row(spec: KernelSpec, grid: GridSpec) -> np.ndarray:
    """First row of the periodically wrapped kernel Gram on the grid.

    Images are summed within WRAP_REACH lengthscales, which keeps the wrap
    truncation below 1e-8 for the RBF family at unit variance.
    """
    if not spec.stationary:
        raise InputError("wrapped kernel requires a stationary family")
    reach = WRAP_REACH * spec.lengthscale
    extent = grid.extent
    n_images = int(np.ceil(reach / extent)) + 1
    # offsets[m, j] = m spacing + j extent, one column per image j
    offsets = (np.arange(grid.n)[:, None] * grid.spacing
               + np.arange(-n_images, n_images + 1) * extent)
    near = np.abs(offsets) <= reach
    images = np.zeros(offsets.shape)
    images[near] = kernel_matrix(spec, [[0.0]], offsets[near][:, None])[0]
    # images are added one column at a time, in the order of the direct
    # sum over j; .sum(axis=1) reduces pairwise and rounds differently
    row = np.zeros(grid.n)
    for column in images.T:
        row += column
    return row


# ---------------------------------------------------------------------------
# grid CNN as a Chebyshev solver

def grid_cnn_gp(spec: KernelSpec, grid: GridSpec, y, t_index: int,
                L: int) -> dict:
    """Chebyshev inverse iteration on the wrapped-kernel circulant, each
    factor applied as a circular convolution, read out with the kernel
    cross-weights at an on-grid target."""
    y = np.asarray(y, dtype=float)
    if len(y) != grid.n:
        raise InputError("observation length must match the grid")
    if not (0 <= t_index < grid.n):
        raise InputError("target index out of range")
    row = wrapped_kernel_row(spec, grid)
    K = circulant(row)
    lam = K.dft_eigenvalues
    if np.max(np.abs(lam.imag)) > 1e-8:
        raise NumericError("wrapped kernel symbol is not real",
                           residual=float(np.max(np.abs(lam.imag))))
    lam = lam.real
    lam_min, lam_max = float(lam.min()), float(lam.max())
    if lam_min <= 1e-8:
        raise NumericError("circulant Gram numerically singular",
                           lambda_min=lam_min)
    schedule = chebyshev_schedule(lam_min, lam_max, L)
    # each layer is one circular convolution with the kernel row: the
    # circulant is built once and every layer is a matvec with it
    z = apply_schedule(K.matrix(), schedule, y)
    k_t = row[(t_index - np.arange(grid.n)) % grid.n]
    prediction = float(k_t @ z)
    # exact posterior on the same circulant Gram, solved per frequency
    z_exact = idft(dft(y) / lam).real
    oracle = float(k_t @ z_exact)
    bound = float(np.linalg.norm(k_t) * np.linalg.norm(y)
                  * chebyshev_error_bound(lam_min, lam_max, L))
    return {
        "prediction": prediction,
        "oracle": oracle,
        "error_vs_oracle": abs(prediction - oracle),
        "bound": bound,
        "kappa": lam_max / lam_min,
    }


# ---------------------------------------------------------------------------
# Jacobian factorization in frequency space

def circulant_jacobian(filters: Sequence, d_coeffs: Sequence[float],
                       w_hat: CirculantOperator,
                       g_hat: CirculantOperator) -> CirculantOperator:
    """J_hat(k) = g_hat(k) prod_l (1 + d_l tau_hat_l(k)) h'(0) w_hat(k),
    with h'(0) = 1 for the tanh encoder of ``grid_forward_map``.

    Filters are first rows (shorter rows are zero-padded to length n).
    """
    n = w_hat.n
    if g_hat.n != n:
        raise InputError("operator sizes disagree")
    if len(filters) != len(d_coeffs):
        raise InputError("need one derivative coefficient per filter")
    symbol = g_hat.dft_eigenvalues * w_hat.dft_eigenvalues
    acc = np.ones(n, dtype=complex)
    for row, d in zip(filters, d_coeffs):
        row = np.asarray(row, dtype=float)
        if len(row) > n:
            raise InputError("filter longer than the grid")
        padded = np.zeros(n)
        padded[:len(row)] = row
        acc *= 1.0 + d * dft(padded)
    return from_symbol(symbol * acc)


def softplus(x):
    return np.logaddexp(0.0, x)


def grid_forward_map(filters: Sequence, w_row, g_row) -> Callable:
    """Nonlinear grid forward pass whose Jacobian at y = 0 factorizes.

    Encoder tanh (h(0) = 0, h'(0) = 1), residual CNN layers
    z <- z + softplus(tau * z) - softplus(0) with zero bias so the
    activation derivative at the uniform zero input is exactly 1/2,
    then a linear readout convolution.  Filters are first rows, zero-padded
    to the grid; every circulant is built here, so a call of the map does
    only matrix products.  The map takes a grid signal y of n values, or an
    (n, k) block of k signals as columns, which it maps in one product per
    layer.
    """
    W = circulant_matrix(w_row)
    n = len(W)
    if len(g_row) != n:
        raise InputError("convolution length mismatch")
    G = circulant_matrix(g_row)
    layers = []
    for row in filters:
        row = np.asarray(row, dtype=float)
        if len(row) > n:
            raise InputError("filter longer than the grid")
        p = np.zeros(n)
        p[:len(row)] = row
        layers.append(circulant_matrix(p))

    def F(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if len(y) != n:
            raise InputError("convolution length mismatch")
        z = W @ np.tanh(y)
        for T in layers:
            z = z + softplus(T @ z) - softplus(0.0)
        return G @ z

    return F


def full_support_solve(K_hat: CirculantOperator, g_hat: CirculantOperator,
                       w_hat: CirculantOperator, d1: float) -> np.ndarray:
    """Single full-support filter making the one-layer Jacobian invert the
    Gram exactly: tau_hat(k) = (1/(lam_k g_hat w_hat) - 1)/d1, with
    h'(0) = 1 as in ``circulant_jacobian``."""
    if d1 == 0:
        raise InputError("d1 must be nonzero")
    lam = K_hat.dft_eigenvalues
    if np.max(np.abs(lam.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(lam)))):
        raise NumericError("Gram symbol is not real",
                           residual=float(np.max(np.abs(lam.imag))))
    # drop roundoff imaginaries before inverting; 1/lam amplifies them
    # catastrophically at small eigenvalues
    lam = lam.real
    denom = lam * g_hat.dft_eigenvalues * w_hat.dft_eigenvalues
    if np.min(np.abs(denom)) < 1e-300 or np.min(np.abs(lam)) < 1e-300:
        raise NumericError("singular frequency in full-support solve",
                           residual=float(np.min(np.abs(denom))))
    tau_hat = (1.0 / denom - 1.0) / d1
    return from_symbol(tau_hat).first_row


# ---------------------------------------------------------------------------
# depth vs filter support

def trig_minimax_error(x_grid: np.ndarray, f: np.ndarray, degree: int) -> float:
    """Best sup-norm error of a degree-`degree` cosine polynomial against f
    on the frequency set, via the substitution x = cos(omega): cosine
    polynomials of degree D are exactly algebraic polynomials of degree D
    in x."""
    order = np.argsort(x_grid)
    xs, fs = x_grid[order], f[order]
    xs, keep = _distinct_sorted(np.round(xs, 12))
    fs = fs[keep]
    if degree >= len(xs) - 1:
        # full interpolation: error is rounding-level
        V = np.vander(xs, len(xs), increasing=True)
        coef = np.linalg.solve(V, fs)
        return float(np.max(np.abs(V @ coef - fs)))
    _, err = remez_discrete(xs, fs, degree)
    return float(err)


def nearest_neighbor_row(a: float, b: float, n: int) -> np.ndarray:
    """Symmetric first row (a, b, 0, ..., 0, b) with symbol a + 2b cos(w);
    the symbol is affine in cos(w), so trig degree equals algebraic degree
    and the Chebyshev decay rate applies without correction."""
    row = np.zeros(n)
    row[0] = a
    row[1] = b
    row[-1] = b
    return row


def depth_support_experiment(spec: KernelSpec, grid: GridSpec, p: int,
                             eps_targets: Sequence[float],
                             first_row=None) -> dict:
    """Depth needed at filter support p to invert the grid Gram spectrum.

    Computes the discrete cosine-polynomial minimax error against
    1/K_hat(omega) per degree; for each eps reports the smallest adequate
    degree D and the implied layer count ceil(D / floor(p/2)), asserting
    the product L * floor(p/2) covers D.  An eps that no degree up to n//2
    reaches, or whose layer count the grid cannot host (n <= 2 L
    floor(p/2)), is recorded as not achieved, with no degree or layer
    count.  The decay slope is fit to the errors at degrees 4, 6, ..., 12
    that the grid admits.
    """
    if p < 2:
        raise InputError("filter support must be at least 2")
    half = p // 2
    row = (np.asarray(first_row, dtype=float) if first_row is not None
           else wrapped_kernel_row(spec, grid))
    lam = dft(row)
    if np.max(np.abs(lam.imag)) > 1e-8:
        raise NumericError("grid symbol is not real")
    lam = lam.real
    if lam.min() <= 0:
        raise NumericError("grid symbol must be positive", lambda_min=float(lam.min()))
    omega = 2.0 * np.pi * np.arange(grid.n) / grid.n
    x = np.cos(omega)
    target = 1.0 / lam
    kappa = float(lam.max() / lam.min())

    max_degree = grid.n // 2
    errors = {}
    required = {}
    for eps in eps_targets:
        D = 0
        while D <= max_degree:
            err = errors.get(D)
            if err is None:
                err = trig_minimax_error(x, target, D)
                errors[D] = err
            if err <= eps:
                break
            D += 1
        if D > max_degree:
            layers = None
        elif D == 0:
            # rescaling convention: zero layers only if the symbol is
            # already inverted
            layers = 0 if np.max(np.abs(lam - 1.0)) <= eps else 1
        else:
            layers = int(np.ceil(D / half))
        # no degree up to n//2 reaches eps, or the grid cannot host the
        # layers
        if layers is None or (layers and grid.n <= 2 * layers * half):
            required[eps] = {"degree": None, "layers": None,
                             "achieved": False}
            continue
        required[eps] = {"degree": D, "layers": layers,
                         "achieved": layers * half >= D}

    degs = [D for D in (4, 6, 8, 10, 12) if D <= max_degree]
    for D in degs:
        if D not in errors:
            errors[D] = trig_minimax_error(x, target, D)
    errs = [errors[D] for D in degs]
    if all(e > 0 for e in errs) and len(degs) >= 2:
        slope = float(np.polyfit(degs, np.log(errs), 1)[0])
    else:
        slope = float("nan")
    rho = chebyshev_rho(kappa)
    return {
        "kappa": kappa,
        "required": required,
        "decay_slope": slope,
        "log_rho": float(np.log(rho)) if rho > 0 else float("-inf"),
    }


# ---------------------------------------------------------------------------
# incomparability witnesses

def equivariance_defect(spec: KernelSpec, C: ContextSet, x_t,
                        shift: float) -> float:
    """|F(C + shift, x_t + shift) - F(C, x_t)| for the kernel smoother;
    zero for stationary kernels, generically positive for amplitude-scaled
    non-stationary ones."""
    shifted = ContextSet(C.locations + shift, C.values)
    base = nadaraya_watson(spec, C, x_t)
    moved = nadaraya_watson(
        spec, shifted, np.atleast_1d(np.asarray(x_t, dtype=float)) + shift)
    return abs(moved - base)


def pure_convcnp_counterexample(spec: KernelSpec,
                                spacing: float = 0.5) -> dict:
    """Two on-grid 1-d contexts with identical query-point distance sets
    but different inter-context distances.

    Every pure convolutional predictor weights points by w(x_t - x_i)
    alone, so its outputs agree on the pair; the exact GP means differ
    through k(x_1, x_2).  The readout filter w is the kernel itself.
    """
    if not spec.stationary:
        raise InputError("counterexample requires a stationary kernel")
    x_t = np.zeros(1)
    # distances from the query are {1, 2} in both configurations
    config_a = ContextSet(np.array([[1.0], [2.0]]), np.ones((2, 1)))
    config_b = ContextSet(np.array([[1.0], [-2.0]]), np.ones((2, 1)))
    for cfg in (config_a, config_b):
        offsets = cfg.locations.ravel() / spacing
        if np.max(np.abs(offsets - np.round(offsets))) > 1e-12:
            raise InputError("counterexample locations must sit on the grid")
    pure_a = nadaraya_watson(spec, config_a, x_t)
    pure_b = nadaraya_watson(spec, config_b, x_t)
    gp_a = posterior_mean(spec, config_a.locations, config_a.values[:, 0], x_t)
    gp_b = posterior_mean(spec, config_b.locations, config_b.values[:, 0], x_t)
    return {
        "pure_output_gap": abs(pure_a - pure_b),
        "gp_mean_gap": abs(gp_a - gp_b),
    }
