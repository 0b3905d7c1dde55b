"""Dense symmetric eigendecomposition via Jacobi rotations.

One sweep engine serves both public functions.  It rotates the stacked
array B = [A | V^T]: a rotation of the pair (p, q) turns rows p and q of B,
which are the rows of A and of V^T together, and then columns p and q of
the A block only.  ``jacobi_eigh`` sweeps B with V = I, and
``jacobi_eigvalsh`` sweeps B = A, so it does none of the eigenvector work
and returns the same eigenvalues bit for bit (the split LAPACK makes with
JOBZ = 'N').

Small matrices are swept in cyclic (row-by-row) order, one rotation at a
time, on Python lists of floats: below n = 32 the cost of a numpy call
outweighs the O(n) arithmetic of a rotation, and the list form does the
same IEEE operations in the same order as the array form, so it gives the
same bits.  From ``ROUND_ROBIN_MIN_N`` on, each sweep is split into rounds
of disjoint pairs in round-robin order and a round is applied as one
vectorised update (Brent & Luk 1985; Golub & Van Loan sec. 8.5).

The lab deliberately carries its own eigensolver so that spectra entering
the experiments do not depend on the LAPACK build; ``numpy.linalg.eigh``
is used only as an independent oracle in the test suite.
"""

from __future__ import annotations

from math import copysign, sqrt

import numpy as np

from .errors import InputError, NumericError

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Smallest n swept in round-robin order; see jacobi_eigh for why 32.
ROUND_ROBIN_MIN_N = 32


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by Jacobi sweeps.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  Convergence is declared when the
    off-diagonal Frobenius norm falls below ``JACOBI_TOL`` relative to the
    full Frobenius norm.  When only the eigenvalues are read, call
    ``jacobi_eigvalsh``: it gives the same eigenvalues bit for bit.

    The sweeps rotate the n x 2n array B = [A | V^T] with V = I at the
    start.  One row update turns rows p and q of A and of V^T together,
    and the column update touches only the A block; each entry of V^T
    gets the same IEEE operations as the column update of V it replaces,
    so the vectors are bit-identical to a sweep that keeps V apart (kept
    as the oracles in the tests).

    Below ``ROUND_ROBIN_MIN_N`` a sweep visits the pairs (p, q) in cyclic
    row order, one rotation at a time, on the rows of B as lists of Python
    floats; B goes back into an array once per sweep for the convergence
    test.  On arrays a rotation is about 24 numpy calls on vectors of
    length n, each costing more than its arithmetic at these sizes.  The
    list form does the same IEEE operations in the same order, so values
    and vectors are bit-identical to the per-rotation numpy loop.

    From ``ROUND_ROBIN_MIN_N`` on, a sweep is n - 1 rounds (n rounds for
    odd n, which pairs one index with a dummy) of n // 2 disjoint pairs in
    Brent & Luk's round-robin order (R. P. Brent and F. T. Luk, "The
    solution of singular-value and symmetric eigenvalue problems on
    multiprocessor arrays", SIAM J. Sci. Stat. Comput. 6, 1985).
    Rotations on disjoint pairs commute, so a round is one vectorised
    update of the paired rows of B and the paired columns of A.

    Why 32 and not the crossover: per call on an RBF Gram (one BLAS
    thread, 2-vCPU Xeon VM), round-robin takes 5-7x the cyclic list time
    at n = 4-8, 2x at n = 16, 0.75x at n = 24-31 and 0.3x at n = 64, so
    the crossover is near n = 20.  The two orders round differently, and
    the hierarchy suite's ``tnp.gp_pipeline`` compares a 16 x 16 Gram
    solve against a bound below float64 rounding: with the limit at 8, 58
    report cells of suite seeds 0-11 moved and the failing seeds went from
    1, 5, 6, 9, 10, 11 to 3, 10.  Until that check allows for rounding, the
    limit stays above its Gram.  At 32 the suite's reports stay
    byte-identical: its only matrices of that size are the two 32 x 32
    ones of ``latent.mercer``, whose checks floor rounding-level
    eigenvalues to zero.

    A finite matrix whose Frobenius norm overflows, or underflows to zero,
    is swept at an exact power-of-two scale and its eigenvalues scaled
    back (one beyond the float range comes back as +-inf).

    Raises InputError on an empty, ragged, non-square, non-symmetric or
    non-finite matrix, and NumericError (with the final off-diagonal
    residual attached) if the sweep budget is exhausted.
    """
    vals, B = _jacobi(matrix, max_sweeps, vectors=True)
    V = B[:, len(vals):].T.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def jacobi_eigvalsh(matrix: np.ndarray,
                    max_sweeps: int = JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by Jacobi sweeps.

    The same sweeps as ``jacobi_eigh`` on B = A, with no eigenvector
    columns, so the result is ``jacobi_eigh(matrix, max_sweeps)[0]``
    bit for bit at about half the row work.  Raises as ``jacobi_eigh``.
    """
    vals, _ = _jacobi(matrix, max_sweeps, vectors=False)
    return vals[np.argsort(vals, kind="stable")]


def _jacobi(matrix, max_sweeps, vectors):
    """Validate, sweep and return (eigenvalues in diagonal order, B).

    B is the swept [A | V^T] when ``vectors`` is true and the swept A
    otherwise.
    """
    try:
        M = np.array(matrix, dtype=float)
    except (TypeError, ValueError) as err:  # ragged or non-numeric
        raise InputError(f"matrix is not a numeric array: {err}") from None
    n = len(M) if M.ndim else 0
    if n == 0 or M.shape != (n, n):
        raise InputError(f"matrix must be square and non-empty, got shape "
                         f"{M.shape}")
    amax = np.abs(M).max()
    if not np.isfinite(amax):
        raise InputError("matrix has non-finite entries")
    if not np.allclose(M, M.T, atol=1e-12 * max(1.0, amax)):
        raise InputError("matrix is not symmetric")
    # The Frobenius norm's sum of squares can overflow only when
    # n * max|a| > 2**512, and underflow to zero only when max|a| < 2**-511.
    # Where it does either, the matrix is swept at a power-of-two scale,
    # which is exact, with its largest entry in [0.5, 1), and its
    # eigenvalues are scaled back; every other matrix is swept as given.
    shift = 0
    if amax > 2.0 ** 511 / n or 0.0 < amax < 2.0 ** -511:
        with np.errstate(over="ignore", under="ignore"):
            norm = np.linalg.norm(0.5 * (M + M.T))
        if np.isinf(norm) or norm == 0.0:
            shift = int(np.frexp(amax)[1])
            M = np.ldexp(M, -shift)
    A = 0.5 * (M + M.T)
    B = np.hstack([A, np.eye(n)]) if vectors else A
    if n == 1:
        return np.ldexp(A.diagonal(), shift), B

    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(n), B

    cyclic = n < ROUND_ROBIN_MIN_N
    if cyclic:
        rows = B.tolist()
    else:
        rounds = _round_robin_pairs(n)
    for _ in range(max_sweeps):
        A = B[:, :n]
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        if off <= JACOBI_TOL * norm:
            break
        if cyclic:
            _cyclic_sweep(rows)
            B = np.array(rows)
        else:
            for P, Q in rounds:
                _rotate_round(B, P, Q)
    else:
        A = B[:, :n]
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        raise NumericError(
            f"Jacobi eigensolver did not converge in {max_sweeps} sweeps",
            residual=float(off))

    eigvals = B.diagonal().copy()
    if shift:
        eigvals = np.ldexp(eigvals, shift)
    return eigvals, B


def _cyclic_sweep(rows: list):
    """One cyclic sweep, in place, over the rows of B held as lists of
    Python floats; A is the first len(rows) entries of each row.

    Each rotation does the IEEE operations of the array form in the same
    order: rows p and q of B, then columns p and q of A, each entry as
    c * x - s * y and s * x + c * y.  The eigenvector columns of B depend
    on A only through (c, s), so the row update is all they need.
    ``math.copysign(1.0, theta)`` and ``math.sqrt`` round exactly as
    ``np.sign(theta)`` (theta != 0 there) and ``np.sqrt``.
    """
    n, width = len(rows), len(rows[0])
    for p in range(n - 1):
        for q in range(p + 1, n):
            rp, rq = rows[p], rows[q]
            apq = rp[q]
            app, aqq = rp[p], rq[q]
            if abs(apq) <= 1e-300 or \
                    abs(apq) <= 1e-20 * (abs(app) + abs(aqq)):
                rp[q] = rq[p] = 0.0
                continue
            # classic stable rotation (Golub & Van Loan sec. 8.5)
            theta = (aqq - app) / (2.0 * apq)
            # behind the skip test |theta| < 5e19, so theta**2 cannot overflow
            if theta == 0.0:
                t = 1.0
            else:
                t = copysign(1.0, theta) / (abs(theta)
                                            + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            for k in range(width):
                x, y = rp[k], rq[k]
                rp[k] = c * x - s * y
                rq[k] = s * x + c * y
            for row in rows:
                x, y = row[p], row[q]
                row[p] = c * x - s * y
                row[q] = s * x + c * y


def _round_robin_pairs(n: int):
    """The rounds of one round-robin sweep as (P, Q) index arrays, P < Q.

    Circle method: index 0 stays put and the other m - 1 indices turn one
    place per round, so every pair meets exactly once in m - 1 rounds.  For
    odd n, m = n + 1 and the pair holding the dummy index n is dropped.
    """
    m = n + n % 2
    half = m // 2
    r = np.arange(m - 1)[:, None]
    seat = np.arange(m)[None, :]
    order = np.where(seat == 0, 0, 1 + (seat - 1 + r) % (m - 1))
    left, right = order[:, :half], order[:, ::-1][:, :half]
    P, Q = np.minimum(left, right), np.maximum(left, right)
    keep = Q < n
    return [(p[k], q[k]) for p, q, k in zip(P, Q, keep)]


def _rotate_round(B: np.ndarray, P: np.ndarray, Q: np.ndarray):
    """Apply the rotations of one round of disjoint pairs to B in place:
    the cyclic rotation of each pair, computed side by side, on the paired
    rows of B and the paired columns of its A block."""
    apq = B[P, Q]
    app, aqq = B[P, P], B[Q, Q]
    skip = (np.abs(apq) <= 1e-300) | \
        (np.abs(apq) <= 1e-20 * (np.abs(app) + np.abs(aqq)))
    theta = (aqq - app) / (2.0 * np.where(skip, 1.0, apq))
    # hypot(theta, 1) cannot overflow, so no asymptotic branch is needed
    t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta)
                                            + np.hypot(theta, 1.0))
    c = np.where(skip, 1.0, 1.0 / np.sqrt(t * t + 1.0))
    s = np.where(skip, 0.0, t * c)
    cc, ss = c[:, None], s[:, None]
    rp, rq = B[P, :], B[Q, :]
    B[P, :] = cc * rp - ss * rq
    B[Q, :] = ss * rp + cc * rq
    A = B[:, :len(B)]
    cp, cq = A[:, P], A[:, Q]
    A[:, P] = cp * c - cq * s
    A[:, Q] = cp * s + cq * c
    B[P[skip], Q[skip]] = B[Q[skip], P[skip]] = 0.0


def spectral_norm_sym(matrix: np.ndarray) -> float:
    """Spectral norm of a (symmetrized) matrix via its eigenvalues."""
    A = np.asarray(matrix, dtype=float)
    A = 0.5 * (A + A.T)
    # LAPACK is fine here: operator norms are plumbing, not a studied spectrum
    return float(np.abs(np.linalg.eigvalsh(A)).max())
