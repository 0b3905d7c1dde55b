"""Dense symmetric eigendecomposition via Jacobi rotations.

Small matrices are swept in cyclic (row-by-row) order, one rotation at a
time; from ``ROUND_ROBIN_MIN_N`` on, each sweep is split into rounds of
disjoint pairs in round-robin order and a round is applied as one
vectorised update (Brent & Luk 1985; Golub & Van Loan sec. 8.5).

The lab deliberately carries its own eigensolver so that spectra entering
the experiments do not depend on the LAPACK build; ``numpy.linalg.eigh``
is used only as an independent oracle in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Smallest n swept in round-robin order; see jacobi_eigh for why 32.
ROUND_ROBIN_MIN_N = 32


def jacobi_eigh(matrix: np.ndarray, tol: float = JACOBI_TOL,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by Jacobi sweeps.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  Convergence is declared when the
    off-diagonal Frobenius norm falls below ``tol`` relative to the full
    Frobenius norm.

    Below ``ROUND_ROBIN_MIN_N`` a sweep visits the pairs (p, q) in cyclic
    row order, one rotation at a time.  From there on a sweep is n - 1
    rounds (n rounds for odd n, which pairs one index with a dummy) of
    n // 2 disjoint pairs in Brent & Luk's round-robin order (R. P. Brent
    and F. T. Luk, "The solution of singular-value and symmetric eigenvalue
    problems on multiprocessor arrays", SIAM J. Sci. Stat. Comput. 6,
    1985).  Rotations on disjoint pairs commute, so a round is one
    vectorised update of the paired rows, columns and eigenvector columns.

    Why 32 and not the crossover: the crossover is small.  Per call on an
    RBF Gram (one BLAS thread, 2-vCPU Xeon VM), round-robin took 0.7-0.9x
    the cyclic time at n = 4-6, 0.7x at n = 8, 0.5x at n = 16, 0.3x at
    n = 32 and 0.2x at n = 64.  But the two orders round differently, and
    the hierarchy suite's ``tnp.gp_pipeline`` compares a 16 x 16 Gram
    solve against a bound below float64 rounding: with the limit at 8, 58
    report cells of suite seeds 0-11 moved and the failing seeds went from
    1, 5, 6, 9, 10, 11 to 3, 10.  Until that check allows for rounding, the
    limit stays above its Gram.  At 32 the suite's reports stay
    byte-identical: its only matrices of that size are the two 32 x 32
    ones of ``latent.mercer``, whose checks floor rounding-level
    eigenvalues to zero.

    Raises NumericError (with the final off-diagonal residual attached) if
    the sweep budget is exhausted.
    """
    A = np.array(matrix, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError(f"matrix must be square, got shape {A.shape}")
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise InputError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), V

    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(n), V

    rounds = _round_robin_pairs(n) if n >= ROUND_ROBIN_MIN_N else None
    for _ in range(max_sweeps):
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        if off <= tol * norm:
            break
        if rounds is not None:
            for P, Q in rounds:
                _rotate_round(A, V, P, Q)
            continue
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                app, aqq = A[p, p], A[q, q]
                if abs(apq) <= 1e-300 or \
                        abs(apq) <= 1e-20 * (abs(app) + abs(aqq)):
                    A[p, q] = A[q, p] = 0.0
                    continue
                # classic stable rotation (Golub & Van Loan sec. 8.5)
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > 1e100:
                    t = 0.5 / theta  # asymptotic root, avoids theta**2 overflow
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        raise NumericError(
            f"Jacobi eigensolver did not converge in {max_sweeps} sweeps",
            residual=float(off))

    eigvals = A.diagonal().copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], V[:, order]


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


def _rotate_round(A: np.ndarray, V: np.ndarray, P: np.ndarray,
                  Q: np.ndarray):
    """Apply the rotations of one round of disjoint pairs to A and V in
    place: the cyclic rotation of each pair, computed side by side."""
    apq = A[P, Q]
    app, aqq = A[P, P], A[Q, Q]
    skip = (np.abs(apq) <= 1e-300) | \
        (np.abs(apq) <= 1e-20 * (np.abs(app) + np.abs(aqq)))
    theta = (aqq - app) / (2.0 * np.where(skip, 1.0, apq))
    # hypot(theta, 1) cannot overflow, so no asymptotic branch is needed
    t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta)
                                            + np.hypot(theta, 1.0))
    c = np.where(skip, 1.0, 1.0 / np.sqrt(t * t + 1.0))
    s = np.where(skip, 0.0, t * c)
    cc, ss = c[:, None], s[:, None]
    rp, rq = A[P, :], A[Q, :]
    A[P, :] = cc * rp - ss * rq
    A[Q, :] = ss * rp + cc * rq
    cp, cq = A[:, P], A[:, Q]
    A[:, P] = cp * c - cq * s
    A[:, Q] = cp * s + cq * c
    vp, vq = V[:, P], V[:, Q]
    V[:, P] = vp * c - vq * s
    V[:, Q] = vp * s + vq * c
    A[P[skip], Q[skip]] = A[Q[skip], P[skip]] = 0.0


def spectral_norm_sym(matrix: np.ndarray) -> float:
    """Spectral norm of a (symmetrized) matrix via its eigenvalues."""
    A = np.asarray(matrix, dtype=float)
    A = 0.5 * (A + A.T)
    # LAPACK is fine here: operator norms are plumbing, not a studied spectrum
    return float(np.abs(np.linalg.eigvalsh(A)).max())
