"""Dense symmetric eigendecomposition via cyclic Jacobi rotations.

The lab deliberately carries its own eigensolver so that spectra entering
the experiments do not depend on the LAPACK build; ``numpy.linalg.eigh``
is used only as an independent oracle in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(matrix: np.ndarray, tol: float = JACOBI_TOL,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  Convergence is declared when the
    off-diagonal Frobenius norm falls below ``tol`` relative to the full
    Frobenius norm.

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

    for _ in range(max_sweeps):
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        if off <= tol * norm:
            break
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


def spectral_norm_sym(matrix: np.ndarray) -> float:
    """Spectral norm of a (symmetrized) matrix via its eigenvalues."""
    A = np.asarray(matrix, dtype=float)
    A = 0.5 * (A + A.T)
    # LAPACK is fine here: operator norms are plumbing, not a studied spectrum
    return float(np.abs(np.linalg.eigvalsh(A)).max())
