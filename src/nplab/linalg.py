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
vectorised update (Brent & Luk 1985; Golub & Van Loan sec. 8.5).  The
update runs on a paired-halves layout, which holds the k-th pair of every
round at rows and columns k and half + k, so a round is slices and
products of same-shape arrays, with no index gathers or scatters, and it
does the same IEEE operations on every entry as the cyclic rotation of
its pair.  The round-robin sweep also leaves every pair whose |a_pq| is
at most tol / n, where tol is the matrix's convergence threshold
(threshold Jacobi; Rutishauser 1966): it turns by the identity and keeps
a_pq.  Without it, the pairs inside a cluster of rounding-level
eigenvalues keep turning by large angles; the cyclic sweeps keep their
rule and their bits (see ``jacobi_eigh``).

Every call goes through one dispatcher, ``_jacobi_many``: a single
matrix is a list of one.  It checks each matrix's shape, and ``_prepare``
validates, symmetrizes, scales and takes the norm of each group of
same-size matrices below ``ROUND_ROBIN_MIN_N`` (and of each larger matrix
alone) as one (b, n, n) array; that is the only validation.
Only n and the size of the group then choose the sweep: a group of at
least ``_STACK_MIN`` matrices below ``ROUND_ROBIN_MIN_N`` is swept as one
stack in lockstep, one numpy step turning the pair (p, q) of every member,
and every other matrix is swept alone, as a stack of one, in cyclic order
on lists or in round-robin order.  One loop, ``_converge``, tests and
sweeps stacks and single members alike, and one expression decides when
a member has converged: its off-diagonal Frobenius norm, taken by
``_frobenius`` as ``np.linalg.norm`` takes it, bit for bit, against its
own threshold.  A stacked member still gets the IEEE operations of its
own cyclic sweep in the same order, so its result, or its budget error,
is its own call's bit for bit, at a fraction of the per-call overhead
that dominates at these sizes.

The lab deliberately carries its own eigensolver so that spectra entering
the experiments do not depend on the LAPACK build; ``numpy.linalg.eigh``
is used only as an independent oracle in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from math import copysign, frexp, isfinite, sqrt

import numpy as np

from .errors import InputError, NumericError

JACOBI_TOL = 1e-12
# The sweep budget, read when a call runs.
JACOBI_MAX_SWEEPS = 100

# Smallest n swept in round-robin order, which also leaves the pairs below
# tol / n; see jacobi_eigh for why 32, and why the smaller cyclic sweeps do
# not leave them.
ROUND_ROBIN_MIN_N = 32


def jacobi_eigh(matrix: np.ndarray):
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
    update of the paired rows of B and the paired columns of A.  The sweep
    keeps B in a paired-halves layout (``_paired_layout``): rows and
    columns k and half + k hold the k-th pair of the round, and a round
    writes each new row, and then each new column, straight into its
    position for the next round, which is a fixed ring shift.  So a round
    reads diagonals and slices, and every product is of two contiguous
    arrays of one shape; the columns of A turn as the rows of a contiguous
    copy of A^T.  Odd n adds a zero row and column for the dummy index.

    Every entry gets the IEEE operations of the cyclic rotation of its
    pair (p, q), p < q, so values, vectors and their strides are
    bit-identical to a round that gathers the pairs by index (kept as the
    oracle in the tests):

    - a_pq is read above the diagonal, as the cyclic rotation reads it,
      since A is not bitwise symmetric mid-sweep;
    - where the top slot holds q, the pair turns as (q, p) with -s in
      place of s: c x - (-s) y is s y + c x, and (-s) x + c y is
      c y - s x, exactly, since IEEE negation is exact and + and *
      commute;
    - the sign enters through t.  The slots give theta_u = (a_bot -
      a_top) / (2 a_pq), which is theta where the top holds p and -theta
      where it holds q (a zero where theta is a zero).  t is
      -1 / (|theta_u| + hypot(theta_u, 1)) where theta_u < cut and
      +1 / (...) elsewhere, with cut = 0 where the top holds p and the
      least positive float where it holds q.  That is theta < 0 on one
      side and theta >= 0 (theta_u <= 0) on the other, so t is the
      cyclic t, negated where the top holds q, c is unchanged and s = t c
      is negated;
    - a skipped pair gets theta = inf (-inf where the top holds q), so
      t = +-0.0, c = 1 and s = +-0.0 exactly: the skip branch's c = 1,
      s = 0, seen from either side;
    - the dummy's pair always skips, and 1 x - 0 * 0 = x and (-0) * 0 + x
      = x for every x, -0.0 included, so its entries stay 0.0 and its
      partner is left as the round that drops the dummy leaves it.

    The off-diagonal norm that decides convergence is taken once per
    sweep, on the unpadded A in index order, so the sweep count is the
    same too.

    The round-robin sweep also leaves a pair with |a_pq| <= tol / n, where
    tol = JACOBI_TOL ||A||_F is the threshold of the convergence test: it
    turns by the identity, as a skipped pair does, and keeps its a_pq;
    only the skip test above zeroes an entry.  This is classical threshold
    Jacobi (H. Rutishauser, "The Jacobi method for real symmetric
    matrices", Numer. Math. 9, 1966; Golub & Van Loan sec. 8.5).  It leaves
    only entries that the convergence test accepts, since n (n - 1)
    entries of at most tol / n have an off-norm of at most
    sqrt(n (n - 1)) tol / n < tol.  It matters inside a cluster of
    rounding-level eigenvalues, where a_pp, a_qq and a_pq are all
    rounding, so the 1e-20 skip never fires: those pairs turn by large
    angles and spread the cluster's coupling back out to the other
    eigenvalues.  ``latent.mercer``'s 64 x 64 rank-3 Gram, with a 61-fold
    zero cluster, took 15 sweeps to converge without the threshold, and
    takes 4 with it.  Which entries are left depends on A alone, so
    ``jacobi_eigvalsh`` still gives ``jacobi_eigh``'s values bit for bit.

    The cyclic and stacked sweeps below ``ROUND_ROBIN_MIN_N`` keep the
    skip test alone.  Leaving the pairs below tol / n there too moves the
    rounding of the 16 x 16 Gram solve of ``tnp.gp_pipeline``, whose bound
    lies below rounding: it then fails at hierarchy suite seeds 3, 8 and
    10 of 0-11 as well as at 1, 5, 6, 9 and 11.

    Why 32 and not the crossover: per call on an RBF Gram (one BLAS
    thread, 2-vCPU Xeon VM), round-robin takes about 4x the cyclic list
    time at n = 4, 3.4x at n = 8, 0.8-1.05x at n = 16, 0.5-0.6x at
    n = 24, 0.4x at n = 28-31 and 0.15x at n = 64, so the crossover is
    near n = 16 (with the rounds that gathered by index it was near
    n = 20).  The two orders round differently, and the hierarchy suite's
    ``tnp.gp_pipeline`` compares a 16 x 16 Gram solve against a bound
    below float64 rounding: with the limit at 8, 58 report cells of suite
    seeds 0-11 moved and the failing seeds went from 1, 5, 6, 9, 10, 11
    to 3, 10.  Until that check allows for rounding, the limit stays above
    its Gram.  At 32 the suite's reports stay byte-identical: its only
    matrix of that size is the 32 x 32 Gram of ``latent.mercer``, whose
    checks floor rounding-level eigenvalues to zero.

    Every matrix is validated, symmetrized, scaled and normed once, by
    ``_prepare``, which takes the same-size matrices of a call below
    ``ROUND_ROBIN_MIN_N`` as one (b, n, n) array, and each larger one
    alone, and does each member's entries the operations of a 2-D check:
    ``jacobi_eigh(M)`` is ``_jacobi_many([M])``.  A group
    of at least ``_STACK_MIN`` members below ``ROUND_ROBIN_MIN_N`` that
    need sweeps is swept as one stack, one rotation (p, q) across the
    stack per numpy step (``_stacked_sweep``).  A member's result is
    bit-identical to its own call because every entry of it gets the
    operations of the cyclic rotation, in the same order, and nothing of
    another member enters them:

    - theta, t, c and s are elementwise ufuncs over the stack, with the
      same roundings as the float operations of ``_cyclic_sweep``
      (``np.sqrt`` and ``math.sqrt`` are both correctly rounded, and
      copysign(1 / d, theta + 0.0) is copysign(1, theta) / d, with
      theta == 0 giving t = 1);
    - the rows, then the columns, are turned as c x - s y and s x + c y;
      a member whose pair skips keeps its rows and columns by selection,
      not by a c = 1, s = 0 rotation, which would turn a -0.0 into 0.0;
    - the threshold is the member's own JACOBI_TOL * norm, and the
      convergence test is the one a member alone gets, since one loop
      (``_converge``) tests stacks and single members alike: the
      off-norm is the dot product of the member's own raveled
      off-diagonal part (``_frobenius``), whatever stack it sits in; a
      member that passes leaves the stack, so its sweep count is its
      own, and the others sweep on in the stack, however few are left;
    - a member whose budget runs out gets the error of its own call, with
      the same message and the off-diagonal residual of its own swept B;
    - a member swept at a power-of-two scale (below) is swept in the
      stack at that scale and its eigenvalues scaled back, as alone.

    A finite matrix whose Frobenius norm overflows, or underflows to zero,
    is swept at an exact power-of-two scale and its eigenvalues scaled
    back (one beyond the float range comes back as +-inf).

    Raises InputError on an empty, ragged, non-square, non-symmetric or
    non-finite matrix, and NumericError (with the final off-diagonal
    residual attached) if ``JACOBI_MAX_SWEEPS`` sweeps do not converge.
    """
    return _sorted_pair(*_jacobi_many([matrix], True)[0])


def jacobi_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by Jacobi sweeps.

    The same sweeps as ``jacobi_eigh`` on B = A, with no eigenvector
    columns, so the result is ``jacobi_eigh(matrix)[0]`` bit for bit at
    about half the row work.  Raises as ``jacobi_eigh``.
    """
    return _sorted(_jacobi_many([matrix], False)[0][0])


def jacobi_eigh_many(matrices) -> list:
    """``[jacobi_eigh(M) for M in matrices]``, bit for bit.

    Same-size members below ``ROUND_ROBIN_MIN_N`` are swept together as
    stacks (see ``jacobi_eigh``).  Raises what the first member in input
    order whose own call raises would raise.
    """
    return [_sorted_pair(vals, B) for vals, B in _jacobi_many(matrices, True)]


def jacobi_eigvalsh_many(matrices) -> list:
    """``[jacobi_eigvalsh(M) for M in matrices]``, bit for bit, swept as
    ``jacobi_eigh_many`` sweeps them."""
    return [_sorted(vals) for vals, _ in _jacobi_many(matrices, False)]


def _sorted(vals):
    return vals[np.argsort(vals, kind="stable")]


def _sorted_pair(vals, B):
    V = B[:, len(vals):].T.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def _jacobi_many(matrices, vectors):
    """(eigenvalues in diagonal order, B) of each matrix, bit for bit as its
    own call gives them; B is the swept [A | V^T] when ``vectors`` is true
    and the swept A otherwise.

    Each matrix's shape is checked on its own.  The matrices of one size
    below ROUND_ROBIN_MIN_N form a group, and from there on, where no
    member is stacked, each matrix is a group of its own; ``_prepare``
    prepares each group as one stack.  A member with n = 1 or a zero norm
    is returned unswept; the others of a group go to ``_converge`` as one
    stack swept in lockstep when there are at least ``_STACK_MIN`` of them,
    and one at a time, each a stack of one, otherwise.  Errors are raised
    in input order, so the first member whose own call raises raises here.
    """
    out, groups = [], {}
    for matrix in matrices:
        try:
            M = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError) as err:  # ragged or non-numeric
            out.append(InputError(f"matrix is not a numeric array: {err}"))
            continue
        n = len(M) if M.ndim else 0
        if n == 0 or M.shape != (n, n):
            out.append(InputError(f"matrix must be square and non-empty, "
                                  f"got shape {M.shape}"))
            continue
        key = (n, len(out) if n >= ROUND_ROBIN_MIN_N else 0)
        groups.setdefault(key, []).append(len(out))
        out.append(M)
    for (n, _), ids in groups.items():
        # results starts as the InputErrors, None where a member passed
        A, norms, shifts, results = _prepare(np.array([out[i] for i in ids]))
        B = np.concatenate([A, np.eye(n)[None].repeat(len(A), 0)], axis=2) \
            if vectors else A
        todo = [j for j, norm in enumerate(norms)
                if norm and n > 1 and results[j] is None]
        tol = [JACOBI_TOL * norms[j] for j in todo]
        if len(todo) >= _STACK_MIN:
            swept = _converge(B[todo], tol, _stacked_sweep)
        else:
            swept = [_converge(B[j:j + 1], [t], _sweep_alone(B[j], t))[0]
                     for j, t in zip(todo, tol)]
        for j, res in zip(todo, swept):
            if shifts[j] and not isinstance(res, NumericError):
                res = np.ldexp(res[0], shifts[j]), res[1]
            results[j] = res
        for j, i in enumerate(ids):
            # a member with n = 1 or a zero norm is returned unswept
            out[i] = results[j] or (np.ldexp(A[j].diagonal(), shifts[j])
                                    if n == 1 else np.zeros(n), B[j])
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out


def _prepare(S):
    """Validate, symmetrize, scale and take the norm of every member of
    the (b, n, n) stack S, which it may overwrite.

    Returns ``(A, norms, shifts, errors)``: the symmetrized members, each
    at the power-of-two scale 2**-shift it is swept at, their Frobenius
    norms, and a list of the InputError of each member that a check
    rejects (None for the others).  Each member's entries get the
    operations of a check of that member alone, and its norm is
    ``np.linalg.norm`` of its own A.
    """
    b, n = len(S), S.shape[1]
    absS = np.abs(S)
    amax = absS.max(axis=(1, 2)).tolist()
    errors = [None] * b
    for j in [j for j, x in enumerate(amax) if not isfinite(x)]:
        errors[j] = InputError("matrix has non-finite entries")
        S[j] = absS[j] = amax[j] = 0.0  # so that no inf - inf warns below
    ST = S.transpose(0, 2, 1)
    # np.allclose(M, M.T, atol) of each finite member, without its overhead
    atol = np.array([1e-12 * max(1.0, x) for x in amax]).reshape(b, 1, 1)
    close = np.abs(S - ST) <= atol + 1e-5 * absS.transpose(0, 2, 1)
    if not close.all():
        for j in np.flatnonzero(~close.all(axis=(1, 2))):
            errors[j] = InputError("matrix is not symmetric")
    # The Frobenius norm's sum of squares can overflow only when
    # n * max|a| > 2**512, and underflow to zero only when max|a| < 2**-511.
    # Where it does either, the member is swept at a power-of-two scale,
    # which is exact, with its largest entry in [0.5, 1), and its
    # eigenvalues are scaled back; every other member is swept as given.
    # A member rejected as not symmetric is scaled too, so that no A below
    # overflows.
    shifts = [0] * b
    for j, x in enumerate(amax):
        if x > 2.0 ** 511 / n or 0.0 < x < 2.0 ** -511:
            with np.errstate(over="ignore", under="ignore"):
                norm = np.linalg.norm(0.5 * (S[j] + ST[j]))
            if np.isinf(norm) or norm == 0.0:
                shifts[j] = frexp(x)[1]
                S[j] = np.ldexp(S[j], -shifts[j])
    A = 0.5 * (S + ST)
    return A, _frobenius(A), shifts, errors


def _frobenius(X):
    """The Frobenius norm of each member of the stack X, as a list of
    floats, bit for bit as ``np.linalg.norm`` takes it: its sum is the dot
    product of the raveled member, which matmul takes for each member of a
    stack of row-by-column products, and both square roots are correctly
    rounded.  Every norm and off-norm of the sweeps is taken here."""
    F = X.reshape(len(X), 1, -1)
    return [sqrt(s) for s in (F @ F.transpose(0, 2, 1)).ravel().tolist()]


@lru_cache(maxsize=32)
def _off_diagonal(n):
    """1 - I as a read-only (1, n, n) stack of one: the mask that keeps the
    off-diagonal entries of each member; the masks of the last 32 sizes are
    kept."""
    mask = 1.0 - np.eye(n)[None]
    mask.flags.writeable = False
    return mask


def _converge(X, tol, sweep):
    """Sweep the (b, n, w) stack X of prepared members with ``sweep`` until
    the off-diagonal norm of each member's A block is at most its
    threshold in ``tol`` (JACOBI_TOL times its Frobenius norm), testing
    before each of at most JACOBI_MAX_SWEEPS sweeps and after the last.

    ``sweep(X)`` sweeps every member of X in place.  A member that passes
    leaves the stack, so its sweep count is its own, and the others sweep
    on, however few are left.  Returns one (eigenvalues in diagonal order,
    B) per member, or the NumericError of a member whose budget runs out,
    with the off-norm of its swept B as ``residual``.
    """
    n, mask = X.shape[1], _off_diagonal(X.shape[1])
    out, at = [None] * len(X), list(range(len(X)))
    A = X[:, :, :n]
    for sweeps in range(JACOBI_MAX_SWEEPS + 1):
        # x * 1 is x, and x * 0 squares to what x - x squares to (0, or nan
        # where x is not finite): the norm of A - diag(A), bit for bit
        off = _frobenius(A * mask)
        done = [x <= t for x, t in zip(off, tol)]
        if True in done:
            keep = []
            for j, member_done in enumerate(done):
                if member_done:
                    out[at[j]] = X[j].diagonal().copy(), X[j]
                else:
                    keep.append(j)
            if not keep:
                return out
            X, tol, at = X[keep], [tol[j] for j in keep], [at[j] for j in keep]
            off = [off[j] for j in keep]
            A = X[:, :, :n]
        if sweeps < JACOBI_MAX_SWEEPS:
            sweep(X)
    for i, residual in zip(at, off):
        out[i] = NumericError(f"Jacobi eigensolver did not converge in "
                              f"{JACOBI_MAX_SWEEPS} sweeps", residual=residual)
    return out


def _sweep_alone(B, tol):
    """The ``sweep`` of ``_converge`` for the stack of one member B, whose
    convergence threshold is ``tol``: round-robin from ``ROUND_ROBIN_MIN_N``
    on, leaving the pairs with |a_pq| <= tol / n, and cyclic below it on
    B's rows held as lists across sweeps, written back after each sweep."""
    if len(B) >= ROUND_ROBIN_MIN_N:
        layout, small = _paired_layout(len(B)), tol / len(B)
        return lambda X: _round_robin_sweep(X[0], layout, small)
    rows = B.tolist()

    def sweep(X):
        _cyclic_sweep(rows)
        X[0] = rows
    return sweep


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


# Fewest same-size members swept as one stack; a smaller group is swept a
# member at a time, which costs less below about this count.
_STACK_MIN = 4


def _stacked_sweep(X):
    """One cyclic sweep, in place, of every member of the (b, n, w) stack
    X, whose first n columns are A: one rotation (p, q) across the stack
    per step, in ``_cyclic_sweep``'s order and with its IEEE operations.

    t is copysign(1 / (|theta| + sqrt(theta^2 + 1)), theta + 0.0): the
    sign of a division by a positive number is exact, and + 0.0 makes a
    -0.0 theta +0.0, so theta == 0 gives ``_cyclic_sweep``'s t = 1.0.  A
    member whose pair skips keeps its rows and columns by selection, not
    by a c = 1, s = 0 rotation, since x - 0 * y turns -0.0 into 0.0; then
    its a_pq and a_qp are set to 0.0.  Its theta may be inf or nan, with
    the warnings off once for the whole sweep; it is never used.
    """
    n = X.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in range(n - 1):
            rp, cp = X[:, p], X[:, :, p]
            for q in range(p + 1, n):
                rq, cq = X[:, q], X[:, :, q]
                apq, app, aqq = rp[:, q], rp[:, p], rq[:, q]
                skip = np.abs(apq) <= np.maximum(
                    1e-300, 1e-20 * (np.abs(app) + np.abs(aqq)))
                theta = (aqq - app) / (2.0 * apq)
                t = np.copysign(1.0 / (np.abs(theta)
                                       + np.sqrt(theta * theta + 1.0)),
                                theta + 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = (t * c)[:, None]
                c = c[:, None]
                turn = ~skip[:, None] if skip.any() else True
                _turn(rp, rq, c, s, turn)
                _turn(cp, cq, c, s, turn)
                if turn is not True:
                    apq[skip] = 0.0
                    X[:, q, p][skip] = 0.0


def _turn(x, y, c, s, where):
    """x, y <- c x - s y, s x + c y, in place, where ``where`` holds."""
    new_x, new_y = c * x - s * y, s * x + c * y
    np.copyto(x, new_x, where=where)
    np.copyto(y, new_y, where=where)


def _paired_layout(n: int):
    """The paired-halves layout of a round-robin sweep of an n x n matrix.

    Returns ``(start, inv, flip, dest)``.  The sweep keeps its rows and
    columns at positions 0..m-1, m = n + n % 2 (odd n adds a zero dummy
    index n), where positions k and half + k hold the k-th pair of every
    round.  ``start[k]`` is the index at position k at the start of a sweep
    and ``inv`` its inverse.  Round 0 pairs k with m - 1 - k, as the circle
    method does, and each round moves every position by the same ring
    shift, so a sweep visits Brent & Luk's rounds in order and is back at
    ``start`` after m - 1 rounds.  ``flip[r, k]`` is true where round r
    holds the larger index of pair k in its top slot k, and ``dest[k]`` is
    the position the entry at position k moves to for the next round.
    """
    m = n + n % 2
    half = m // 2
    # The identity rotation (c = 1, s = 0) moves each slot as a round does,
    # so the shift is read off the sweep's own move rather than restated.
    came_from = np.arange(m, dtype=float)[:, None]
    _pair_rotation(came_from, np.ones(half), np.zeros(half))()
    shift = came_from[:, 0].astype(int)
    start = np.concatenate([np.arange(half), np.arange(m - 1, half - 1, -1)])
    rounds = [start]
    for _ in range(m - 2):
        rounds.append(rounds[-1][shift])
    rounds = np.array(rounds)
    flip = rounds[:, :half] > rounds[:, half:]
    return start, np.argsort(start), flip, np.argsort(shift)


def _round_robin_sweep(B: np.ndarray, layout, small: float):
    """One round-robin sweep of B = [A | V^T], or B = A, in place.

    B is swept in the paired-halves layout of ``_paired_layout(len(B))``
    and put back in index order at the end; see jacobi_eigh for why each
    entry gets the IEEE operations of the cyclic rotation of its pair.
    A pair with |a_pq| <= ``small`` turns by the identity, as a skipped
    pair does, but keeps its a_pq: only the skip test zeroes an entry.
    """
    start, inv, flip, dest = layout
    n, m, half = len(B), len(start), len(start) // 2
    X = np.zeros((m, m + B.shape[1] - n))
    X[:n, :n], X[:n, m:] = B[:, :n], B[:, n:]
    X = X[start]
    X[:, :m] = X[:, start]
    A, AT = X[:, :m], np.empty((m, m))
    diag, upper, lower = A.diagonal(), A.diagonal(half), A.diagonal(-half)
    a_top, a_bot = diag[:half], diag[half:]
    abs_diag = np.empty(m)
    abs_top, abs_bot = abs_diag[:half], abs_diag[half:]
    # Where the top slot holds q, theta < cut is theta <= 0, and a skipped
    # pair's theta is -inf in place of +inf: see jacobi_eigh.
    cut = np.where(flip, np.nextafter(0.0, 1.0), 0.0)
    skipped = np.where(flip, -np.inf, np.inf)
    c, s = np.empty(half), np.empty(half)
    rotate_rows = _pair_rotation(X, c, s)
    # the columns of A turn as the rows of a contiguous A^T
    rotate_cols = _pair_rotation(AT, c, s)
    for r in range(m - 1):
        # a_pq is read above the diagonal: A is not bitwise symmetric
        apq = np.where(flip[r], lower, upper)
        # |a_pq| <= 1e-300 or |a_pq| <= 1e-20 (|a_pp| + |a_qq|)
        np.abs(diag, out=abs_diag)
        abs_apq = np.abs(apq)
        skip = abs_apq <= np.maximum(1e-300, 1e-20 * (abs_top + abs_bot))
        # below the threshold a pair turns by the identity, a_pq kept
        idle = skip | (abs_apq <= small)
        theta = np.where(idle, skipped[r], (a_bot - a_top)
                         / (2.0 * np.where(idle, 1.0, apq)))
        # hypot(theta, 1) cannot overflow, so no asymptotic branch is needed
        t = np.where(theta < cut[r], -1.0, 1.0) / (np.abs(theta)
                                                   + np.hypot(theta, 1.0))
        np.divide(1.0, np.sqrt(t * t + 1.0), out=c)
        np.multiply(t, c, out=s)
        rotate_rows()
        np.copyto(AT, A.T)
        rotate_cols()
        np.copyto(A, AT.T)
        # for odd n the dummy pair always skips; its entries stay 0.0
        if np.count_nonzero(skip) > m - n:
            top, bot = dest[:half][skip], dest[half:][skip]
            X[top, bot] = X[bot, top] = 0.0
    X = X[inv]
    X[:, :m] = X[:, inv]
    B[:, :n], B[:, n:] = X[:n, :n], X[:n, m:]


def _pair_rotation(M: np.ndarray, c: np.ndarray, s: np.ndarray):
    """A function that turns each row pair (k, half + k) of the contiguous
    array M by whatever (c[k], s[k]) then hold, and writes the new rows at
    their next-round positions, in place.

    The top row becomes c x - s y and the bottom one s x + c y.  c and s
    are copied out over the rows first, so that every product is of two
    contiguous arrays of one shape, which costs about a third less than
    broadcasting c over a row.  The ring shift: top slot 0 stays, top slot
    1 moves to position half, the other top slots move up one place, the
    last bottom slot moves to position half - 1 and the other bottom slots
    move down one place.  Every view is taken once, here.
    """
    half = len(c)
    C, S, P1, P2, P3, P4 = (np.empty((half, M.shape[1])) for _ in range(6))
    top, bot = M[:half], M[half:]
    c_rows, s_rows = c[:, None], s[:, None]
    moves = ((np.subtract, P1[:1], P2[:1], M[:1]),
             (np.subtract, P1[1:2], P2[1:2], M[half:half + 1]),
             (np.subtract, P1[2:], P2[2:], M[1:half - 1]),
             (np.add, P3[-1:], P4[-1:], M[half - 1:half]),
             (np.add, P3[:-1], P4[:-1], M[half + 1:]))

    def rotate():
        np.copyto(C, c_rows)
        np.copyto(S, s_rows)
        np.multiply(C, top, out=P1)
        np.multiply(S, bot, out=P2)
        np.multiply(S, top, out=P3)
        np.multiply(C, bot, out=P4)
        for op, x, y, out in moves:
            op(x, y, out=out)
    return rotate


def spectral_norm_sym(matrix: np.ndarray) -> float:
    """Spectral norm of a (symmetrized) matrix via its eigenvalues."""
    A = np.asarray(matrix, dtype=float)
    A = 0.5 * (A + A.T)
    # LAPACK is fine here: operator norms are plumbing, not a studied spectrum
    return float(np.abs(np.linalg.eigvalsh(A)).max())
