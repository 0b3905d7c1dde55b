"""The Jacobi eigensolver on both of its orders: cyclic below
ROUND_ROBIN_MIN_N and round-robin from there on."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nplab import linalg
from nplab.errors import InputError, NumericError
from nplab.kernels import KernelSpec, kernel_matrix
from nplab.linalg import (ROUND_ROBIN_MIN_N, jacobi_eigh, jacobi_eigh_many,
                          jacobi_eigvalsh, jacobi_eigvalsh_many)
from nplab.tnp import eig_family

RBF = KernelSpec(family="rbf")


def rbf_gram(n, seed):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(0.3 + rng.uniform(0.0, 0.4, n)).reshape(-1, 1)
    return kernel_matrix(RBF, xs) + 1e-10 * np.eye(n)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    return B + B.T


def low_rank_psd(n, seed):
    """The shape latent.cov_rank factors: a rank-k latent covariance
    Phi S Phi^T + sigma2 I with the noise sigma2 I taken off again."""
    rng = np.random.default_rng(seed)
    k = 1 + seed % (n - 1)
    xs = rng.uniform(-3, 3, n)
    Phi = np.sin(np.outer(xs, rng.uniform(0.5, 2.5, k)) + 1.0)
    B = rng.normal(size=(k, k))
    sigma2 = float(rng.uniform(0.0, 0.5))
    return (Phi @ (B @ B.T) @ Phi.T + sigma2 * np.eye(n)) - sigma2 * np.eye(n)


def equal_diagonal(n, seed):
    """Every first rotation of a sweep meets a_pp == a_qq: theta == 0."""
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.1, 1.0, (n, n))
    A = B + B.T
    np.fill_diagonal(A, 3.0)
    return A


def equal_diagonal_matching(n, seed):
    """One diagonal value and off-diagonal entries on a random matching
    only.  Every other pair skips, so each matched pair still has
    a_pp == a_qq (theta == 0) when it first meets, whichever of p and q
    the round-robin order holds first."""
    rng = np.random.default_rng(seed)
    A = 3.0 * np.eye(n)
    p, q = rng.permutation(n)[:2 * (n // 2)].reshape(2, -1)
    A[p, q] = A[q, p] = rng.uniform(0.1, 1.0, n // 2)
    return A


def signed_zeros(n, seed):
    """Zeros of both signs, mirrored, and one or two rotations to do.

    Nearly every pair skips, and the rows it turns hold -0.0 and 0.0, so
    the result keeps the sign of a zero only if each skipped pair is
    turned with the sign of s that its cyclic rotation uses."""
    rng = np.random.default_rng(seed)
    negative = rng.uniform(size=(n, n)) < 0.5
    A = np.where(negative & negative.T, -0.0, 0.0)
    k = min(n // 2, max(1, n // 32))
    p, q = rng.permutation(n)[:2 * k].reshape(2, -1)
    A[p, q] = A[q, p] = rng.normal(size=k)
    np.fill_diagonal(A, np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0))
    return A


def near_skip_threshold(n, seed):
    """Off-diagonal entries on both sides of the skip test
    |a_pq| <= 1e-20 (|a_pp| + |a_qq|), and some below its 1e-300 floor.

    An entry just above the test gives the largest |theta| a rotation can
    meet, about 5e19: behind the skip test |theta| <= (|a_pp| + |a_qq|) /
    (2 |a_pq|) < 5e19, so the |theta| > 1e100 branch is never reached."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 2.0, n)
    A = np.diag(d)
    scale = np.add.outer(d, d)
    factor = rng.choice([0.5, 0.999, 1.0, 1.001, 4.0], size=(n, n))
    off = 1e-20 * scale * factor
    off[rng.uniform(size=(n, n)) < 0.2] = 1e-301
    off[rng.uniform(size=(n, n)) < 0.2] = 0.3  # a few real rotations
    off = np.triu(off, 1)
    return A + off + off.T


def _reference_cyclic_eigh(matrix, tol=linalg.JACOBI_TOL,
                           max_sweeps=linalg.JACOBI_MAX_SWEEPS):
    """The cyclic Jacobi loop as it was written on numpy arrays, one
    rotation at a time: the oracle jacobi_eigh must match bit for bit below
    ROUND_ROBIN_MIN_N."""
    A = np.array(matrix, dtype=float)
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    V = np.eye(n)
    norm = np.linalg.norm(A)
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
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > 1e100:
                    t = 0.5 / theta
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta)
                                          + np.sqrt(theta * theta + 1.0))
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
        # the budget is spent: the last sweep may still have converged A
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        if not off <= tol * norm:
            raise NumericError("reference loop did not converge")
    eigvals = A.diagonal().copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], V[:, order]


def _circle_rounds(n):
    """The rounds of one round-robin sweep as (P, Q) index arrays, P < Q,
    by the circle method: index 0 stays put and the other m - 1 indices
    turn one place per round, so every pair meets exactly once in m - 1
    rounds.  For odd n, m = n + 1 and the pair holding the dummy index n is
    dropped."""
    m = n + n % 2
    half = m // 2
    r = np.arange(m - 1)[:, None]
    seat = np.arange(m)[None, :]
    order = np.where(seat == 0, 0, 1 + (seat - 1 + r) % (m - 1))
    left, right = order[:, :half], order[:, ::-1][:, :half]
    P, Q = np.minimum(left, right), np.maximum(left, right)
    keep = Q < n
    return [(p[k], q[k]) for p, q, k in zip(P, Q, keep)]


def _reference_round_robin_eigh(matrix, tol=linalg.JACOBI_TOL,
                                max_sweeps=linalg.JACOBI_MAX_SWEEPS):
    """The round-robin loop as it was written with V kept apart from A:
    each round rotates the paired rows and columns of A and then the
    paired columns of V.  A pair with |a_pq| <= tol ||A||_F / n turns by
    the identity and keeps its a_pq.  jacobi_eigh, which turns V^T as
    extra columns of A's rows, must match it bit for bit from
    ROUND_ROBIN_MIN_N on."""
    A = np.array(matrix, dtype=float)
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    V = np.eye(n)
    norm = np.linalg.norm(A)
    rounds = _circle_rounds(n)
    for _ in range(max_sweeps):
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        if off <= tol * norm:
            break
        for P, Q in rounds:
            apq = A[P, Q]
            app, aqq = A[P, P], A[Q, Q]
            skip = (np.abs(apq) <= 1e-300) | \
                (np.abs(apq) <= 1e-20 * (np.abs(app) + np.abs(aqq)))
            idle = skip | (np.abs(apq) <= tol * norm / n)
            theta = (aqq - app) / (2.0 * np.where(idle, 1.0, apq))
            t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta)
                                                    + np.hypot(theta, 1.0))
            c = np.where(idle, 1.0, 1.0 / np.sqrt(t * t + 1.0))
            s = np.where(idle, 0.0, t * c)
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
    else:
        # the budget is spent: the last sweep may still have converged A
        off = np.linalg.norm(A - np.diag(A.diagonal()))
        if not off <= tol * norm:
            raise NumericError("reference loop did not converge",
                               residual=float(off))
    eigvals = A.diagonal().copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], V[:, order]


@pytest.mark.parametrize("n", range(2, ROUND_ROBIN_MIN_N))
@pytest.mark.parametrize("make", [rbf_gram, random_symmetric, low_rank_psd,
                                  equal_diagonal, near_skip_threshold])
def test_cyclic_matches_reference_bit_for_bit(n, make):
    A = make(n, seed=n)
    vals, V = jacobi_eigh(A)
    want_vals, want_V = _reference_cyclic_eigh(A)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(V, want_V)
    assert V.strides == want_V.strides


def same_bits(a, b):
    """Equal values and equal signs, so -0.0 and 0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


@pytest.mark.parametrize("n", [32, 33, 47, 63, 64])
@pytest.mark.parametrize("make", [rbf_gram, random_symmetric, low_rank_psd,
                                  equal_diagonal, equal_diagonal_matching,
                                  signed_zeros, near_skip_threshold])
def test_round_robin_matches_reference_bit_for_bit(n, make):
    # equal_diagonal_matching meets theta == 0 both in rounds that hold p
    # first and in rounds that hold q first
    A = make(n, seed=n)
    vals, V = jacobi_eigh(A)
    want_vals, want_V = _reference_round_robin_eigh(A)
    assert same_bits(vals, want_vals)
    assert same_bits(V, want_V)
    # the same memory layout too, so BLAS products with V round the same
    assert V.strides == want_V.strides


@pytest.mark.parametrize("n", list(range(1, 34)) + [64])
@pytest.mark.parametrize("make", [rbf_gram, random_symmetric, low_rank_psd,
                                  equal_diagonal, equal_diagonal_matching,
                                  signed_zeros, near_skip_threshold])
def test_eigvalsh_is_eigh_values_bit_for_bit(n, make):
    # a rank-k latent covariance needs n >= 2; at n = 1 take its 1 x 1 form
    A = make(n, seed=n) if n > 1 or make is not low_rank_psd else \
        low_rank_psd(2, seed=1)[:1, :1]
    assert same_bits(jacobi_eigvalsh(A), jacobi_eigh(A)[0])


@pytest.mark.parametrize("n", [33, 64])
def test_round_robin_budget_residual_matches_reference(n, monkeypatch):
    # the off-norm after one sweep, taken in index order on the unpadded A
    A = random_symmetric(n, seed=3)
    with pytest.raises(NumericError) as want:
        _reference_round_robin_eigh(A, max_sweeps=1)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    for solve in (jacobi_eigh, jacobi_eigvalsh):
        with pytest.raises(NumericError) as got:
            solve(A)
        assert got.value.residual == want.value.residual


@pytest.mark.parametrize("A", [
    pytest.param(np.array([[1.0, 1e300], [1e300, 1.0]]), id="overflow"),
    pytest.param(random_symmetric(40, seed=4) * 1e300, id="overflow-40"),
    pytest.param(random_symmetric(5, seed=6) * 2.0 ** -700, id="underflow"),
    pytest.param(random_symmetric(40, seed=6) * 2.0 ** -700,
                 id="underflow-40"),
    pytest.param(np.zeros((5, 5)), id="zero"),
    pytest.param(np.zeros((ROUND_ROBIN_MIN_N, ROUND_ROBIN_MIN_N)),
                 id="zero-32"),
    pytest.param(np.array([[np.finfo(float).max]]), id="1x1-max"),
    pytest.param(np.array([[-5e-324]]), id="1x1-subnormal"),
    pytest.param(np.array([[2.0 ** -600]]), id="1x1-scaled")])
def test_eigvalsh_early_exits_match_eigh(A):
    res = jacobi_eigh(A)
    assert type(res) is tuple and len(res) == 2
    assert np.array_equal(jacobi_eigvalsh(A), res[0])


@pytest.mark.parametrize("n", [3, 64])
def test_eigvalsh_budget_exhausted_like_eigh(n, monkeypatch):
    A = random_symmetric(n, seed=3)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericError) as vecs:
        jacobi_eigh(A)
    with pytest.raises(NumericError) as vals:
        jacobi_eigvalsh(A)
    assert vals.value.residual is not None and vals.value.residual > 0.0
    assert vals.value.residual == vecs.value.residual
    assert str(vals.value) == str(vecs.value)


@pytest.mark.parametrize("A", [
    pytest.param(np.array([[3.0]]), id="1x1"),
    pytest.param(np.zeros((4, 4)), id="zero"),
    pytest.param(np.diag([2.0, 1.0, 3.0]), id="converged-at-once"),
    pytest.param(random_symmetric(6, seed=1), id="cyclic"),
    pytest.param(random_symmetric(40, seed=1), id="round-robin"),
    pytest.param(random_symmetric(6, seed=1) * 2.0 ** -700, id="scaled")])
def test_eigh_returns_values_and_vectors_on_every_exit(A):
    res = jacobi_eigh(A)
    assert type(res) is tuple and len(res) == 2
    vals, V = res
    n = len(A)
    assert vals.shape == (n,) and V.shape == (n, n)


def test_reference_reaches_every_reachable_branch():
    # the families above do hit theta == 0 and both skip tests
    thetas, skips = [], 0
    for n in (2, 5, 9):
        for make in (equal_diagonal, near_skip_threshold):
            A = make(n, n)
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq, app, aqq = A[p, q], A[p, p], A[q, q]
                    if abs(apq) <= 1e-300 or \
                            abs(apq) <= 1e-20 * (abs(app) + abs(aqq)):
                        skips += 1
                    else:
                        thetas.append(abs((aqq - app) / (2.0 * apq)))
    assert skips > 0 and 0.0 in thetas and max(thetas) > 1e19


@pytest.mark.parametrize("n", [2, 3, 7])
def test_cyclic_budget_exhausted_matches_reference(n, monkeypatch):
    # one rotation diagonalizes a 2 x 2 matrix, so it exhausts only a
    # budget of no sweeps
    A = random_symmetric(n, seed=3)
    max_sweeps = 0 if n == 2 else 1
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", max_sweeps)
    with pytest.raises(NumericError) as info:
        jacobi_eigh(A)
    assert info.value.residual is not None and info.value.residual > 0.0
    with pytest.raises(NumericError):
        _reference_cyclic_eigh(A, max_sweeps=max_sweeps)


def test_last_allowed_sweep_that_converges_is_not_a_failure(stacked,
                                                          monkeypatch):
    # [[2, 1], [1, 3]] is diagonal to rounding (off-norm 2.5e-16) after its
    # one sweep: the test after the last allowed sweep lets it through, in
    # a single call, values only and in a stack alike
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    want = _reference_cyclic_eigh(A, max_sweeps=1)
    got = jacobi_eigh(A)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert same_bits(jacobi_eigvalsh(A), want[0])
    for vals, vecs in jacobi_eigh_many([A] * 4):
        assert same_bits(vals, want[0]) and same_bits(vecs, want[1])
    assert stacked == {"stacks": 1, "members": 4, "sweeps": 1}


@pytest.mark.parametrize("n", [31, 32, 33, 64])
@pytest.mark.parametrize("make", [rbf_gram, random_symmetric])
def test_large_n_matches_lapack(n, make):
    A = make(n, seed=n)
    vals, V = jacobi_eigh(A)
    norm = np.linalg.norm(A)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(A))) <= 1e-9 * norm
    assert np.linalg.norm(A @ V - V * vals) <= 1e-12 * norm
    assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-12 * norm


def mercer_gram(n):
    """latent.mercer's grid Gram: the degree-2 polynomial kernel on n
    points of [-1, 1], divided by n.  It has rank 3, so n - 3 of its
    eigenvalues form a cluster at rounding level."""
    spec = KernelSpec(family="polynomial", degree=2)
    return kernel_matrix(spec, np.linspace(-1.0, 1.0, n).reshape(-1, 1)) / n


@pytest.fixture
def sweeps(monkeypatch):
    """The sweeps made, one entry per sweep, counted through a wrapper of
    the sweep that ``_converge`` is given."""
    count = []
    converge = linalg._converge

    def counted_converge(X, tol, sweep):
        def counted(X):
            count.append(len(X))
            sweep(X)
        return converge(X, tol, counted)
    monkeypatch.setattr(linalg, "_converge", counted_converge)
    return count


def test_round_robin_leaves_the_rounding_cluster_alone(sweeps):
    # inside the 61-fold zero cluster a_pp, a_qq and a_pq are all rounding,
    # so the 1e-20 skip never fires there; without the tol / n threshold
    # those pairs turn by large angles and the matrix takes 15 sweeps
    A = mercer_gram(64)
    vals = jacobi_eigvalsh(A)
    assert 0 < len(sweeps) <= 5
    assert np.max(np.abs(vals - np.linalg.eigvalsh(A))) <= \
        1e-12 * np.linalg.norm(A)


@pytest.mark.parametrize("n", [32, 33, 47, 64])
def test_eigvalsh_is_eigh_values_where_the_threshold_fires(n, sweeps):
    # the rank-2 latent covariance has an (n - 2)-fold zero cluster, whose
    # pairs the threshold leaves; both forms sweep as often and give the
    # same bits
    A = low_rank_psd(n, seed=n)
    vals = jacobi_eigvalsh(A)
    n_sweeps = len(sweeps)
    assert same_bits(vals, jacobi_eigh(A)[0])
    assert len(sweeps) == 2 * n_sweeps


@pytest.mark.parametrize("A", [
    pytest.param(mercer_gram(64), id="mercer_gram"),
    pytest.param(low_rank_psd(64, seed=64), id="low_rank_psd")])
def test_threshold_budget_residual_matches_reference(A, monkeypatch):
    # max_sweeps = 1 still raises, with the off-norm that the reference
    # loop, threshold included, leaves after its one sweep
    with pytest.raises(NumericError) as want:
        _reference_round_robin_eigh(A, max_sweeps=1)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    for solve in (jacobi_eigh, jacobi_eigvalsh):
        with pytest.raises(NumericError) as got:
            solve(A)
        assert got.value.residual is not None
        assert got.value.residual == want.value.residual


@pytest.mark.parametrize("n", [32, 33, 64])
def test_paired_layout_visits_the_circle_rounds_in_order(n):
    start, inv, flip, dest = linalg._paired_layout(n)
    m = n + n % 2
    half = m // 2
    assert np.array_equal(start[inv], np.arange(m))
    rounds = _circle_rounds(n)
    assert len(rounds) == len(flip) == m - 1
    at = start  # the index held at each position
    pairs = []
    for r, (P, Q) in enumerate(rounds):
        top, bot = at[:half], at[half:]
        assert np.array_equal(flip[r], top > bot)
        lo, hi = np.minimum(top, bot), np.maximum(top, bot)
        keep = hi < n  # the dummy index n pairs with one index for odd n
        assert np.array_equal(lo[keep], P) and np.array_equal(hi[keep], Q)
        pairs += list(zip(P.tolist(), Q.tolist()))
        moved = np.empty_like(at)
        moved[dest] = at
        at = moved
    # a sweep ends where it started, so it is put back in order by inv
    assert np.array_equal(at, start)
    # and it meets every pair exactly once
    assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_eig_family_closed_form(n):
    kappa = 16.0
    for t in (0.0, 0.3, 1.0 - 1.0 / kappa):
        member = eig_family(kappa, n, t)
        vals, V = jacobi_eigh(member.matrix)
        want = np.sort(np.concatenate([[member.mu1], np.ones(n - 1)]))
        assert np.max(np.abs(vals - want)) <= 1e-10
        # a simple moving eigenvalue has v1 as its eigenvector, up to sign
        j = int(np.argmin(np.abs(vals - member.mu1)))
        if abs(member.mu1 - 1.0) > 1e-3:
            assert abs(abs(V[:, j] @ member.v1) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_circulant_closed_form(n):
    d = np.minimum(np.arange(n), n - np.arange(n)) * 0.25
    row = np.exp(-0.5 * d * d)
    C = np.array([np.roll(row, i) for i in range(n)])
    vals, _ = jacobi_eigh(C)
    want = np.sort(np.fft.fft(row).real)
    assert np.max(np.abs(vals - want)) <= 1e-10 * np.linalg.norm(C)


@pytest.mark.parametrize("n", [5, ROUND_ROBIN_MIN_N, 64])
def test_zero_matrix(n):
    vals, V = jacobi_eigh(np.zeros((n, n)))
    assert np.array_equal(vals, np.zeros(n))
    assert np.array_equal(V, np.eye(n))


@pytest.mark.parametrize("n", [5, ROUND_ROBIN_MIN_N, 64])
def test_diagonal_matrix_is_its_own_spectrum(n):
    d = np.random.default_rng(n).normal(size=n)
    vals, V = jacobi_eigh(np.diag(d))
    order = np.argsort(d, kind="stable")
    assert np.array_equal(vals, d[order])
    assert np.array_equal(V, np.eye(n)[:, order])


def test_sweep_budget_exhausted_at_n64(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericError) as info:
        jacobi_eigh(rbf_gram(64, seed=0))
    assert info.value.residual is not None and info.value.residual > 0.0


def test_large_n_input_errors():
    with pytest.raises(InputError):
        jacobi_eigh(np.zeros((64, 63)))
    A = random_symmetric(64, seed=1)
    A[0, 1] += 1e-3
    with pytest.raises(InputError):
        jacobi_eigh(A)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3, 1e9]),
       zero_partner=st.booleans(), sign=st.sampled_from([-1.0, 1.0]),
       steps=st.integers(-2, 2))
def test_symmetry_guard_decides_as_allclose(n, seed, scale, zero_partner,
                                            sign, steps):
    # one entry is moved off its mirror by the bound atol + 1e-5 |mirror|,
    # then a few floats either way; with a zero mirror, a_pq - 0.0 lands
    # exactly on the bound
    rng = np.random.default_rng(seed)
    U = rng.uniform(-scale, scale, (n, n))
    M = U + U.T
    M[0, 0] = 4.0 * scale  # the largest entry, so atol is known up front
    p, q = rng.choice(n, 2, replace=False)
    if zero_partner:
        M[q, p] = 0.0
    atol = 1e-12 * max(1.0, 4.0 * scale)
    a = M[q, p] + sign * (atol + 1e-5 * abs(M[q, p]))
    for _ in range(abs(steps)):
        a = np.nextafter(a, np.copysign(np.inf, steps))
    M[p, q] = a
    assume(np.abs(M).max() == 4.0 * scale)
    symmetric = np.allclose(M, M.T, atol=atol)
    try:
        jacobi_eigvalsh(M)
    except InputError:
        assert not symmetric
    else:
        assert symmetric


@pytest.mark.parametrize("bad", [
    pytest.param(np.zeros((0, 0)), id="0x0"),
    pytest.param(np.array(2.0), id="0-d"),
    pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
    pytest.param([["a", "b"], ["c", "d"]], id="strings")])
def test_malformed_input_is_input_error(bad):
    with pytest.raises(InputError):
        jacobi_eigh(bad)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_rejected(bad):
    A = np.eye(3)
    A[0, 1] = A[1, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        jacobi_eigh(A)


@pytest.mark.parametrize("big", [1e155, 1e200, 1e308, np.finfo(float).max])
def test_norm_overflow_is_scaled_exactly(big):
    # the sum of squares overflows; the matrix is swept at a power-of-two
    # scale, so the spectrum is the scaled-back one of [[s, 1], [1, s]]
    small = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, V = jacobi_eigh(np.array([[small, big], [big, small]]))
    e = int(np.frexp(big)[1])
    want_vals, want_V = jacobi_eigh(np.ldexp(np.array(
        [[small, big], [big, small]]), -e))
    assert np.array_equal(vals, np.ldexp(want_vals, e))
    assert np.array_equal(V, want_V)
    assert vals[0] == -vals[1] and vals[1] == pytest.approx(big, rel=1e-15)
    assert np.allclose(V.T @ V, np.eye(2), atol=1e-15)


def test_norm_overflow_at_larger_n():
    A = random_symmetric(40, seed=4) * 1e300
    vals, _ = jacobi_eigh(A)
    want = np.linalg.eigvalsh(A / 1e300) * 1e300
    assert np.max(np.abs(vals - want)) <= 1e-9 * np.abs(want).max()


def test_no_scaling_below_overflow():
    # large but representable: the sweep sees the matrix as given
    A = random_symmetric(6, seed=5) * 1e150
    vals, V = jacobi_eigh(A)
    want_vals, want_V = _reference_cyclic_eigh(A)
    assert np.array_equal(vals, want_vals) and np.array_equal(V, want_V)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_norm_underflow_is_scaled_exactly(n):
    # squares of 1e-200 underflow, so the Frobenius norm reads 0; the
    # spectrum is still the scaled-back one of the matrix at unit size
    A = random_symmetric(n, seed=6)
    vals, V = jacobi_eigh(A * 2.0 ** -700)
    want_vals, want_V = jacobi_eigh(A)
    assert np.array_equal(vals, want_vals * 2.0 ** -700)
    assert np.array_equal(V, want_V)


def test_one_by_one_at_the_float_limits():
    top = np.finfo(float).max
    assert jacobi_eigh([[top]])[0][0] == top
    assert jacobi_eigh([[-5e-324]])[0][0] == -5e-324


# -- stacks: jacobi_eigh_many and jacobi_eigvalsh_many ---------------------

GENERATORS = [rbf_gram, random_symmetric, low_rank_psd, equal_diagonal,
              equal_diagonal_matching, signed_zeros, near_skip_threshold]


def own_calls(solve, matrices):
    """[solve(M) for M in matrices], or the first exception it raises."""
    out = []
    for M in matrices:
        try:
            out.append(solve(M))
        except (InputError, NumericError) as err:
            return err
    return out


def assert_same_results(got, want, vectors):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if vectors:
            assert same_bits(g[0], w[0]) and same_bits(g[1], w[1])
            assert g[1].strides == w[1].strides
        else:
            assert same_bits(g, w)


@pytest.fixture
def stacked(monkeypatch):
    """Count the stacks formed (the ``_converge`` calls that sweep with
    ``_stacked_sweep``), the members they receive and the lockstep sweeps
    made, to know the stack was taken."""
    count = {"stacks": 0, "members": 0, "sweeps": 0}
    converge, stacked_sweep = linalg._converge, linalg._stacked_sweep

    def counted_converge(X, norms, sweep):
        if sweep is linalg._stacked_sweep:
            count["stacks"] += 1
            count["members"] += len(X)
        return converge(X, norms, sweep)

    def counted_sweep(X):
        count["sweeps"] += 1
        return stacked_sweep(X)

    monkeypatch.setattr(linalg, "_converge", counted_converge)
    monkeypatch.setattr(linalg, "_stacked_sweep", counted_sweep)
    return count


@pytest.mark.parametrize("n, tol", [
    (n, 1e-9) for n in (2, 3, 4, 5, 8, 16, 31)]
    # at tol inf every member leaves the stack at the first test, unswept
    + [(3, np.inf), (8, np.inf)])
@pytest.mark.parametrize("make", GENERATORS)
def test_stack_matches_own_calls_bit_for_bit(make, n, tol, monkeypatch,
                                             stacked):
    # at the default tolerance and at a looser one, which moves the sweep
    # at which each member leaves the stack
    matrices = [make(n, seed) for seed in range(n, n + 6)]
    for jacobi_tol in (linalg.JACOBI_TOL, tol):
        monkeypatch.setattr(linalg, "JACOBI_TOL", jacobi_tol)
        assert_same_results(jacobi_eigh_many(matrices),
                            own_calls(jacobi_eigh, matrices), vectors=True)
        assert_same_results(jacobi_eigvalsh_many(matrices),
                            own_calls(jacobi_eigvalsh, matrices),
                            vectors=False)
    assert stacked["stacks"] == 4


def off_norm_members(n, seed):
    """Members for the off-norm check: random, half their entries zero,
    and with -0.0 entries, each at the scales 1e-160, 1 and 1e150."""
    rng = np.random.default_rng(seed)
    members = []
    for scale in (1e-160, 1.0, 1e150):
        for kind in ("random", "half zero", "signed zeros"):
            for _ in range(16):
                M = rng.standard_normal((n, n)) * scale
                if kind != "random":
                    zero = rng.random((n, n)) < 0.5
                    M[zero] = -0.0 if kind == "signed zeros" else 0.0
                members.append(M)
    return np.array(members)


@pytest.mark.parametrize("n", list(range(2, 34)) + [64])
def test_stacked_off_norm_is_each_members_own(n):
    # the one Frobenius expression that decides convergence, on 144 members
    # per size (4752 in all): each member's off-norm and norm are
    # np.linalg.norm's, bit for bit, whatever stack the member sits in
    members = off_norm_members(n, seed=n)
    off = linalg._frobenius(members * linalg._off_diagonal(n))
    norms = linalg._frobenius(members)
    for M, got_off, got_norm in zip(members, off, norms):
        assert same_bits(got_off, np.linalg.norm(M - np.diag(np.diag(M))))
        assert same_bits(got_norm, np.linalg.norm(M))


def test_stack_stragglers_finish_on_their_own(stacked):
    # four diagonal members leave at the first test, and the two that need
    # sweeps go on in the stack: five lockstep sweeps for rbf_gram(5, 2)
    matrices = ([np.diag([1.0, -0.0, 3.0, 2.0, 5.0]) * k for k in (1, 2, 3, 4)]
                + [random_symmetric(5, 1), rbf_gram(5, 2)])
    assert_same_results(jacobi_eigh_many(matrices),
                        own_calls(jacobi_eigh, matrices), vectors=True)
    assert stacked == {"stacks": 1, "members": 6, "sweeps": 5}


@pytest.mark.parametrize("vectors", [True, False])
def test_stack_stragglers_keep_their_own_budget(vectors, stacked,
                                               monkeypatch):
    # rbf_gram(5, 2) converges at the test after its fifth sweep and
    # random_symmetric(5, 1) at the one after its fourth, so in the stack
    # they finish at max_sweeps = 5 and fail at 4 and 3 as their own calls
    # do, after 3 + 4 + 5 lockstep sweeps, and no member is swept on its own
    # (a lone member's cyclic sweep fails the test)
    many, own = ((jacobi_eigh_many, jacobi_eigh) if vectors
                 else (jacobi_eigvalsh_many, jacobi_eigvalsh))
    matrices = ([np.diag([1.0, 3.0, 2.0, 5.0, 4.0]) * k for k in (1, 2, 3, 4)]
                + [random_symmetric(5, 1), rbf_gram(5, 2)])
    wants = {}
    for max_sweeps in (3, 4, 5):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", max_sweeps)
        wants[max_sweeps] = own_calls(own, matrices)
    monkeypatch.setattr(linalg, "_cyclic_sweep",
                        lambda *args: pytest.fail("a member was swept alone"))
    for max_sweeps, want in wants.items():
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", max_sweeps)
        if isinstance(want, NumericError):
            with pytest.raises(NumericError) as got:
                many(matrices)
            assert str(got.value) == str(want)
            assert got.value.residual == want.residual
        else:
            assert max_sweeps == 5
            assert_same_results(many(matrices), want, vectors)
    assert stacked == {"stacks": 3, "members": 18, "sweeps": 12}


def mixed_list():
    """One stack of 5 x 5 members, with a 1 x 1, a 33 x 33, a member that
    needs the power-of-two scaling, a zero matrix and a lone 3 x 3 among
    them."""
    return ([random_symmetric(5, seed) for seed in range(4)]
            + [np.array([[2.0]]), random_symmetric(33, 1),
               random_symmetric(5, 9) * 2.0 ** -700, np.zeros((5, 5)),
               rbf_gram(5, 3), random_symmetric(3, 2),
               low_rank_psd(5, 4)])


@pytest.mark.parametrize("vectors", [True, False])
def test_stack_mixed_list_matches_own_calls(vectors, stacked):
    many, own = ((jacobi_eigh_many, jacobi_eigh) if vectors
                 else (jacobi_eigvalsh_many, jacobi_eigvalsh))
    matrices = mixed_list()
    assert_same_results(many(matrices), own_calls(own, matrices), vectors)
    # the eight 5 x 5 members but the zero one, the scaled one included
    assert stacked["stacks"] == 1 and stacked["members"] == 7


def edge_of_range():
    """Four 5 x 5 members at the edges of the float range, and one to
    spare: two swept at a power-of-two scale (the norm overflows, or
    underflows to zero) and two swept as given near those edges."""
    return [random_symmetric(5, 11) * 1e300, random_symmetric(5, 12) * 1e153,
            random_symmetric(5, 13) * 2.0 ** -700,
            random_symmetric(5, 14) * 1e-160, random_symmetric(5, 15)]


@pytest.mark.parametrize("vectors", [True, False])
def test_stack_sweeps_members_at_the_edges_of_the_range(vectors, stacked):
    many, own = ((jacobi_eigh_many, jacobi_eigh) if vectors
                 else (jacobi_eigvalsh_many, jacobi_eigvalsh))
    matrices = edge_of_range()
    with np.errstate(over="ignore", under="ignore"):
        norms = [np.linalg.norm(M) for M in matrices]
    amax = [np.abs(M).max() for M in matrices]
    # what makes each member the case it stands for
    assert np.isinf(norms[0]) and norms[2] == 0.0
    assert amax[1] > 2.0 ** 511 / 5 and np.isfinite(norms[1])
    assert amax[3] < 2.0 ** -511 and norms[3] > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = many(matrices)
    assert_same_results(got, own_calls(own, matrices), vectors)
    assert stacked["stacks"] == 1 and stacked["members"] == 5


def asymmetric():
    A = random_symmetric(5, 7)
    A[0, 1] += 1e-3
    return A


def non_finite():
    A = random_symmetric(5, 8)
    A[2, 3] = A[3, 2] = np.inf
    return A


@pytest.mark.parametrize("bad", [
    asymmetric, non_finite, lambda: [[1.0, 2.0], [3.0]],
    lambda: np.zeros((0, 0)), lambda: np.array(2.0),
    lambda: np.ones((5, 4)), lambda: np.stack([np.eye(5)] * 5)],
    ids=["asymmetric", "non-finite", "ragged", "0x0", "0-d", "non-square",
         "3-d"])
@pytest.mark.parametrize("numeric_first", [True, False])
@pytest.mark.parametrize("vectors", [True, False])
def test_stack_raises_the_first_failing_member(bad, numeric_first, vectors,
                                               monkeypatch):
    # with two sweeps the random 5 x 5 members fail and the diagonal ones
    # converge; the error raised is the first in input order, with its
    # own message and residual
    many, own = ((jacobi_eigh_many, jacobi_eigh) if vectors
                 else (jacobi_eigvalsh_many, jacobi_eigvalsh))
    diagonal = [np.diag([3.0, 1.0, 2.0, 5.0, 4.0]) * k for k in (1, 2, 3)]
    failing = [random_symmetric(5, seed) for seed in range(4)]
    matrices = diagonal + ([failing[0], bad()] if numeric_first
                           else [bad(), failing[0]]) + failing[1:]
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 2)
    want = own_calls(own, matrices)
    assert isinstance(want, NumericError if numeric_first else InputError)
    with pytest.raises(type(want)) as got:
        many(matrices)
    assert str(got.value) == str(want)
    assert getattr(got.value, "residual", None) == \
        getattr(want, "residual", None)


def test_stack_budget_residual_matches_own_call(stacked, monkeypatch):
    matrices = [random_symmetric(6, seed) for seed in range(6)]
    for max_sweeps in (0, 1, 3):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", max_sweeps)
        want = own_calls(jacobi_eigh, matrices)
        with pytest.raises(NumericError) as got:
            jacobi_eigh_many(matrices)
        assert str(got.value) == str(want)
        assert got.value.residual == want.residual
    assert stacked["stacks"] == 3 and stacked["sweeps"] == 4


def test_stack_takes_no_three_d_array_through_jacobi_eigh():
    with pytest.raises(InputError):
        jacobi_eigh(np.stack([np.eye(3)] * 4))
    assert jacobi_eigh_many([]) == [] and jacobi_eigvalsh_many([]) == []
