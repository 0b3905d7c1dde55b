"""The Jacobi eigensolver on both of its orders: cyclic below
ROUND_ROBIN_MIN_N and round-robin from there on."""

import numpy as np
import pytest

from nplab import linalg
from nplab.errors import InputError, NumericError
from nplab.kernels import KernelSpec, kernel_matrix
from nplab.linalg import ROUND_ROBIN_MIN_N, jacobi_eigh
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


@pytest.mark.parametrize("n", [32, 33, 64])
def test_round_robin_pairs_cover_every_pair_once(n):
    rounds = linalg._round_robin_pairs(n)
    assert len(rounds) == n - 1 + n % 2
    pairs = []
    for P, Q in rounds:
        assert np.all(P < Q) and np.all(Q < n)
        assert len(set(P) | set(Q)) == 2 * len(P)  # disjoint within a round
        pairs += list(zip(P.tolist(), Q.tolist()))
    assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_eig_family_closed_form_at_n64():
    kappa = 16.0
    for t in (0.0, 0.3, 1.0 - 1.0 / kappa):
        member = eig_family(kappa, 64, t)
        vals, V = jacobi_eigh(member.matrix)
        want = np.sort(np.concatenate([[member.mu1], np.ones(63)]))
        assert np.max(np.abs(vals - want)) <= 1e-10
        # a simple moving eigenvalue has v1 as its eigenvector, up to sign
        j = int(np.argmin(np.abs(vals - member.mu1)))
        if abs(member.mu1 - 1.0) > 1e-3:
            assert abs(abs(V[:, j] @ member.v1) - 1.0) <= 1e-10


def test_circulant_closed_form_at_n64():
    n = 64
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


def test_sweep_budget_exhausted_at_n64():
    with pytest.raises(NumericError) as info:
        jacobi_eigh(rbf_gram(64, seed=0), max_sweeps=1)
    assert info.value.residual is not None and info.value.residual > 0.0


def test_large_n_input_errors():
    with pytest.raises(InputError):
        jacobi_eigh(np.zeros((64, 63)))
    A = random_symmetric(64, seed=1)
    A[0, 1] += 1e-3
    with pytest.raises(InputError):
        jacobi_eigh(A)
