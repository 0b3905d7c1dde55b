import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab.errors import InputError
from nplab.kernels import (DEFAULT_JITTER_SCALE, KernelSpec, eval_kernel,
                           gram_spectra, gram_spectrum, kernel_matrix,
                           spectrum_of)
from nplab.linalg import jacobi_eigh

RBF = KernelSpec(family="rbf")


def char_poly_roots(M):
    """Independent eigenvalue oracle: characteristic polynomial by the
    Faddeev-LeVerrier recurrence, then companion-matrix roots."""
    n = M.shape[0]
    A = np.array(M, dtype=float)
    cs = [1.0]
    Bk = np.eye(n)
    for k in range(1, n + 1):
        ABk = A @ Bk
        ck = -np.trace(ABk) / k
        cs.append(ck)
        Bk = ABk + ck * np.eye(n)
    return np.roots(cs)


class TestEvalKernel:
    def test_rbf_diagonal(self):
        assert eval_kernel(RBF, 0.0, 0.0) == 1.0

    def test_rbf_closed_form(self):
        assert eval_kernel(RBF, 0.0, 2.0) == pytest.approx(np.exp(-2.0),
                                                           abs=1e-15)

    def test_matern_half_closed_form(self):
        spec = KernelSpec(family="matern")
        assert eval_kernel(spec, 0.0, 3.0) == pytest.approx(np.exp(-3.0),
                                                            abs=1e-15)

    def test_symmetry(self):
        for fam, kwargs in [("rbf", {}), ("matern", {}),
                            ("polynomial", {"degree": 2})]:
            spec = KernelSpec(family=fam, **kwargs)
            assert eval_kernel(spec, 0.3, 1.7) == pytest.approx(
                eval_kernel(spec, 1.7, 0.3), abs=1e-15)

    def test_scaled_factorization(self):
        amp = lambda p: 1.0 + 0.5 * np.sin(p[0])
        spec = KernelSpec(family="scaled", base=RBF, amplitude=amp)
        x, y = np.array([0.4]), np.array([-1.2])
        expected = amp(x) * amp(y) * eval_kernel(RBF, x, y)
        assert eval_kernel(spec, x, y) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            eval_kernel(RBF, [0.0, 1.0], [0.0])

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            KernelSpec(family="rbf", lengthscale=0.0)
        with pytest.raises(InputError):
            KernelSpec(family="nope")


class TestGramSpectrum:
    def test_two_point_closed_form(self):
        spec = KernelSpec(family="rbf", jitter=0.0)
        c = eval_kernel(spec, 0.0, 1.0)
        S = gram_spectrum(spec, [[0.0], [1.0]])
        assert S.eigenvalues == pytest.approx([1.0 - c, 1.0 + c], abs=1e-12)

    def test_far_apart_is_near_identity(self):
        S = gram_spectrum(KernelSpec(family="rbf", jitter=0.0),
                          [[0.0], [100.0], [200.0]])
        assert np.max(np.abs(S.eigenvalues - 1.0)) < 1e-6

    def test_kappa_vs_characteristic_polynomial(self):
        spec = KernelSpec(family="rbf", jitter=0.0)
        X = np.array([[0.0], [0.5], [1.0], [1.5]])
        S = gram_spectrum(spec, X)
        roots = np.sort(char_poly_roots(S.matrix).real)
        kappa_oracle = roots[-1] / roots[0]
        assert abs(S.kappa - kappa_oracle) / kappa_oracle < 1e-6

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, (7, 2))
        S = gram_spectrum(RBF, X)
        recon = (S.eigenvectors * S.eigenvalues) @ S.eigenvectors.T
        assert np.linalg.norm(recon - S.matrix) <= 1e-8 * np.linalg.norm(S.matrix)
        gram_v = S.eigenvectors.T @ S.eigenvectors
        assert np.max(np.abs(gram_v - np.eye(7))) < 1e-8

    def test_default_jitter_on_diagonal(self):
        S = gram_spectrum(RBF, [[0.0]])
        assert S.matrix[0, 0] == pytest.approx(1.0 + DEFAULT_JITTER_SCALE,
                                               abs=1e-16)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            gram_spectrum(RBF, [[np.nan]])

    def test_stacked_point_sets_rejected(self):
        # a Gram is of one point set; a (b, n, d) stack is named, not passed
        # on to the eigensolver
        with pytest.raises(InputError, match=r"\(2, 3, 1\)"):
            gram_spectrum(RBF, np.zeros((2, 3, 1)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6, unique=True),
       st.floats(-5, 5),
       st.sampled_from(["rbf", "matern"]))
def test_stationary_shift_invariance(xs, shift, family):
    spec = KernelSpec(family=family)
    X = np.array(xs).reshape(-1, 1)
    K1 = kernel_matrix(spec, X)
    K2 = kernel_matrix(spec, X + shift)
    assert np.max(np.abs(K1 - K2)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["rbf", "matern", "polynomial"]))
def test_gram_positive_definite_after_jitter(seed, family):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    X = rng.uniform(-2, 2, (n, 1))
    spec = KernelSpec(family=family, degree=2)
    S = gram_spectrum(spec, X)
    assert S.lambda_min > 0


def test_spectrum_of_matches_lapack():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(9, 9))
    A = A + A.T
    S = spectrum_of(A)
    ref = np.linalg.eigvalsh(A)
    assert np.max(np.abs(S.eigenvalues - ref)) < 1e-10


def test_jacobi_agrees_with_lapack_on_grams():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = rng.uniform(-3, 3, (8, 1))
        S = gram_spectrum(RBF, X)
        ref = np.linalg.eigvalsh(S.matrix)
        assert np.max(np.abs(S.eigenvalues - ref)) < 1e-9


def test_jacobi_rejects_asymmetric():
    with pytest.raises(InputError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_gram_spectra_match_gram_spectrum_bit_for_bit():
    # one stack of 4-point Grams, with a 3-point and a 40-point one
    rng = np.random.default_rng(2)
    specs = [KernelSpec(), KernelSpec(family="matern"),
             KernelSpec(family="matern", lengthscale=0.6)]
    entries = [(specs[i % 3], np.cumsum(0.3 + rng.uniform(0, 0.4, n))
                .reshape(-1, 1)) for i, n in enumerate([4] * 7 + [3, 40])]
    for got, (spec, X) in zip(gram_spectra(entries), entries):
        want = gram_spectrum(spec, X)
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
        assert got.eigenvectors.strides == want.eigenvectors.strides
    with pytest.raises(InputError):
        gram_spectra([(specs[0], [[0.0], [np.inf]])])


def test_gram_spectra_reject_stacked_point_sets():
    X = np.linspace(0.0, 1.0, 3).reshape(-1, 1)
    with pytest.raises(InputError, match=r"\(2, 3, 1\)"):
        gram_spectra([(RBF, X), (RBF, np.stack([X, X + 1.0]))])
