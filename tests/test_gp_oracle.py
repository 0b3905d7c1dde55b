import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab.errors import (DegenerateConfigurationError, InputError,
                          NumericError)
from nplab.gp_oracle import (_check_distinct, posterior_cov, posterior_mean,
                             posterior_weights, two_point_weight)
from nplab.kernels import (KernelSpec, cross_vector, eval_kernel,
                           gram_spectrum, kernel_matrix)

RBF = KernelSpec(family="rbf")


class TestPosteriorWeights:
    def test_given_spectrum_is_used_as_is(self, jacobi_calls):
        X = np.array([[0.0], [0.7], [1.9]])
        S = gram_spectrum(RBF, X)
        ref = posterior_weights(RBF, X, [0.4])
        jacobi_calls[:] = [0, 0]
        w = posterior_weights(RBF, X, [0.4], spectrum=S)
        assert jacobi_calls == [0, 0]
        assert np.array_equal(w, ref)

    def test_spectrum_of_other_size_rejected(self):
        S = gram_spectrum(RBF, [[0.0], [1.0]])
        with pytest.raises(InputError):
            posterior_weights(RBF, [[0.0], [1.0], [2.0]], [0.5], spectrum=S)

    def test_single_point_weight(self):
        # one context point: w = k(x_t, x_1) / k(x_1, x_1)
        w = posterior_weights(RBF, [[0.0]], [1.0])
        expected = eval_kernel(RBF, 1.0, 0.0) / (1.0 + RBF.jitter)
        assert w[0] == pytest.approx(expected, abs=1e-12)

    def test_interpolation_at_context(self):
        # jitter-free posterior mean reproduces observed values exactly
        spec = KernelSpec(family="rbf", jitter=0.0)
        X = np.array([[0.0], [0.7], [1.9]])
        y = np.array([1.0, -2.0, 0.5])
        for xi, yi in zip(X, y):
            assert posterior_mean(spec, X, y, xi) == pytest.approx(yi,
                                                                   abs=1e-9)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, (6, 2))
        x_t = np.array([0.1, -0.3])
        w = posterior_weights(RBF, X, x_t)
        K = kernel_matrix(RBF, X) + RBF.jitter * np.eye(6)
        ref = np.linalg.solve(K, cross_vector(RBF, X, x_t))
        assert np.max(np.abs(w - ref)) < 1e-10

    def test_singular_context_raises(self):
        with pytest.raises(NumericError):
            posterior_weights(KernelSpec(family="rbf", jitter=0.0),
                              [[0.0], [1e-9]], [0.5])


class TestTwoPointWeight:
    def test_against_generic_solve(self):
        x1, x2, x_t = np.array([0.0]), np.array([1.3]), np.array([0.4])
        spec = KernelSpec(family="rbf", jitter=0.0)
        w1, w2 = two_point_weight(spec, x1, x2, x_t)
        ref = posterior_weights(spec, np.vstack([x1, x2]), x_t)
        assert w1 == pytest.approx(ref[0], abs=1e-12)
        assert w2 == pytest.approx(ref[1], abs=1e-12)

    def test_symmetry_swap(self):
        spec = KernelSpec(family="matern")
        w1, w2 = two_point_weight(spec, 0.0, 2.0, 0.5)
        w1s, w2s = two_point_weight(spec, 2.0, 0.0, 0.5)
        assert (w1, w2) == (w2s, w1s)

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            two_point_weight(RBF, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("x1,x2,x_t", [([0.0, 0.0], [1.0, 1.0], 0.5),
                                           (0.0, [1.0, 1.0], [0.5, 0.5]),
                                           (0.0, 1.0, [[0.5]])])
    def test_dimension_mismatch_rejected(self, x1, x2, x_t):
        with pytest.raises(InputError, match="dimension mismatch"):
            two_point_weight(RBF, x1, x2, x_t)


class TestPosteriorCov:
    def test_empty_context_is_prior(self):
        X_T = np.array([[0.0], [1.0]])
        cov = posterior_cov(RBF, np.zeros((0, 1)), X_T)
        assert np.max(np.abs(cov - kernel_matrix(RBF, X_T))) < 1e-14

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        X_C = rng.uniform(-2, 2, (5, 1))
        X_T = rng.uniform(-2, 2, (4, 1)) + 10.0
        cov = posterior_cov(RBF, X_C, X_T)
        assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_shrinks_at_observed_point(self):
        cov = posterior_cov(KernelSpec(family="rbf", jitter=1e-12),
                            [[0.0]], [[1e-6]])
        assert cov[0, 0] < 1e-6

    def test_given_spectrum_is_bit_identical(self, jacobi_calls):
        X_C, X_T = [[0.0], [0.9], [2.1]], [[0.4], [1.5]]
        S = gram_spectrum(RBF, X_C)
        want = posterior_cov(RBF, X_C, X_T)
        jacobi_calls[:] = [0, 0]
        got = posterior_cov(RBF, X_C, X_T, spectrum=S)
        assert jacobi_calls == [0, 0]
        assert np.array_equal(got, want)
        with pytest.raises(InputError):
            posterior_cov(RBF, X_C[:2], X_T, spectrum=S)

    def test_duplicate_across_sets_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            posterior_cov(RBF, [[0.0], [1.0]], [[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(InputError, match="locations must be finite"):
            posterior_cov(RBF, [[0.0], [1.0]], [[0.5], [bad]])


def loop_first_duplicate(points):
    """The pairwise np.allclose loop the distinctness guard must match."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if np.allclose(points[i], points[j], atol=1e-12):
                return i, j
    return None


class TestCheckDistinct:
    def test_names_first_pair_in_row_order(self):
        # duplicated pairs (1, 4) and (2, 3): row order meets (1, 4) first
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [3.0, 1.0],
                        [1.0, 2.0]])
        assert loop_first_duplicate(pts) == (1, 4)
        with pytest.raises(DegenerateConfigurationError,
                           match=r"indices 1, 4$"):
            _check_distinct(pts, "point")

    def test_near_duplicate_inside_rtol(self):
        # |a - b| = 5e-3 <= atol + rtol * |b| = 1e-12 + 1e-5 * 1000
        pts = np.array([[0.0], [1000.005], [7.0], [1000.0]])
        assert loop_first_duplicate(pts) == (1, 3)
        with pytest.raises(DegenerateConfigurationError,
                           match=r"indices 1, 3$"):
            _check_distinct(pts, "point")

    def test_distinct_points_pass(self):
        _check_distinct(np.array([[0.0], [1e-6], [1.0]]), "point")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_decide_as_allclose(self, bad):
        # a non-finite point is rejected before any pair is compared, even
        # where np.allclose would call two infinities close
        for pts in (np.array([[0.0], [bad], [1.0], [bad]]),
                    np.array([[bad, 0.0], [1.0, 2.0], [bad, 1e-13]]),
                    np.array([[bad], [-bad], [2.0]])):
            with pytest.raises(InputError, match="locations must be finite"):
                _check_distinct(pts, "point")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_allclose_loop(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, size=(6, 2)).astype(float)
        pts += rng.choice([0.0, 1e-13, 1e-4], size=pts.shape)
        want = loop_first_duplicate(pts)
        if want is None:
            _check_distinct(pts, "point")
        else:
            with pytest.raises(DegenerateConfigurationError,
                               match=fr"indices {want[0]}, {want[1]}$"):
                _check_distinct(pts, "point")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_posterior_mean_linear_in_y(seed):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(-3, 3, 4)).reshape(-1, 1)
    if np.min(np.diff(X[:, 0])) < 1e-2:
        return
    y1, y2 = rng.normal(size=4), rng.normal(size=4)
    a, b = rng.normal(size=2)
    x_t = rng.uniform(-3, 3)
    m = posterior_mean(RBF, X, a * y1 + b * y2, x_t)
    ref = a * posterior_mean(RBF, X, y1, x_t) + b * posterior_mean(RBF, X, y2, x_t)
    assert m == pytest.approx(ref, abs=1e-8 * (1 + abs(ref)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-4, 4))
def test_posterior_mean_shift_equivariance(seed, shift):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(-3, 3, 4)).reshape(-1, 1)
    if np.min(np.diff(X[:, 0])) < 1e-2:
        return
    y = rng.normal(size=4)
    x_t = rng.uniform(-3, 3)
    m1 = posterior_mean(RBF, X, y, x_t)
    m2 = posterior_mean(RBF, X + shift, y, x_t + shift)
    assert m1 == pytest.approx(m2, abs=1e-9 * (1 + abs(m1)))
