import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab.cnp import (ContextSet, SYNTHETIC_ISOTROPIC,
                       MONTE_CARLO_STATIONARY, cnp_predict,
                       collision_separation, context_from_pairs,
                       example_collision_pair, mean_encoding, moment_encoding,
                       ols_from_encoding, ols_moment_encoder,
                       pca_bound_experiment, pca_encoder_ratio)
from nplab.errors import InputError
from nplab.kernels import KernelSpec

RBF = KernelSpec(family="rbf")


class TestContextSet:
    def test_empty_rejected(self):
        with pytest.raises(InputError):
            context_from_pairs([])

    def test_one_dimensional_values_become_a_column(self):
        C = ContextSet(np.array([[0.0], [1.0], [2.0]]), np.array([4.0, 5.0,
                                                                 6.0]))
        assert C.values.shape == (3, 1)
        assert C.values[:, 0].tolist() == [4.0, 5.0, 6.0]
        one = ContextSet(np.array([[0.0]]), np.array([7.0]))
        assert one.values.shape == (1, 1)

    def test_more_values_than_locations_rejected(self):
        with pytest.raises(InputError, match="1 locations but 2 values"):
            ContextSet(np.array([[0.0]]), np.array([1.0, 2.0]))

    def test_one_dimensional_locations_become_a_column(self):
        C = ContextSet(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert C.n == 3
        assert C.locations.shape == (3, 1)
        assert C.locations[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert C.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_count_mismatch_rejected(self):
        with pytest.raises(InputError, match="2 locations but 3 values"):
            ContextSet(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(InputError, match="3 locations but 2 values"):
            ContextSet(np.zeros((3, 1)), np.zeros((2, 2)))


class TestEncoders:
    def test_identity_mean(self):
        C = context_from_pairs([(0.0, 1.0), (2.0, 3.0)])
        assert mean_encoding(C) == pytest.approx([1.0, 2.0], abs=1e-15)


class TestPredictor:
    def test_permutation_invariance_exact(self):
        C = context_from_pairs([(0.0, 1.0), (1.0, -2.0), (3.0, 0.3)])
        dec = lambda r, x_t: float(np.sum(r) * (1.0 + x_t[0]))
        vals = {cnp_predict(dec, ContextSet(C.locations[p], C.values[p]), 0.7)
                for p in ([0, 1, 2], [2, 1, 0], [1, 2, 0])}
        # mean pooling is reordering-sensitive only through float summation
        assert max(vals) - min(vals) < 1e-12


class TestCollisions:
    def test_example_pair_collides_bitwise(self):
        res = example_collision_pair()
        r1 = mean_encoding(res.C)
        r2 = mean_encoding(res.C2)
        assert np.array_equal(r1, r2)
        # as multisets the pairs differ: no point of C appears in C2
        A = set(zip(res.C.locations[:, 0], res.C.values[:, 0]))
        B = set(zip(res.C2.locations[:, 0], res.C2.values[:, 0]))
        assert A.isdisjoint(B)

    def test_example_pair_gp_separation(self):
        res = example_collision_pair()
        sep = collision_separation(RBF, res.C, res.C2, 1.0)
        assert sep > 0.01

    def test_collision_implies_equal_predictions(self):
        res = example_collision_pair()
        dec = lambda r, x_t: float(np.tanh(r @ np.ones_like(r)) + 0.3 * x_t[0])
        for x_t in (-1.0, 0.0, 2.5):
            p1 = cnp_predict(dec, res.C, x_t)
            p2 = cnp_predict(dec, res.C2, x_t)
            assert abs(p1 - p2) <= 1e-7


class TestPcaBound:
    @pytest.mark.parametrize("n,d", [(4, 2), (8, 2), (16, 4)])
    def test_synthetic_isotropic_exact(self, n, d):
        out = pca_bound_experiment(n, d, mode=SYNTHETIC_ISOTROPIC, seed=0)
        assert abs(out["deviation_from_bound"]) <= 1e-10

    def test_random_encoders_never_beat_pca(self):
        out = pca_bound_experiment(8, 2, mode=SYNTHETIC_ISOTROPIC, seed=3)
        assert out["best_random_encoder_ratio"] >= out["measured_ratio"] - 1e-9

    def test_monte_carlo_pinned_value(self):
        # informational mode: smooth kernel weight rows are far from
        # isotropic, so the measured ratio sits well under the 1 - d/n floor
        out = pca_bound_experiment(16, 4, mode=MONTE_CARLO_STATIONARY,
                                   spec=RBF, n_targets=2000, seed=0)
        assert out["measured_ratio"] == pytest.approx(0.011476608813578142,
                                                      rel=1e-9)
        assert out["measured_ratio"] < out["bound"]

    def test_monte_carlo_ratio_matches_direct_svd(self):
        out = pca_bound_experiment(8, 3, mode=MONTE_CARLO_STATIONARY,
                                   spec=RBF, n_targets=200, seed=5)
        assert 0.0 <= out["measured_ratio"] <= 1.0

    def test_pca_ratio_matches_eigen_tail(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(20, 6))
        ratio, basis = pca_encoder_ratio(W, 2)
        evals = np.sort(np.linalg.eigvalsh(W.T @ W))[::-1]
        assert ratio == pytest.approx(evals[2:].sum() / evals.sum(), rel=1e-10)
        assert basis.shape == (2, 6)

    def test_bad_dimensions(self):
        with pytest.raises(InputError):
            pca_bound_experiment(4, 5)
        with pytest.raises(InputError):
            pca_bound_experiment(4, 2, mode=MONTE_CARLO_STATIONARY)


class TestMomentEncoding:
    def test_dimension_formula(self):
        # k features give k(k+3)/2 numbers: 9 for k = 3, 2 for k = 1
        C = context_from_pairs([(0.5, 1.0), (2.0, -1.0)])
        for k, dim in ((3, 9), (1, 2)):
            feats = [lambda x, j=j: float(x[0]) ** j for j in range(k)]
            assert len(moment_encoding(feats, C)) == dim == k * (k + 3) // 2

    def test_ols_through_encoding_matches_direct(self):
        rng = np.random.default_rng(4)
        feats = [lambda x: 1.0, lambda x: float(x[0]),
                 lambda x: float(x[0]) ** 2]
        X = rng.uniform(-2, 2, (12, 1))
        y = 0.5 - 1.2 * X[:, 0] + 0.3 * X[:, 0] ** 2 + 0.01 * rng.normal(size=12)
        C = context_from_pairs(list(zip(X, y)))
        phi = np.array([[f(x) for f in feats] for x in X])
        beta = np.linalg.lstsq(phi, y, rcond=None)[0]
        for x_t in (-1.5, 0.0, 1.0):
            direct = float(np.array([1.0, x_t, x_t ** 2]) @ beta)
            via = ols_moment_encoder(feats, C, x_t)
            assert via == pytest.approx(direct, abs=1e-8)

    def test_encoding_is_sum_pooled(self):
        feats = [lambda x: 1.0, lambda x: float(x[0])]
        C = context_from_pairs([(1.0, 2.0), (3.0, -1.0)])
        e = moment_encoding(feats, C)
        e1 = moment_encoding(feats, context_from_pairs([(1.0, 2.0)]))
        e2 = moment_encoding(feats, context_from_pairs([(3.0, -1.0)]))
        assert np.max(np.abs(e - (e1 + e2))) < 1e-12
        assert len(e) == 2 * (2 + 3) // 2


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_pca_never_above_floor_plus_rounding(seed, d):
    out = pca_bound_experiment(8, d, mode=SYNTHETIC_ISOTROPIC, seed=seed)
    assert out["measured_ratio"] <= out["bound"] + 1e-10
