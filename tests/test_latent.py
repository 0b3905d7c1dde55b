import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab.cnp import example_collision_pair
from nplab.errors import InputError, NumericError
from nplab.kernels import KernelSpec
from nplab import latent
from nplab.lab import FAIL, PASS, ExperimentConfig, run_experiment
from nplab.linalg import jacobi_eigvalsh, jacobi_eigvalsh_many
from nplab.latent import (RankKLatent, default_latent_builder,
                          encoder_bottleneck_lift, gp_cov_rank_check,
                          latent_predictive, mean_matching_residual,
                          mercer_tail, posterior_weight_matrix,
                          singular_values_sym)

RBF = KernelSpec(family="rbf")


def sample_model(k, sigma2=0.0, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(k, k))
    S = B @ B.T

    def a(x, _k=k):
        x0 = float(np.atleast_1d(x)[0])
        return np.array([np.cos((j + 1) * x0) for j in range(_k)])

    return RankKLatent(k=k, a=a, b=lambda x: 0.0,
                       m=rng.normal(size=k), S=S, sigma2=sigma2)


class TestRankKLatent:
    def test_predictive_shapes_and_symmetry(self):
        model = sample_model(3)
        X_T = np.linspace(-1, 1, 7).reshape(-1, 1)
        out = latent_predictive(model, X_T)
        assert out["mean"].shape == (7,)
        assert out["cov"].shape == (7, 7)
        assert np.max(np.abs(out["cov"] - out["cov"].T)) == 0.0

    def test_zero_latent_is_deterministic(self):
        model = RankKLatent(k=0, a=lambda x: np.zeros(0), b=lambda x: 1.5,
                            m=np.zeros(0), S=np.zeros((0, 0)))
        out = latent_predictive(model, [[0.0], [2.0]])
        assert out["mean"] == pytest.approx([1.5, 1.5], abs=1e-15)
        assert np.max(np.abs(out["cov"])) == 0.0

    def test_invalid_models(self):
        with pytest.raises(InputError):
            RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                        m=np.zeros(3), S=np.eye(2))
        with pytest.raises(InputError):
            RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                        m=np.zeros(2), S=-np.eye(2))
        with pytest.raises(InputError):
            RankKLatent(k=1, a=lambda x: np.zeros(1), b=lambda x: 0.0,
                        m=np.zeros(1), S=np.eye(1), sigma2=-0.1)


    @pytest.mark.parametrize("S, message", [
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "non-finite"),
        (np.array([[1.0, np.inf], [-np.inf, 1.0]]), "non-finite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
        (np.array([[1.0, 0.5], [0.5 + 1e-4, 1.0]]), "symmetric")])
    def test_covariance_guard_decides_as_allclose(self, S, message):
        # a non-finite S is rejected before the symmetry test, which
        # decides as np.allclose(S, S.T, atol=1e-10) on the finite rest
        with pytest.raises(InputError, match=message):
            RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                        m=np.zeros(2), S=S)
        near = np.array([[1.0, 0.5], [0.5 + 1e-10, 1.0]])
        assert np.allclose(near, near.T, atol=1e-10)
        RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                    m=np.zeros(2), S=near)

    def test_precomputed_eigenvalues_decide_as_its_own_call(self):
        # one jacobi_eigvalsh_many call gives every model's PSD-check
        # eigenvalues with the bits of a call per model, and a non-PSD S
        # raises the same error whether the model factors it or is given
        # its eigenvalues
        rng = np.random.default_rng(0)
        Bs = [rng.normal(size=(k, k)) for k in (1, 2, 3, 4, 4, 2)]
        sym = [0.5 * (B @ B.T + (B @ B.T).T) for B in Bs]
        for S, vals in zip(sym, jacobi_eigvalsh_many(sym)):
            assert vals.tobytes() == jacobi_eigvalsh(S).tobytes()
        bad = np.array([[1.0, 0.0], [0.0, -1e-6]])
        errors = []
        for eigenvalues in (None, jacobi_eigvalsh(bad)):
            with pytest.raises(InputError) as err:
                RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                            m=np.zeros(2), S=bad, eigenvalues=eigenvalues)
            errors.append(str(err.value))
        assert errors == ["latent covariance must be PSD"] * 2
        with pytest.raises(InputError, match="2 eigenvalues"):
            RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                        m=np.zeros(2), S=np.eye(2), eigenvalues=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            RankKLatent(k=2, a=lambda x: np.zeros(2), b=lambda x: 0.0,
                        m=np.array([0.0, bad]), S=np.eye(2))


class TestCovarianceRank:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_noiseless_cov_rank_at_most_k(self, k):
        model = sample_model(k, sigma2=0.0)
        X_T = np.linspace(-2, 2, 3 * k + 5).reshape(-1, 1)
        cov = latent_predictive(model, X_T)["cov"]
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert evals[k] <= 1e-8 * max(np.trace(cov), 1e-300)

    def test_gp_posterior_cov_is_full_rank(self):
        rng = np.random.default_rng(3)
        X_C = (np.cumsum(0.6 + rng.uniform(0, 0.3, 5))).reshape(-1, 1)
        X_T = X_C + 0.27
        [min_eig] = gp_cov_rank_check([(RBF, X_C, X_T)])
        assert min_eig > 1e-10

    def test_gp_cov_rank_check_factors_twice(self, jacobi_calls):
        # the context Gram inside posterior_cov, then the covariance's
        # eigenvalues alone
        X_C = np.array([[0.0], [0.8], [1.7], [2.9]])
        [min_eig] = gp_cov_rank_check([(RBF, X_C, X_C + 0.35)])
        assert jacobi_calls == [1, 1]
        assert min_eig > 1e-10

    def test_gp_cov_rank_check_entries_match_single_entries(self):
        # one call over many entries gives each entry's single-entry result
        rng = np.random.default_rng(5)
        matern = KernelSpec(family="matern")
        entries = []
        for i in range(9):
            pts = np.cumsum(0.4 + rng.uniform(0, 0.5, 10)).reshape(-1, 1)
            n_c = 4 if i < 6 else 2 + i % 3
            entries.append((RBF if i % 2 else matern, pts[:n_c], pts[n_c:]))
        got = gp_cov_rank_check(entries)
        want = [gp_cov_rank_check([entry])[0] for entry in entries]
        assert got == want
        assert gp_cov_rank_check([]) == []

    def test_cov_rank_model_loop_factors_values_only(self, jacobi_calls):
        # per model: the latent covariance's PSD check and the predictive
        # covariance, both eigenvalues alone; per GP config: the context
        # Gram (vectors, for the solve) and the posterior covariance
        params = {"n_models": 7, "n_configs": 2}
        report = run_experiment(ExperimentConfig("latent.cov_rank", params,
                                                 0))
        assert report.error is None and not report.failed
        assert jacobi_calls == [2, 2 * 7 + 2]


class TestMeanMatching:
    def context_and_targets(self, n, seed=0):
        rng = np.random.default_rng(seed)
        X_C = (np.cumsum(0.7 + rng.uniform(0, 0.3, n))).reshape(-1, 1)
        return X_C, X_C + 0.31

    def test_zero_residual_at_full_rank(self):
        X_C, X_T = self.context_and_targets(6)
        assert mean_matching_residual(RBF, X_C, X_T, k=6) == 0.0

    def test_positive_residual_below_half_rank(self):
        X_C, X_T = self.context_and_targets(8)
        Phi = posterior_weight_matrix(RBF, X_C, X_T)
        res = mean_matching_residual(RBF, X_C, X_T, k=4)
        assert res > 0.01 * np.linalg.norm(Phi)

    def test_residual_monotone_in_k(self):
        X_C, X_T = self.context_and_targets(6, seed=2)
        res = [mean_matching_residual(RBF, X_C, X_T, k) for k in range(7)]
        assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))

    def test_residual_is_singular_value_tail(self):
        X_C, X_T = self.context_and_targets(5, seed=4)
        Phi = posterior_weight_matrix(RBF, X_C, X_T)
        svals = np.linalg.svd(Phi, compute_uv=False)
        for k in (1, 3):
            ref = float(np.sqrt(np.sum(svals[k:] ** 2)))
            assert mean_matching_residual(RBF, X_C, X_T, k) == pytest.approx(
                ref, rel=1e-8)

    def test_shape_mismatch(self):
        X_C, _ = self.context_and_targets(4)
        with pytest.raises(InputError):
            mean_matching_residual(RBF, X_C, X_C[:3] + 0.3, k=2)


class TestSingularValues:
    def test_matches_lapack(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(6, 6))
        ref = np.linalg.svd(M, compute_uv=False)
        mine = singular_values_sym(M)
        assert np.max(np.abs(mine - ref)) < 1e-8


class TestMercerTail:
    def test_polynomial_kernel_tail_exactly_zero(self):
        # degree-2 polynomial kernel has a 3-dimensional feature space, so
        # every rank >= 3 truncation is exact
        spec = KernelSpec(family="polynomial", degree=2, jitter=0.0)
        grid = np.linspace(-1, 1, 64).reshape(-1, 1)
        for k in (3, 5, 8):
            out = mercer_tail(spec, grid, k)
            assert out["tail_trace"] == 0.0

    def test_tail_equals_best_rank_k_error(self):
        grid = np.linspace(-2, 2, 40).reshape(-1, 1)
        for k in (2, 5):
            out = mercer_tail(RBF, grid, k)
            assert out["best_rank_k_error"] == pytest.approx(
                out["tail_trace"], rel=1e-6, abs=1e-12)

    def test_smooth_kernel_has_faster_tail(self):
        grid = np.linspace(-2, 2, 64).reshape(-1, 1)
        rough = KernelSpec(family="matern")
        tail_rbf = mercer_tail(RBF, grid, 8)["tail_trace"]
        tail_matern = mercer_tail(rough, grid, 8)["tail_trace"]
        assert tail_rbf < 1e-3 * tail_matern

    def test_tail_monotone_in_k(self):
        grid = np.linspace(-2, 2, 32).reshape(-1, 1)
        tails = [mercer_tail(RBF, grid, k)["tail_trace"] for k in (1, 3, 4)]
        assert tails[0] > tails[1] > tails[2] >= 0.0

    def test_grid_too_small(self):
        with pytest.raises(InputError):
            mercer_tail(RBF, np.linspace(0, 1, 10).reshape(-1, 1), 4)

    @pytest.mark.parametrize("params", [{}, {"m": 64}])
    def test_sub_floor_residual_is_not_factored(self, params, jacobi_calls):
        # k >= degree + 1 leaves G - G_k as rounding alone, under the floor
        rep = run_experiment(ExperimentConfig("latent.mercer", params, 0))
        assert rep.error is None and not rep.failed
        assert rep.measurements["polynomial_tail"] == 0.0
        assert rep.measurements["eckart_young_gap"] == 0.0
        assert jacobi_calls == [1, 0]

    def test_residual_above_the_floor_is_factored(self, jacobi_calls):
        grid = np.linspace(-2, 2, 40).reshape(-1, 1)
        out = mercer_tail(RBF, grid, 5)
        assert jacobi_calls == [1, 1]
        assert out["best_rank_k_error"] > 0.0

    def test_eckart_young_gap_fails_on_a_wrong_eigenvector(self,
                                                           monkeypatch):
        # a top eigenvector turned off its line leaves G - G_k above the
        # floor, so the gap is measured, and it is far from the tail
        eigh = latent.jacobi_eigh

        def perturbed(matrix):
            vals, vecs = eigh(matrix)
            vecs = vecs.copy()
            vecs[:, -1] += 1e-3
            return vals, vecs
        monkeypatch.setattr(latent, "jacobi_eigh", perturbed)
        rep = run_experiment(ExperimentConfig("latent.mercer", {}, 0))
        assert rep.verdicts == {"polynomial_tail": PASS,
                                "eckart_young_gap": FAIL}


class TestBottleneckLift:
    def test_collision_lifts_to_identical_predictives(self):
        res = example_collision_pair()
        out = encoder_bottleneck_lift(res.C, res.C2,
                                      default_latent_builder(3))
        # the bound of latent.bottleneck_lift's max_predictive_gap
        assert out["max_mean_gap"] <= 1e-6
        assert out["max_cov_gap"] <= 1e-6

    def test_non_colliding_contexts_rejected(self):
        from nplab.cnp import context_from_pairs
        C = context_from_pairs([(0.0, 1.0), (1.0, 2.0)])
        C2 = context_from_pairs([(0.0, 1.0), (1.0, 5.0)])
        with pytest.raises(InputError):
            encoder_bottleneck_lift(C, C2, default_latent_builder(2))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_latent_cov_psd_property(seed, k):
    model = sample_model(k, sigma2=0.05, seed=seed)
    X_T = np.linspace(-1.5, 1.5, 6).reshape(-1, 1)
    cov = latent_predictive(model, X_T)["cov"]
    assert np.linalg.eigvalsh(cov).min() >= 0.05 - 1e-10
