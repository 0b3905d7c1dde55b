import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab.cnp import ContextSet, context_from_pairs
from nplab.errors import InputError
from nplab.gp_oracle import posterior_weights
from nplab.kernels import (KernelSpec, cross_vector, gram_spectrum,
                           kernel_matrix, spectrum_of)
from nplab.lab import ExperimentConfig, run_experiment
from nplab.polyapprox import (apply_schedule, chebyshev_schedule,
                              minimax_oracle, product_schedule)
from nplab.rng import stream
from nplab.tnp import (FD_BLOCK, depth_barrier_experiment, eig_family,
                       family_vector, fd_jacobian, gp_weight_row,
                       normalize_attention, pipeline_as_map,
                       quadratic_form_sweep, tnp_gp_pipeline)

RBF = KernelSpec(family="rbf")


def well_spread_context(seed, n=8, gap=0.5):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(gap + rng.uniform(0.0, 0.4, n))
    return ContextSet(xs.reshape(-1, 1), rng.normal(size=(n, 1)))


class TestNormalizeAttention:
    def test_rows_sum_to_one(self):
        C = well_spread_context(0)
        A = normalize_attention(gram_spectrum(RBF, C.locations).matrix)
        assert np.max(np.abs(A @ np.ones(C.n) - 1.0)) < 1e-12

    def test_kappa_within_gamma_bracket(self):
        # kappa(D^-1/2 K D^-1/2) lies within a factor gamma = d_max / d_min
        # of kappa(K)
        for seed in range(5):
            C = well_spread_context(seed)
            K = gram_spectrum(RBF, C.locations).matrix
            d = K @ np.ones(C.n)
            assert np.array_equal(normalize_attention(K), K / d[:, None])
            gamma = d.max() / d.min()
            kappa_source = spectrum_of(K).kappa
            kappa_tilde = spectrum_of(K / np.sqrt(np.outer(d, d))).kappa
            lo, hi = kappa_source / gamma, gamma * kappa_source
            assert lo * (1 - 1e-9) <= kappa_tilde <= hi * (1 + 1e-9)

    def test_similarity_preserves_spectrum(self):
        C = well_spread_context(3, n=6)
        S = gram_spectrum(RBF, C.locations)
        A = normalize_attention(S.matrix)
        d = S.matrix @ np.ones(S.n)
        # eigenvalues of D^{-1} K equal those of the symmetric similar form
        direct = np.sort(np.linalg.eigvals(A).real)
        sym = np.sort(np.linalg.eigvalsh(S.matrix / np.sqrt(np.outer(d, d))))
        assert np.max(np.abs(direct - sym)) < 1e-10


class TestEigFamily:
    def test_row_sums_exactly_one(self):
        for n in (4, 5, 8):
            member = eig_family(16.0, n, 0.3)
            assert np.max(np.abs(member.matrix @ np.ones(n) - 1.0)) < 1e-14

    def test_spectrum_is_bump_plus_ones(self):
        member = eig_family(10.0, 6, 0.25)
        evals = np.sort(np.linalg.eigvalsh(member.matrix))
        assert evals[0] == pytest.approx(0.1 + 0.25, abs=1e-12)
        assert np.max(np.abs(evals[1:] - 1.0)) < 1e-12

    def test_v1_is_unit_and_orthogonal_to_ones(self):
        for n in (4, 7):
            v = family_vector(n)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert abs(v @ np.ones(n)) < 1e-14

    def test_attention_normalization_is_identity_on_family(self):
        member = eig_family(8.0, 6, 0.1)
        S = spectrum_of(member.matrix)
        A = normalize_attention(S.matrix)
        assert np.max(np.abs(A - member.matrix)) < 1e-14

    def test_t_range_enforced(self):
        with pytest.raises(InputError):
            eig_family(4.0, 4, 0.9)
        with pytest.raises(InputError):
            eig_family(0.5, 4, 0.1)


class TestForward:
    def test_product_stack_matches_matrix_polynomial(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5, 5))
        A = 0.5 * (A + A.T)
        H0 = rng.normal(size=(5, 2))
        alphas = [0.3, -0.2, 0.1]
        sched = product_schedule(alphas)
        out = apply_schedule(A, sched, H0)
        P = np.eye(5)
        for a in alphas:
            P = P + a * (A @ P)
        assert np.max(np.abs(out - P @ H0)) < 1e-12

    def test_chebyshev_stack_matches_scalar_polynomial(self):
        member = eig_family(16.0, 6, 0.2)
        sched = chebyshev_schedule(1.0 / 16.0, 1.0, 4)
        out = apply_schedule(member.matrix, sched, member.v1.reshape(-1, 1))
        # q(mu1) = (1 - r) / mu1 with the residual r = prod(1 - c_l mu1)
        r = np.prod([1.0 - c * member.mu1 for c in sched.coefficients])
        q = (1.0 - r) / member.mu1
        assert float(member.v1 @ out[:, 0]) == pytest.approx(q, abs=1e-12)


class TestPipeline:
    def test_error_under_bound(self):
        C = well_spread_context(7)
        for L in (2, 6, 12):
            out = tnp_gp_pipeline(RBF, C, 1.0, L)
            assert out["error_vs_oracle"] <= out["bound"] * (1 + 1e-9)

    def test_oracle_matches_an_independent_solve(self):
        C = well_spread_context(4, n=6)
        out = tnp_gp_pipeline(RBF, C, 0.3, 10)
        K = kernel_matrix(RBF, C.locations) + RBF.jitter * np.eye(6)
        k = cross_vector(RBF, C.locations, 0.3)
        oracle = float(k @ np.linalg.solve(K, C.values[:, 0]))
        assert out["oracle"] == pytest.approx(oracle, abs=1e-9)

    def test_error_decreases_with_depth(self):
        C = well_spread_context(2, gap=1.2)
        errs = [tnp_gp_pipeline(RBF, C, 0.5, L)["error_vs_oracle"]
                for L in (1, 4, 12)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4 * max(errs[0], 1e-300)

    def test_fd_jacobian_matches_analytic_row(self):
        C = well_spread_context(11, n=6)
        F = pipeline_as_map(RBF, C.locations, 0.7, 5)
        y0 = np.zeros(6)
        J = fd_jacobian(F, y0)[0]
        row = gp_weight_row(RBF, C.locations, 0.7, 5)
        assert np.max(np.abs(J - row)) <= 1e-6

    def test_pipeline_is_linear_in_y(self):
        C = well_spread_context(4, n=5)
        F = pipeline_as_map(RBF, C.locations, -0.3, 4)
        rng = np.random.default_rng(0)
        y1, y2 = rng.normal(size=5), rng.normal(size=5)
        assert F(2.0 * y1 - 0.5 * y2) == pytest.approx(
            2.0 * F(y1) - 0.5 * F(y2), abs=1e-10)

    def test_deep_pipeline_approaches_gp_weights(self):
        C = well_spread_context(9, n=6, gap=1.2)
        row = gp_weight_row(RBF, C.locations, 0.2, 40)
        exact = posterior_weights(RBF, C.locations, 0.2)
        assert np.max(np.abs(row - exact)) < 1e-8


@pytest.mark.parametrize("params", [{}, {"max_kappa": 3.8}])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gp_pipeline_factors_once_per_draw(params, seed, jacobi_calls,
                                           monkeypatch):
    """The rejection loop's spectrum serves the pipeline and the oracle, so
    a run factors one Gram per draw and none after the accepted one."""
    draws = [0]

    def counting_stream(seed, *names):
        draws[0] += names[0] == "tnp.gp_pipeline"
        return stream(seed, *names)

    monkeypatch.setattr("nplab.rng.stream", counting_stream)
    report = run_experiment(ExperimentConfig("tnp.gp_pipeline", params, seed))
    assert report.error is None
    assert draws[0] >= 1
    assert jacobi_calls == [draws[0], 0]


def test_polynomial_structure_factors_nothing(jacobi_calls):
    # the layer check uses only the normalized matrix D⁻¹K, so no spectrum
    # is computed
    report = run_experiment(ExperimentConfig(
        "tnp.polynomial_structure", {"n": 40, "n_grams": 3}, 0))
    assert report.error is None and not report.failed
    assert jacobi_calls == [0, 0]


def test_eig_family_factors_values_only(jacobi_calls):
    params = {"kappas": [4.0, 16.0], "n": 8, "t_points": 3}
    report = run_experiment(ExperimentConfig("tnp.eig_family", params, 0))
    assert report.error is None and not report.failed
    assert jacobi_calls == [0, 6]


def test_pipeline_with_given_spectrum_is_bit_identical():
    C = well_spread_context(3, n=10)
    S = gram_spectrum(RBF, C.locations)
    assert tnp_gp_pipeline(RBF, C, 0.9, 8, spectrum=S) == \
        tnp_gp_pipeline(RBF, C, 0.9, 8)


class TestFdJacobian:
    def test_exact_on_linear_map(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(3, 4))
        J = fd_jacobian(lambda y: M @ y, np.zeros(4))
        assert np.max(np.abs(J - M)) < 1e-9

    def test_quadratic_map(self):
        J = fd_jacobian(lambda y: np.array([y[0] ** 2]), np.array([3.0]))
        assert J[0, 0] == pytest.approx(6.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 5, 64, 65, 130])
    def test_blocks_cover_every_column(self, n):
        # 65 and 130 end in a partial block
        M = np.random.default_rng(n).normal(size=(3, n))
        widths = []

        def F(y):
            widths.append(y.shape[1] if y.ndim == 2 else None)
            return M @ y

        J = fd_jacobian(F, np.random.default_rng(0).normal(size=n))
        assert np.max(np.abs(J - M)) < 1e-9
        blocks = -(-n // FD_BLOCK)
        assert len(widths) == 2 * blocks + 1 and widths[0] is None
        assert sum(widths[1:]) == 2 * n
        assert max(widths[1:]) <= FD_BLOCK

    def test_scalar_output(self):
        # a (k,) result for a block of k columns is the m = 1 case
        y0 = np.linspace(-1.0, 2.0, 70)
        J = fd_jacobian(lambda y: np.sum(y ** 2, axis=0), y0)
        assert J.shape == (1, 70)
        assert np.max(np.abs(J[0] - 2.0 * y0)) < 1e-8

    def test_block_of_wrong_shape(self):
        with pytest.raises(InputError, match="columns"):
            fd_jacobian(lambda y: y.ravel(), np.zeros(3))


class TestPipelineMap:
    def test_vector_gives_the_prediction(self):
        C = well_spread_context(6, n=5)
        F = pipeline_as_map(RBF, C.locations, 0.3, 6)
        out = F(C.values[:, 0])
        assert isinstance(out, float)
        assert out == tnp_gp_pipeline(RBF, C, 0.3, 6)["prediction"]

    def test_block_maps_column_by_column(self):
        C = well_spread_context(7, n=5)
        F = pipeline_as_map(RBF, C.locations, -0.2, 4)
        Y = np.random.default_rng(1).normal(size=(5, 3))
        out = F(Y)
        assert out.shape == (3,)
        assert out.tolist() == [F(Y[:, j]) for j in range(3)]


class TestDepthBarrier:
    def test_structural_fit_and_bounds(self):
        out = depth_barrier_experiment(16.0, 8, 3, 40, seed=0)
        # the bound of tnp.depth_barrier's fit_residual
        assert out["fit_residual"] <= 1e-8
        assert out["oracle_error"] >= out["barrier"]

    def test_quadratic_form_degree_cap(self):
        # a depth-L stack cannot produce a degree-(L+1) component: fitting
        # with degree L-1 must fail while degree L is exact
        kappa, n, L = 16.0, 6, 3
        rng = np.random.default_rng(5)
        alphas = rng.uniform(-1.5, 1.5, L)
        mus, vals = quadratic_form_sweep(kappa, n, alphas, 40)
        full = np.polynomial.polynomial.polyfit(mus, vals, L)
        low = np.polynomial.polynomial.polyfit(mus, vals, L - 1)
        res_full = np.max(np.abs(
            np.polynomial.polynomial.polyval(mus, full) - vals))
        res_low = np.max(np.abs(
            np.polynomial.polynomial.polyval(mus, low) - vals))
        assert res_full <= 1e-8
        assert res_low > 1e-4

    def test_slope_tracks_log_rho(self):
        for kappa in (16.0, 64.0):
            out = depth_barrier_experiment(kappa, 8, 3, 40)
            assert abs(out["decay_slope"] - out["log_rho"]) \
                <= 0.05 * abs(out["log_rho"])

    def test_implied_depth_consistent(self):
        out = depth_barrier_experiment(16.0, 8, 3, 40, eps=1e-3)
        D = out["implied_min_depth"]
        assert minimax_oracle(1.0 / 16.0, 1.0, 2 * (D - 1)).error > 1e-3 \
            or D == 1

    def test_grid_too_small(self):
        with pytest.raises(InputError):
            depth_barrier_experiment(16.0, 8, 10, 12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_family_vector_property(seed, n):
    v = family_vector(n)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v @ np.ones(n)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_quadratic_form_interpolates_scalar_polynomial(seed):
    rng = np.random.default_rng(seed)
    kappa = float(rng.uniform(4.0, 64.0))
    alphas = rng.uniform(-1.0, 1.0, 2)
    mus, vals = quadratic_form_sweep(kappa, 5, alphas, 16)
    direct = np.ones_like(mus)
    for a in alphas:
        direct *= 1.0 + a * mus
    assert np.max(np.abs(vals - direct)) < 1e-10
