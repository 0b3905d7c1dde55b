import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab.cnp import context_from_pairs
from nplab import convcnp, kernels
from nplab.convcnp import (CirculantOperator, GridSpec, circulant,
                           circulant_jacobian, circulant_matrix,
                           circular_convolve, dft, dft_matrix,
                           depth_support_experiment, equivariance_defect,
                           frequency_diagonal, from_symbol, full_support_solve,
                           grid_cnn_gp, grid_forward_map, idft,
                           nearest_neighbor_row, pure_convcnp_counterexample,
                           softplus, trig_minimax_error, wrapped_kernel_row)
from nplab.errors import InputError, NumericError
from nplab.gp_oracle import posterior_mean
from nplab.kernels import KernelSpec, eval_kernel
from nplab.lab import FAIL, INFO, PASS, ExperimentConfig, run_experiment
from nplab.tnp import fd_jacobian

RBF = KernelSpec(family="rbf")

# closed-form GP means for the on-grid counterexample with unit values
K1, K2, K3 = np.exp(-0.5), np.exp(-2.0), np.exp(-4.5)
GP_MEAN_A = (K1 + K2) / (1.0 + K1)
GP_MEAN_B = (K1 + K2) / (1.0 + K3)


class TestDft:
    def test_impulse_symbol_is_flat(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.max(np.abs(dft(e0) - 1.0)) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=11)
        assert np.max(np.abs(idft(dft(v)) - v)) < 1e-10

    def test_matrix_unitary_up_to_n(self):
        F = dft_matrix(6)
        assert np.max(np.abs(F @ F.conj().T - 6 * np.eye(6))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32, 255, 256])
    def test_fft_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        F = dft_matrix(n)
        for v in (rng.normal(size=n),
                  rng.normal(size=n) + 1j * rng.normal(size=n)):
            tol = 1e-12 * n * np.sum(np.abs(v))
            assert np.max(np.abs(dft(v) - F @ v)) <= tol
            assert np.max(np.abs(idft(v) - F.conj() @ v / n)) <= tol

    @pytest.mark.parametrize("bad", [np.ones((4, 4)), np.float64(1.0),
                                     np.zeros(0)])
    def test_rejects_all_but_1d(self, bad):
        # numpy.fft would transform the last axis of a 2-d argument
        with pytest.raises(InputError):
            dft(bad)
        with pytest.raises(InputError):
            idft(bad)

    @pytest.mark.parametrize("n", [7, 64])
    def test_frequency_diagonal_matches_direct(self, n):
        rng = np.random.default_rng(n)
        F = dft_matrix(n)
        for J in (circulant(rng.normal(size=n)).matrix(),
                  rng.normal(size=(n, n))):
            direct = np.diag(F @ J @ F.conj().T / n)
            assert np.max(np.abs(frequency_diagonal(J) - direct)) \
                <= 1e-12 * np.linalg.norm(J)


class TestCirculant:
    def test_matvec_matches_matrix(self):
        # circular_convolve is the circulant's matvec
        rng = np.random.default_rng(1)
        row = rng.normal(size=7)
        x = rng.normal(size=7)
        op = circulant(row)
        assert np.max(np.abs(circular_convolve(row, x)
                             - op.matrix() @ x)) < 1e-12

    def test_diagonalized_by_dft(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=6)
        op = circulant(row)
        F = dft_matrix(6)
        D = F @ op.matrix() @ F.conj().T / 6
        assert np.max(np.abs(np.diag(D) - op.dft_eigenvalues)) < 1e-10
        assert np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-10

    def test_product_symbol_multiplies(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=5), rng.normal(size=5)
        prod = circulant(a).matrix() @ circulant(b).matrix()
        symbol = dft(prod[0, :][np.concatenate([[0], np.arange(4, 0, -1)])])
        # first row of a circulant product is the circular convolution
        conv_row = circular_convolve(a, b)
        assert np.max(np.abs(circulant(conv_row).matrix() - prod)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matrix_is_double_sum(self, n):
        rng = np.random.default_rng(n)
        c, x = rng.normal(size=n), rng.normal(size=n)
        direct = [sum(c[m] * x[(i - m) % n] for m in range(n))
                  for i in range(n)]
        assert np.max(np.abs(circulant_matrix(c) @ x - direct)) \
            <= 1e-13 * np.sum(np.abs(c)) * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 256])
    def test_matrix_is_the_index_gather(self, n):
        # the gather through an n x n (i - j) mod n index is the oracle;
        # the rows hold a signed zero, a subnormal, infinities and a NaN
        c = np.random.default_rng(n).normal(size=n)
        c[:5] = [-0.0, 5e-324, np.inf, -np.inf, np.nan][:n]
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        got = circulant_matrix(c)
        assert got.shape == (n, n) and got.flags.c_contiguous
        assert got.tobytes() == c[idx].tobytes()

    def test_from_symbol_real_check(self):
        with pytest.raises(NumericError):
            from_symbol(np.array([1.0, 2.0, 3.0, 5.0]))  # not conj-symmetric

    def test_from_symbol_roundtrip(self):
        rng = np.random.default_rng(4)
        row = rng.normal(size=9)
        op = from_symbol(dft(row))
        assert np.max(np.abs(op.first_row - row)) < 1e-10


class TestWrappedKernel:
    def test_row_symmetry(self):
        grid = GridSpec(n=16, spacing=0.5)
        row = wrapped_kernel_row(RBF, grid)
        assert np.max(np.abs(row[1:] - row[1:][::-1])) < 1e-14

    def test_matches_unwrapped_on_large_grid(self):
        grid = GridSpec(n=64, spacing=0.5)  # extent 32 >> reach 6
        row = wrapped_kernel_row(RBF, grid)
        direct = np.array([eval_kernel(RBF, 0.0, min(m, 64 - m) * 0.5)
                           for m in range(64)])
        direct[direct < eval_kernel(RBF, 0.0, 6.0)] = 0.0
        assert np.max(np.abs(row - direct)) < 1e-8

    def test_wrap_truncation_small(self):
        # doubling the reach horizon changes nothing at 1e-8 scale
        grid = GridSpec(n=8, spacing=0.5)
        row = wrapped_kernel_row(RBF, grid)
        dense = np.zeros(8)
        for m in range(8):
            for j in range(-20, 21):
                dense[m] += eval_kernel(RBF, 0.0, abs(m * 0.5 + j * 4.0))
        dense_trunc = np.array(
            [sum(eval_kernel(RBF, 0.0, abs(m * 0.5 + j * 4.0))
                 for j in range(-20, 21)
                 if abs(m * 0.5 + j * 4.0) <= 6.0) for m in range(8)])
        assert np.max(np.abs(row - dense_trunc)) < 1e-12
        assert np.max(np.abs(dense - dense_trunc)) < 1e-8

    def test_requires_stationary(self):
        with pytest.raises(InputError):
            wrapped_kernel_row(KernelSpec(family="polynomial", degree=2),
                               GridSpec(n=8, spacing=0.5))


class TestGridCnnGp:
    def test_error_under_bound(self):
        grid = GridSpec(n=32, spacing=0.5)
        rng = np.random.default_rng(6)
        y = rng.normal(size=32)
        for L in (1, 5, 20, 40):
            out = grid_cnn_gp(RBF, grid, y, t_index=7, L=L)
            assert out["error_vs_oracle"] <= out["bound"] * (1 + 1e-9)

    def test_matches_tnp_style_exact_solve(self):
        grid = GridSpec(n=16, spacing=1.5)
        rng = np.random.default_rng(7)
        y = rng.normal(size=16)
        out = grid_cnn_gp(RBF, grid, y, t_index=3, L=40)
        row = wrapped_kernel_row(RBF, grid)
        K = circulant(row).matrix()
        k_t = K[3]
        oracle = float(k_t @ np.linalg.solve(K, y))
        assert out["oracle"] == pytest.approx(oracle, abs=1e-9)
        assert out["error_vs_oracle"] < 1e-6

    def test_shift_equivariance_exact(self):
        grid = GridSpec(n=24, spacing=0.5)
        rng = np.random.default_rng(8)
        y = rng.normal(size=24)
        base = grid_cnn_gp(RBF, grid, y, t_index=5, L=10)
        rolled = grid_cnn_gp(RBF, grid, np.roll(y, 3), t_index=8, L=10)
        assert rolled["prediction"] == pytest.approx(base["prediction"],
                                                     abs=1e-12)

    def test_input_validation(self):
        grid = GridSpec(n=8, spacing=0.5)
        with pytest.raises(InputError):
            grid_cnn_gp(RBF, grid, np.zeros(7), 0, 3)
        with pytest.raises(InputError):
            grid_cnn_gp(RBF, grid, np.zeros(8), 9, 3)


class TestJacobianFactorization:
    def build(self, seed, n=16, n_layers=3, support=5):
        rng = np.random.default_rng(seed)
        filters = [rng.normal(scale=0.3, size=support)
                   for _ in range(n_layers)]
        w_row = np.exp(-0.5 * (np.minimum(np.arange(n), n - np.arange(n))
                               * 0.5) ** 2)
        g_row = rng.normal(scale=0.2, size=n)
        return filters, w_row, g_row

    def test_fd_jacobian_factorizes_per_frequency(self):
        filters, w_row, g_row = self.build(0)
        n = len(w_row)
        F = grid_forward_map(filters, w_row, g_row)
        J = fd_jacobian(lambda y: F(y), np.zeros(n))
        pred = circulant_jacobian(filters, [0.5] * len(filters),
                                  circulant(w_row), circulant(g_row))
        Fm = dft_matrix(n)
        symbol_fd = np.diag(Fm @ J @ Fm.conj().T / n)
        assert np.max(np.abs(symbol_fd - pred.dft_eigenvalues)) <= 1e-5

    def test_block_matches_columns(self):
        # a block is one matrix product per layer; it may round apart from
        # the matvecs of its columns by a few units in the last place
        filters, w_row, g_row = self.build(2, n=40, n_layers=3)
        F = grid_forward_map(filters, w_row, g_row)
        Y = np.random.default_rng(4).normal(scale=0.5, size=(40, 7))
        out = F(Y)
        assert out.shape == (40, 7)
        cols = np.column_stack([F(Y[:, j]) for j in range(7)])
        assert np.allclose(out, cols, rtol=1e-13, atol=1e-14)

    def test_jacobian_matrix_is_circulant(self):
        filters, w_row, g_row = self.build(3, n=12, n_layers=2)
        F = grid_forward_map(filters, w_row, g_row)
        J = fd_jacobian(lambda y: F(y), np.zeros(12))
        # every row is a rotation of the first
        for i in range(12):
            assert np.max(np.abs(J[i] - np.roll(J[0], i))) < 1e-6

    def test_forward_zero_maps_to_zero(self):
        filters, w_row, g_row = self.build(5)
        F = grid_forward_map(filters, w_row, g_row)
        assert np.max(np.abs(F(np.zeros(len(w_row))))) < 1e-14

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_forward_map_is_the_convolution_stack(self, n):
        filters, w_row, g_row = self.build(n, n=n, n_layers=3)
        y = np.random.default_rng(n + 1).normal(scale=0.1, size=n)
        z = circular_convolve(w_row, np.tanh(y))
        for row in filters:
            p = np.zeros(n)
            p[:len(row)] = row
            z = z + softplus(circular_convolve(p, z)) - softplus(0.0)
        want = circular_convolve(g_row, z)
        assert np.array_equal(grid_forward_map(filters, w_row, g_row)(y),
                              want)

    def test_circulants_built_once(self, monkeypatch):
        filters, w_row, g_row = self.build(1, n_layers=3)
        original = convcnp.circulant_matrix
        count = [0]

        def counting(row):
            count[0] += 1
            return original(row)

        monkeypatch.setattr(convcnp, "circulant_matrix", counting)
        F = grid_forward_map(filters, w_row, g_row)
        assert count[0] == len(filters) + 2
        for _ in range(3):
            F(np.zeros(len(w_row)))
        assert count[0] == len(filters) + 2

    def test_bad_lengths_rejected(self):
        filters, w_row, g_row = self.build(2, n=8)
        with pytest.raises(InputError, match="filter longer than the grid"):
            grid_forward_map([np.ones(9)], w_row, g_row)
        with pytest.raises(InputError):
            grid_forward_map(filters, w_row, g_row[:7])
        with pytest.raises(InputError):
            grid_forward_map(filters, w_row, g_row)(np.zeros(7))

    def test_filter_count_mismatch(self):
        with pytest.raises(InputError):
            circulant_jacobian([np.ones(3)], [0.5, 0.5],
                               circulant(np.ones(8)), circulant(np.ones(8)))


class TestFullSupport:
    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_one_layer_exact_inverse(self, n):
        # spacing 1.0 keeps the symbol's condition number moderate; finer
        # grids push the smallest eigenvalue below what the filter's real
        # first row can represent at 1e-8
        grid = GridSpec(n=n, spacing=1.0)
        K = circulant(wrapped_kernel_row(RBF, grid))
        e0 = np.zeros(n)
        e0[0] = 1.0
        ident = circulant(e0)
        tau = full_support_solve(K, ident, ident, d1=0.5)
        J = circulant_jacobian([tau], [0.5], ident, ident)
        resid = np.abs(J.dft_eigenvalues * K.dft_eigenvalues - 1.0)
        assert np.max(resid) <= 1e-8

    def test_zero_derivative_rejected(self):
        K = circulant(np.array([2.0, 0.5, 0.1, 0.5]))
        e0 = circulant(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InputError):
            full_support_solve(K, e0, e0, d1=0.0)


class TestDepthSupport:
    def test_nearest_neighbor_symbol(self):
        row = nearest_neighbor_row(2.5, 0.75, 16)
        lam = dft(row).real
        omega = 2 * np.pi * np.arange(16) / 16
        assert np.max(np.abs(lam - (2.5 + 1.5 * np.cos(omega)))) < 1e-12

    def test_trig_minimax_decreases_with_degree(self):
        omega = 2 * np.pi * np.arange(32) / 32
        x = np.cos(omega)
        f = 1.0 / (2.5 + 1.5 * np.cos(omega))
        errs = [trig_minimax_error(x, f, D) for D in range(5)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_layers_cover_required_degree(self):
        grid = GridSpec(n=64, spacing=0.5)
        row = nearest_neighbor_row(2.5, 0.75, 64)
        out = depth_support_experiment(RBF, grid, p=5,
                                       eps_targets=[1e-1, 1e-2, 1e-3],
                                       first_row=row)
        for eps, entry in out["required"].items():
            assert entry["achieved"]
            # support 5 gives each layer degree 5 // 2
            assert entry["layers"] * (5 // 2) >= entry["degree"]

    def test_each_degree_is_fitted_once(self, monkeypatch):
        # eps = 1e-8 takes the eps loop past degree 12, so the slope fit's
        # degrees 4..12 are all fitted before it reads them
        fitted = []
        fit = convcnp.trig_minimax_error

        def counted(x, f, degree):
            fitted.append(degree)
            return fit(x, f, degree)

        monkeypatch.setattr(convcnp, "trig_minimax_error", counted)
        grid = GridSpec(n=64, spacing=0.5)
        row = nearest_neighbor_row(2.5, 0.75, 64)
        depth_support_experiment(RBF, grid, p=5, eps_targets=[1e-1, 1e-8],
                                 first_row=row)
        assert max(fitted) > 12
        assert len(fitted) == len(set(fitted))
        assert {4, 6, 8, 10, 12} <= set(fitted)

    def test_slope_matches_log_rho(self):
        # symbol 2.5 + 1.5 cos(w) ranges over [1, 4]: kappa = 4
        grid = GridSpec(n=64, spacing=0.5)
        row = nearest_neighbor_row(2.5, 0.75, 64)
        out = depth_support_experiment(RBF, grid, p=3, eps_targets=[1e-2],
                                       first_row=row)
        assert out["kappa"] == pytest.approx(4.0, rel=1e-10)
        assert abs(out["decay_slope"] - out["log_rho"]) \
            <= 0.1 * abs(out["log_rho"])

    def test_identity_symbol_needs_no_layers(self):
        grid = GridSpec(n=16, spacing=0.5)
        e0 = np.zeros(16)
        e0[0] = 1.0
        out = depth_support_experiment(RBF, grid, p=3, eps_targets=[1e-6],
                                       first_row=e0)
        entry = out["required"][1e-6]
        assert entry["degree"] == 0 and entry["layers"] == 0

    def test_grid_too_small_for_layers(self):
        # the degree is found, but its layers do not fit the grid: the eps
        # is recorded as not achieved, like one past the largest degree
        grid = GridSpec(n=8, spacing=0.5)
        row = nearest_neighbor_row(2.5, 0.75, 8)
        rep = depth_support_experiment(RBF, grid, p=5, eps_targets=[1e-8],
                                       first_row=row)
        assert rep["required"][1e-8] == {"degree": None, "layers": None,
                                         "achieved": False}

    # a filter as wide as the smallest declared grid, and the widest filter
    # on the default grid: no layer count fits either grid
    @pytest.mark.parametrize("params", [{"n": 26, "support": 26},
                                        {"support": 256}])
    def test_layers_that_do_not_fit_still_give_a_report(self, params):
        report = run_experiment(ExperimentConfig("convcnp.depth_support",
                                                 params, 0))
        assert report.error is None
        coverage = {c.name: c for c in report.checks}["coverage_ok"]
        assert coverage.value == 1.0


class TestIncomparability:
    def test_stationary_has_zero_defect(self):
        C = context_from_pairs([(0.0, 1.0), (1.3, -0.5)])
        assert equivariance_defect(RBF, C, 0.4, shift=2.0) < 1e-12

    def test_scaled_kernel_breaks_equivariance(self):
        scaled = KernelSpec(family="scaled", base=RBF,
                            amplitude=lambda p: 1.0 + 0.5 * np.sin(p[0]))
        C = context_from_pairs([(0.0, 1.0), (1.3, -0.5)])
        assert equivariance_defect(scaled, C, 0.4, shift=2.0) > 1e-3

    @pytest.mark.parametrize("seed, params", [
        (10, {}), (21, {}), (25, {}), (31, {}), (36, {}), (0, {"n": 56}),
        (0, {"n": 64}), (0, {"shift": 2 * np.pi})])
    def test_equivariance_experiment_passes(self, seed, params):
        # draws whose own non-stationary defect is below 1e-2, or 0 at a
        # shift of one period; the stored witness decides the claim
        report = run_experiment(ExperimentConfig("convcnp.equivariance",
                                                 params, seed))
        assert report.error is None and not report.failed
        assert report.measurements["witness_defect"] == \
            pytest.approx(0.5 * np.sin(1.0), rel=1e-14)

    def test_equivariance_checks_fail_without_the_amplitude(self,
                                                            monkeypatch):
        # a scaled kernel that drops its amplitude is the stationary base:
        # the witness stops moving, and the draw's defect leaves the closed
        # form, which keeps the amplitude
        original = kernels.eval_kernel

        def unscaled(spec, x, x2):
            return original(spec.base if spec.family == "scaled" else spec,
                            x, x2)

        monkeypatch.setattr(kernels, "eval_kernel", unscaled)
        report = run_experiment(ExperimentConfig("convcnp.equivariance",
                                                 {}, 0))
        assert report.verdicts == {"stationary_defect": PASS,
                                   "nonstationary_defect": INFO,
                                   "witness_defect": FAIL,
                                   "closed_form_gap": FAIL}

    def test_pure_counterexample_closed_form(self):
        out = pure_convcnp_counterexample(RBF)
        assert out["pure_output_gap"] < 1e-12
        gp_a = posterior_mean(RBF, [[1.0], [2.0]], [1.0, 1.0], np.zeros(1))
        gp_b = posterior_mean(RBF, [[1.0], [-2.0]], [1.0, 1.0], np.zeros(1))
        assert gp_a == pytest.approx(GP_MEAN_A, abs=1e-6)
        assert gp_b == pytest.approx(GP_MEAN_B, abs=1e-6)
        assert out["gp_mean_gap"] == pytest.approx(gp_b - gp_a, abs=1e-12)
        assert out["gp_mean_gap"] > 0.25

    def test_off_grid_rejected(self):
        with pytest.raises(InputError):
            pure_convcnp_counterexample(RBF, spacing=0.3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_convolution_is_commutative(seed, n):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=n), rng.normal(size=n)
    assert np.max(np.abs(circular_convolve(a, b)
                         - circular_convolve(b, a))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_convolution_theorem(seed, n):
    rng = np.random.default_rng(seed)
    a, x = rng.normal(size=n), rng.normal(size=n)
    lhs = dft(circular_convolve(a, x))
    rhs = dft(a) * dft(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
