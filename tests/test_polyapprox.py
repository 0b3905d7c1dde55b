import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab import polyapprox
from nplab.convcnp import (GridSpec, circulant_matrix,
                           depth_support_experiment, nearest_neighbor_row,
                           trig_minimax_error, wrapped_kernel_row)
from nplab.errors import InputError, NumericError
from nplab.kernels import KernelSpec, spectrum_of
from nplab.polyapprox import (CHEBYSHEV, DEFAULT_GRID, NEUMANN, PRODUCT,
                              chebyshev_barrier,
                              chebyshev_error_bound, chebyshev_exact_check,
                              chebyshev_rho, chebyshev_schedule,
                              depth_to_target, equioscillation_count,
                              apply_schedule, inverse_error, minimax_oracle,
                              product_schedule, remez_discrete,
                              schedule_spectral_error_exact)


def random_spd(seed, n=8, kappa=50.0):
    """SPD matrix with eigenvalues in [1/kappa, 1], both endpoints present."""
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(1.0 / kappa, 1.0, n))
    lams[0], lams[-1] = 1.0 / kappa, 1.0
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q * lams) @ Q.T, lams


class TestSchedules:
    def test_chebyshev_nodes_depth_two(self):
        # mid 2.5, rad 1.5, cos(pi/4): nodes 2.5 +- 1.5/sqrt(2)
        sched = chebyshev_schedule(1.0, 4.0, 2)
        hi = 2.5 + 1.5 / np.sqrt(2.0)
        lo = 2.5 - 1.5 / np.sqrt(2.0)
        nodes = 1 / np.asarray(sched.coefficients)
        assert np.sort(nodes) == pytest.approx([lo, hi], abs=1e-14)

    def test_rho_closed_form(self):
        assert chebyshev_rho(4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert chebyshev_rho(1.0) == 0.0

    def test_interleaving_order(self):
        sched = chebyshev_schedule(1.0, 4.0, 5)
        nodes = 1 / np.asarray(sched.coefficients)
        raw = 2.5 + 1.5 * np.cos((2 * np.arange(1, 6) - 1) * np.pi / 10)
        expected = raw[[0, 4, 1, 3, 2]]
        assert np.max(np.abs(nodes - expected)) < 1e-14

    def test_product_poly_is_one_at_zero(self):
        sched = product_schedule([-0.3, 0.1, -0.05])
        vals = apply_schedule([[1e-12]], sched, np.array([1.0]))
        assert vals[0] == pytest.approx(1.0, abs=1e-9)

    def test_bad_intervals(self):
        with pytest.raises(InputError):
            chebyshev_schedule(0.0, 1.0, 3)
        with pytest.raises(InputError):
            chebyshev_schedule(1.0, 2.0, 0)


class TestApplySchedule:
    @pytest.mark.parametrize("form", [CHEBYSHEV, PRODUCT])
    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_matrix_matches_scalar_values(self, form, L):
        # a fixed seed per case, so that a failure reproduces
        M, lams = random_spd(seed=10 * L + (form == PRODUCT), kappa=30.0)
        S = spectrum_of(M)
        sched = chebyshev_schedule(S.lambda_min, S.lambda_max, L)
        if form == PRODUCT:  # the residual polynomial prod(1 - lambda/x_l)
            sched = product_schedule(-np.asarray(sched.coefficients))
        X = apply_schedule(S.matrix, sched, np.eye(S.n))
        # the schedule's scalar polynomial at each eigenvalue: p(lambda) =
        # prod(1 + alpha_l lambda) for PRODUCT, q(lambda) = (1 - r) / lambda
        # with r = prod(1 - c_l lambda) for CHEBYSHEV
        lam = S.eigenvalues
        sign = 1.0 if form == PRODUCT else -1.0
        prod = np.ones_like(lam)
        for c in sched.coefficients:
            prod *= 1.0 + sign * c * lam
        vals = prod if form == PRODUCT else (1.0 - prod) / lam
        ref = (S.eigenvectors * vals) @ S.eigenvectors.T
        assert np.max(np.abs(X - ref)) < 1e-9

    def test_chebyshev_error_under_bound_float64(self):
        for seed in range(5):
            M, _ = random_spd(seed, kappa=60.0)
            S = spectrum_of(M)
            for L in (1, 2, 5, 10):
                sched = chebyshev_schedule(S.lambda_min, S.lambda_max, L)
                Q = apply_schedule(S.matrix, sched, np.eye(S.n))
                err = inverse_error(S, Q)
                bound = chebyshev_error_bound(S.lambda_min, S.lambda_max, L)
                assert err <= bound * (1.0 + 1e-9)

    @pytest.mark.parametrize("form", [CHEBYSHEV, PRODUCT])
    def test_circulant_dense_matches_convolution(self, form):
        row = wrapped_kernel_row(KernelSpec(family="rbf", lengthscale=1.0),
                                 GridSpec(n=32, spacing=1.0))
        K = circulant_matrix(row)
        lam = np.linalg.eigvalsh(K)
        rng = np.random.default_rng(4)
        if form == CHEBYSHEV:
            sched = chebyshev_schedule(lam[0], lam[-1], 12)
        else:
            sched = product_schedule(rng.uniform(-0.3, 0.3, 6))
        y = rng.normal(size=32)
        dense = apply_schedule(K, sched, y)

        def convolve(x):  # the direct sum over m of row[m] x[(i - m) mod n]
            n = len(row)
            return np.array([sum(row[m] * x[(i - m) % n] for m in range(n))
                             for i in range(n)])

        # the same layers, each one a circular convolution with the row
        conv = y if form == PRODUCT else np.zeros_like(y)
        for c in sched.coefficients:
            if form == PRODUCT:
                conv = conv + c * convolve(conv)
            else:
                conv = conv + c * (y - convolve(conv))
        assert np.linalg.norm(dense - conv) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("M, rhs", [
        (np.ones((3, 4)), np.zeros(4)),
        (np.eye(3), np.zeros(4)),
        (np.eye(3), np.zeros((4, 2)))],
        ids=["non-square", "vector-length", "block-height"])
    def test_dimension_mismatch(self, M, rhs):
        with pytest.raises(InputError):
            apply_schedule(M, product_schedule([0.1]), rhs)


class TestExactChecks:
    def test_margin_positive_at_all_depths(self):
        _, lams = random_spd(5, kappa=80.0)
        for err, bound, margin in chebyshev_exact_check(lams,
                                                        (1, 5, 20, 40)):
            assert margin > 0
            assert err <= bound

    def test_matches_float64_at_shallow_depth(self):
        _, lams = random_spd(9, kappa=25.0)
        sched = chebyshev_schedule(lams[0], lams[-1], 3)
        err_f64 = schedule_spectral_error_exact(lams, sched)
        [(err_mp, _, _)] = chebyshev_exact_check(lams, [3])
        assert err_f64 == pytest.approx(err_mp, rel=1e-10)

    def test_degenerate_spectrum(self):
        [(err, bound, margin)] = chebyshev_exact_check([2.0, 2.0, 2.0], [5])
        assert err == 0.0 and margin > 0


class TestDepthSearch:
    def test_monotone_in_eps(self):
        d_loose = depth_to_target(CHEBYSHEV, 0.1, 1.0, 1e-1)
        d_tight = depth_to_target(CHEBYSHEV, 0.1, 1.0, 1e-4)
        assert d_tight > d_loose

    def test_chebyshev_beats_neumann(self):
        for kappa in (16.0, 64.0):
            dc = depth_to_target(CHEBYSHEV, 1.0 / kappa, 1.0, 1e-3)
            dn = depth_to_target(NEUMANN, 1.0 / kappa, 1.0, 1e-3)
            assert dc < dn

    def test_depth_consistent_with_bound(self):
        # the bound-implied depth is an upper bound for the measured one
        a, b, eps = 1.0 / 32.0, 1.0, 1e-5
        d = depth_to_target(CHEBYSHEV, a, b, eps)
        rho = chebyshev_rho(b / a)
        d_bound = int(np.ceil(np.log(eps * a / 2.0) / np.log(rho)))
        assert d <= d_bound


class TestMinimaxOracle:
    def test_degree_zero_closed_form(self):
        # best constant for 1/mu on [1/4, 1] is the midrange of [1, 4]
        res = minimax_oracle(0.25, 1.0, 0)
        assert res.error == pytest.approx(1.5, abs=1e-9)
        assert res.evaluate(0.5) == pytest.approx(2.5, abs=1e-9)

    @pytest.mark.parametrize("a,b", [(0.25, 1.0), (1.0, 16.0)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
    def test_matches_closed_form_decay(self, a, b, degree):
        # exact minimax error of 1/mu: ((b-a)/(2ab)) rho^degree
        res = minimax_oracle(a, b, degree)
        closed = ((b - a) / (2.0 * a * b)) * chebyshev_rho(b / a) ** degree
        assert res.error == pytest.approx(closed, rel=1e-4)
        assert res.error <= closed * (1.0 + 1e-12)  # discrete grid can only help

    @pytest.mark.parametrize("kappa", [4.0, 16.0, 64.0])
    def test_remez_matches_continuum_minimax_error(self, kappa):
        # Chebyshev-Achieser: the best degree-n error of 1/mu on [a, b] is
        # E_n = (b-a)/(2ab) rho^n; the default grid stays within 1e-3 of it
        a = 1.0 / kappa
        for n in range(17):
            closed = ((1.0 - a) / (2.0 * a)) * chebyshev_rho(kappa) ** n
            assert minimax_oracle(a, 1.0, n).error == pytest.approx(
                closed, rel=1e-3)
            assert closed / chebyshev_barrier(a, 1.0, n) == pytest.approx(
                (kappa ** 2 - 1.0) / (4.0 * kappa), rel=1e-12)

    def test_equioscillation(self):
        for degree in (1, 3, 6):
            res = minimax_oracle(0.1, 1.0, degree)
            assert equioscillation_count(res) >= degree + 2

    def test_error_monotone_in_degree(self):
        errs = [minimax_oracle(0.05, 1.0, d).error for d in range(6)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_barrier_below_oracle_for_well_conditioned(self):
        for degree in (2, 4, 8):
            res = minimax_oracle(1.0 / 16.0, 1.0, degree)
            assert res.error >= chebyshev_barrier(1.0 / 16.0, 1.0, degree)

    def test_barrier_frozen_values(self):
        assert chebyshev_barrier(0.25, 1.0, 0) == pytest.approx(1.6, abs=1e-14)
        assert chebyshev_barrier(0.25, 1.0, 3) == pytest.approx(1.6 / 27.0,
                                                                abs=1e-14)

    def test_remez_recovers_polynomial_data(self):
        xs = np.linspace(-1.0, 2.0, 300)
        fs = 3.0 - 2.0 * xs + 0.5 * xs ** 2
        _, err = remez_discrete(xs, fs, 2)
        assert err < 1e-10

    def test_remez_known_abs_value(self):
        # best degree-2 fit to |x| on [-1, 1] is x^2 + 1/8 with error 1/8
        xs = np.linspace(-1.0, 1.0, 2001)
        _, err = remez_discrete(xs, np.abs(xs), 2)
        assert err == pytest.approx(0.125, abs=1e-6)

    def test_usage_errors(self):
        with pytest.raises(InputError):
            minimax_oracle(1.0, 0.5, 2)
        with pytest.raises(InputError):
            minimax_oracle(0.5, 1.0, -1)
        with pytest.raises(InputError):
            minimax_oracle(0.5, 1.0, DEFAULT_GRID // 10 - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_exact_check_dominates_float64_error(seed, L):
    _, lams = random_spd(seed, n=6, kappa=float(10 + seed % 90))
    [(err, bound, margin)] = chebyshev_exact_check(lams, [L])
    assert 0 <= err <= bound and margin > 0


def _reference_sign_run_peaks(resid):
    """The per-point scan remez_discrete used before its array form, kept
    as the oracle for `polyapprox._sign_run_peaks`."""
    sgn = np.where(resid >= 0, 1, -1)
    cands = []
    start = 0
    for i in range(1, len(resid) + 1):
        if i == len(resid) or sgn[i] != sgn[start]:
            seg = np.abs(resid[start:i])
            cands.append(start + int(np.argmax(seg)))
            start = i
    return np.asarray(cands)


def _assert_same_peaks(resid):
    resid = np.asarray(resid, dtype=float)
    got = polyapprox._sign_run_peaks(resid)
    want = _reference_sign_run_peaks(resid)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, want), (resid, got, want)


class TestSignRunPeaks:
    # small integers make exact ties and zeros common
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_matches_loop_with_ties_and_zeros(self, values):
        _assert_same_peaks(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False,
                              allow_subnormal=True),
                    min_size=1, max_size=60))
    def test_matches_loop_on_floats(self, values):
        _assert_same_peaks(values)

    @pytest.mark.parametrize("resid,want", [
        ([2.0, 5.0, 5.0, 1.0], [1]),                 # one run, tie -> left
        ([0.0, -0.0, 0.0], [0]),                     # zeros count as +
        ([-1.0, 0.0, -2.0], [0, 1, 2]),              # a zero splits a run
        ([1.0, -1.0, 1.0, -1.0, 1.0], [0, 1, 2, 3, 4]),  # strict alternation
        ([-3.0, -3.0, 2.0, 4.0, 4.0, -1.0], [0, 3, 5]),
        ([7.0], [0]),
    ])
    def test_cases(self, resid, want):
        _assert_same_peaks(resid)
        assert polyapprox._sign_run_peaks(np.asarray(resid)).tolist() == want

    def test_nonfinite_residual_is_a_numeric_error(self):
        xs = np.linspace(0.0, 1.0, 50)
        fs = np.where(xs > 0.5, np.inf, xs)
        with pytest.raises(NumericError, match="not finite"):
            remez_discrete(xs, fs, 2)


class TestRemezBitIdentical:
    """Remez with the array scan returns exactly what it returned with the
    per-point loop."""

    @pytest.fixture
    def loop_scan(self, monkeypatch):
        def use_loop():
            monkeypatch.setattr(polyapprox, "_sign_run_peaks",
                                _reference_sign_run_peaks)
        return use_loop

    @pytest.mark.parametrize("a,b,degree", [
        (0.25, 1.0, 3), (1.0 / 16.0, 1.0, 8), (1.0 / 64.0, 1.0, 16),
        (0.1, 1.0, 0), (1.0, 16.0, 5), (1.0 / 4.0, 1.0, 12)])
    def test_minimax_oracle(self, a, b, degree, loop_scan):
        fast = minimax_oracle(a, b, degree)
        loop_scan()
        assert minimax_oracle(a, b, degree) == fast

    def test_trig_minimax_error(self, loop_scan):
        omega = 2.0 * np.pi * np.arange(64) / 64
        rng = np.random.default_rng(3)
        target = 1.0 / (1.5 + np.cos(omega) + 0.2 * rng.uniform(size=64))
        fast = [trig_minimax_error(np.cos(omega), target, D)
                for D in range(12)]
        loop_scan()
        assert [trig_minimax_error(np.cos(omega), target, D)
                for D in range(12)] == fast

    def test_grid_256_depth_support(self, loop_scan):
        # the depth_support config of the benchmark's grid_256 workload,
        # with the affine-symbol run its experiment makes
        spec = KernelSpec(family="rbf", lengthscale=1.0)
        grid = GridSpec(n=256, spacing=1.0)
        eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        row = nearest_neighbor_row(2.5, 0.75, 256)

        def both():
            return (depth_support_experiment(spec, grid, 4, eps),
                    depth_support_experiment(spec, grid, 4, [1e-2],
                                             first_row=row))
        fast = both()
        loop_scan()
        assert both() == fast


@pytest.mark.parametrize("a", [
    [], [2.0], [-0.0, 0.0, 0.0, 1.0], [1, 1, 2, 3, 3, 3],
    np.round(np.cos(np.linspace(np.pi, 0.0, 64)), 2)])
def test_distinct_sorted_is_unique_with_first_index(a):
    # the Remez reference and trig_minimax_error's grid take their
    # distinct values from it in place of np.unique(return_index=True)
    a = np.asarray(a)
    values, index = polyapprox._distinct_sorted(a)
    want_values, want_index = np.unique(a, return_index=True)
    assert values.dtype == want_values.dtype
    assert values.tobytes() == want_values.tobytes()
    assert np.array_equal(index, want_index)


def _reference_chebyshev_exact_check(eigenvalues, L):
    """The single-depth check as it was written before it took a sequence
    of depths, frozen as the oracle of the depth-free reuse."""
    import mpmath as mp
    if L < 1:
        raise InputError("depth must be at least 1")
    with mp.workdps(80):
        lams = [mp.mpf(float(v)) for v in np.asarray(eigenvalues, dtype=float)]
        a, b = min(lams), max(lams)
        if a <= 0:
            raise InputError("spectrum must be positive")
        if a == b:
            return 0.0, float(2 / a), float(2 / a)
        u0 = (b + a) / (b - a)
        TL0 = mp.cosh(L * mp.acosh(u0))
        err = mp.mpf(0)
        for lam in lams:
            u = (b + a - 2 * lam) / (b - a)
            u = max(mp.mpf(-1), min(mp.mpf(1), u))
            err = max(err, abs(mp.cos(L * mp.acos(u))) / (lam * TL0))
        rho = (mp.sqrt(b / a) - 1) / (mp.sqrt(b / a) + 1)
        bound = 2 / a * rho ** L
        return float(err), float(bound), float(bound - err)


EXACT_CHECKS = [(chebyshev_exact_check, _reference_chebyshev_exact_check)]


@pytest.mark.parametrize("check, reference", EXACT_CHECKS)
@pytest.mark.parametrize("seed", range(6))
def test_depth_sequence_matches_single_depth_reference(check, reference,
                                                       seed):
    # the depths polyapprox.inverse_bounds runs, repeated and unordered
    # ones, on spectra with and without a repeated extreme
    rng = np.random.default_rng(seed)
    _, lams = random_spd(seed, n=int(rng.integers(4, 17)),
                         kappa=float(rng.uniform(2.0, 1000.0)))
    if seed % 2:
        lams = np.concatenate([lams, lams[:1], lams[-1:]])
    depths = [1, 3, 5, 40, 100, 7, 3]
    got = check(lams, depths)
    assert got == [reference(lams, L) for L in depths]


@pytest.mark.parametrize("check, reference", EXACT_CHECKS)
def test_depth_sequence_edge_cases(check, reference):
    flat = [2.0, 2.0, 2.0]
    assert check(flat, [1, 5]) == [reference(flat, 1), reference(flat, 5)]
    assert check([0.5, 1.0], []) == []
    for bad_depths, lams in (([3, 0], [0.5, 1.0]), ([2], [0.0, 1.0]),
                             ([2], [-1.0, 1.0])):
        with pytest.raises(InputError) as got:
            check(lams, bad_depths)
        with pytest.raises(InputError) as want:
            for L in bad_depths:
                reference(lams, L)
        assert str(got.value) == str(want.value)
