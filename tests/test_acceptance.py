"""End-to-end acceptance gate.

Each criterion below is one test emitting a single pass/fail line; run with
``pytest -v tests/test_acceptance.py`` to see the per-criterion verdicts.

Known red: the degree-independent lower-bound constant 2/(a+b) checked in
criterion 7 exceeds the true minimax constant (b-a)/(2ab) whenever
kappa < 2 + sqrt(5) ~ 4.236, so the kappa=4 barrier sub-check fails for
every degree.  The check is implemented as stated rather than weakened;
see the repository notes for the analysis.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import nplab
from nplab import anp, cnp, convcnp, latent, polyapprox, tnp
from nplab.kernels import KernelSpec, gram_spectrum, kernel_matrix, spectrum_of
from nplab.gp_oracle import posterior_cov, posterior_mean
from nplab.rng import stream

from exact_oracles import chebyshev_exact_check

RBF = KernelSpec(family="rbf")


def _line(tag: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {tag}: {verdict}{suffix}")
    return ok


def random_spd(rng, n, kappa):
    lams = np.sort(rng.uniform(1.0 / kappa, 1.0, n))
    lams[0], lams[-1] = 1.0 / kappa, 1.0
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q * lams) @ Q.T, lams


def test_criterion_01_cnp_collisions():
    pair = cnp.example_collision_pair()
    r1, r2 = cnp.mean_encoding(pair.C), cnp.mean_encoding(pair.C2)
    encodings_equal = np.array_equal(r1, r2) and np.array_equal(r1, [1.0, 1.0])

    decoder = lambda r, x_t: float(np.tanh(r[0] + 2.0 * r[1]) - 0.7 * x_t[0])
    p1 = cnp.cnp_predict(decoder, pair.C, 1.0)
    p2 = cnp.cnp_predict(decoder, pair.C2, 1.0)
    gp_gap = abs(
        posterior_mean(RBF, pair.C.locations, pair.C.values[:, 0], 1.0)
        - posterior_mean(RBF, pair.C2.locations, pair.C2.values[:, 0], 1.0))

    ok = encodings_equal and p1 == p2 and gp_gap > 0.01
    assert _line("01 cnp-collisions", ok, f"gp gap {gp_gap:.4f}")


def test_criterion_02_cnp_lower_bound():
    worst_dev = 0.0
    worst_margin = np.inf
    for n, d in [(4, 2), (8, 2), (16, 4)]:
        out = cnp.pca_bound_experiment(n, d, mode=cnp.SYNTHETIC_ISOTROPIC,
                                       seed=0)
        worst_dev = max(worst_dev, abs(out["deviation_from_bound"]))
        worst_margin = min(worst_margin,
                           out["best_random_encoder_ratio"]
                           - out["measured_ratio"])
    ok = worst_dev <= 1e-10 and worst_margin >= -1e-9
    assert _line("02 cnp-lower-bound", ok,
                 f"max |ratio-(1-d/n)| {worst_dev:.2e}")


def test_criterion_03_anp_kernel_smoother():
    rng = stream(0, "acceptance", "kernel_smoother")
    score = anp.log_kernel_score(RBF)
    value_map = lambda C: C.values
    decoder = lambda x_t, r: float(r[0])
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 17))
        C = cnp.ContextSet(rng.uniform(-3, 3, (n, 1)),
                           rng.normal(size=(n, 1)))
        x_t = float(rng.uniform(-3, 3))
        gap = abs(anp.anp_predict(score, value_map, decoder, C, x_t)
                  - anp.nadaraya_watson(RBF, C, x_t))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    assert _line("03 anp-kernel-smoother", ok, f"max gap {worst:.2e}")


def test_criterion_04_anp_factorization():
    closed_form = (np.exp(-0.5) / (1.0 + np.exp(-2.0))
                   - np.exp(-0.5) / (1.0 + np.exp(-0.5)))
    out = anp.factorization_counterexample(RBF)
    ok = (out["gp_weight_gap"] >= 0.15
          and abs(out["gp_weight_gap"] - closed_form) <= 1e-4
          and out["score_inputs_identical"])
    assert _line("04 anp-factorization", ok,
                 f"gap {out['gp_weight_gap']:.5f} vs {closed_form:.5f}")


def test_criterion_05_tnp_polynomial_structure():
    rng = stream(0, "acceptance", "poly_structure")
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        X = np.cumsum(0.5 + rng.uniform(0, 0.4, n)).reshape(-1, 1)
        S = gram_spectrum(RBF, X)
        L = int(rng.integers(1, 9))
        alphas = rng.uniform(-1.0, 1.0, L)
        H0 = rng.normal(size=(n, 2))
        layered = polyapprox.apply_schedule(
            S.matrix, polyapprox.product_schedule(alphas), H0)
        # expanded coefficients of prod(1 + a_l x), then matrix Horner
        coeffs = np.array([1.0])
        for a in alphas:
            coeffs = np.convolve(coeffs, [1.0, a])
        P = coeffs[-1] * np.eye(n)
        for c in coeffs[-2::-1]:
            P = P @ S.matrix + c * np.eye(n)
        worst = max(worst, float(np.max(np.abs(layered - P @ H0))))
    ok = worst <= 1e-10
    assert _line("05 tnp-polynomial-structure", ok, f"max gap {worst:.2e}")


def test_criterion_06_chebyshev_upper_bound():
    rng = stream(0, "acceptance", "chebyshev_bound")
    min_margin = np.inf
    for _ in range(50):
        n = int(rng.integers(4, 17))
        kappa = float(rng.uniform(2.0, 100.0))
        _, lams = random_spd(rng, n, kappa)
        for err, bound, margin in chebyshev_exact_check(lams, range(1, 41)):
            min_margin = min(min_margin, margin)
            if margin <= 0:
                break
    matrices_ok = min_margin > 0

    # the same bound holds for the float64 matrix recurrence itself at
    # depths where the rho^(2L) margin is representable
    M, lams = random_spd(np.random.default_rng(0), 12, 60.0)
    S = spectrum_of(M)
    recurrence_ok = True
    for L in (1, 4, 8, 12):
        sched = polyapprox.chebyshev_schedule(S.lambda_min, S.lambda_max, L)
        err = polyapprox.inverse_error(
            S, polyapprox.apply_schedule(S.matrix, sched, np.eye(S.n)))
        bound = polyapprox.chebyshev_error_bound(S.lambda_min, S.lambda_max, L)
        recurrence_ok &= err <= bound * (1 + 1e-9)

    grid = convcnp.GridSpec(n=64, spacing=1.0)
    y = np.random.default_rng(1).normal(size=64)
    grid_ok = True
    for L in range(1, 41):
        out = convcnp.grid_cnn_gp(RBF, grid, y, t_index=11, L=L)
        grid_ok &= out["error_vs_oracle"] <= out["bound"] * (1 + 1e-9)

    ok = matrices_ok and recurrence_ok and grid_ok
    assert _line("06 chebyshev-upper-bound", ok,
                 f"min exact margin {min_margin:.3e}")


def test_criterion_07a_minimax_decay_slope():
    worst_rel = 0.0
    for kappa in (4.0, 16.0, 64.0):
        degrees = list(range(6, 25, 2))
        errs = [polyapprox.minimax_oracle(1.0 / kappa, 1.0, D).error
                for D in degrees]
        slope = float(np.polyfit(degrees, np.log(errs), 1)[0])
        log_rho = float(np.log(polyapprox.chebyshev_rho(kappa)))
        worst_rel = max(worst_rel, abs(slope - log_rho) / abs(log_rho))
    ok = worst_rel <= 0.05
    assert _line("07a minimax-decay-slope", ok,
                 f"worst slope deviation {worst_rel:.2%}")


@pytest.mark.parametrize("kappa", [4.0, 16.0, 64.0])
def test_criterion_07b_barrier_lower_bound(kappa):
    # NOTE: mathematically false at kappa = 4 (see module docstring); the
    # check is stated faithfully and left red there.
    worst_ratio = np.inf
    for degree in range(2, 25, 2):
        oracle = polyapprox.minimax_oracle(1.0 / kappa, 1.0, degree).error
        barrier = polyapprox.chebyshev_barrier(1.0 / kappa, 1.0, degree)
        worst_ratio = min(worst_ratio, oracle / barrier)
    ok = worst_ratio >= 1.0 - 1e-9
    assert _line(f"07b barrier-lower-bound kappa={kappa:g}", ok,
                 f"min oracle/barrier {worst_ratio:.4f}")


def test_criterion_07c_depth_ratio():
    ok = True
    details = []
    for kappa in (16.0, 64.0):
        dc = polyapprox.depth_to_target(polyapprox.CHEBYSHEV,
                                        1.0 / kappa, 1.0, 1e-6)
        dn = polyapprox.depth_to_target(polyapprox.NEUMANN,
                                        1.0 / kappa, 1.0, 1e-6)
        limit = (2.0 / np.sqrt(kappa) + 0.2) * dn
        ok &= dc <= limit
        details.append(f"kappa={kappa:g}: {dc} vs {dn} (limit {limit:.1f})")
    assert _line("07c chebyshev-vs-neumann-depth", ok, "; ".join(details))


def test_criterion_08_jacobians():
    # linear attention pipeline
    rng = stream(0, "acceptance", "jacobians")
    X = np.cumsum(0.6 + rng.uniform(0, 0.3, 6)).reshape(-1, 1)
    F = tnp.pipeline_as_map(RBF, X, 0.4, 5)
    J = tnp.fd_jacobian(F, np.zeros(6))[0]
    row = tnp.gp_weight_row(RBF, X, 0.4, 5)
    tnp_gap = float(np.max(np.abs(J - row)))

    # nonlinear grid stacks
    n = 32
    Fm = convcnp.dft_matrix(n)
    w_row = np.exp(-0.5 * (np.minimum(np.arange(n), n - np.arange(n))
                           * 0.5) ** 2)
    conv_gap = 0.0
    for _ in range(20):
        n_layers = int(rng.integers(1, 4))
        filters = [rng.normal(scale=0.3, size=5) for _ in range(n_layers)]
        g_row = rng.normal(scale=0.2, size=n)
        Fmap = convcnp.grid_forward_map(filters, w_row, g_row)
        Jm = tnp.fd_jacobian(lambda y: Fmap(y), np.zeros(n))
        pred = convcnp.circulant_jacobian(
            filters, [0.5] * n_layers, convcnp.circulant(w_row),
            convcnp.circulant(g_row))
        symbol_fd = np.diag(Fm @ Jm @ Fm.conj().T / n)
        conv_gap = max(conv_gap, float(np.max(np.abs(
            symbol_fd - pred.dft_eigenvalues))))
    ok = tnp_gap <= 1e-6 and conv_gap <= 1e-5
    assert _line("08 jacobians", ok,
                 f"tnp {tnp_gap:.2e}, convcnp per-frequency {conv_gap:.2e}")


def test_criterion_09_eigenvalue_family():
    worst = 0.0
    for kappa in (4.0, 16.0, 64.0):
        for t in np.linspace(0.0, 1.0 - 1.0 / kappa, 20):
            member = tnp.eig_family(kappa, 8, float(t))
            row_sums = member.matrix @ np.ones(8)
            evals = np.sort(np.linalg.eigvalsh(member.matrix))
            worst = max(worst,
                        float(np.max(np.abs(row_sums - 1.0))),
                        abs(evals[0] - (1.0 / kappa + t)),
                        float(np.max(np.abs(evals[1:] - 1.0))))
    ok = worst <= 1e-10
    assert _line("09 eigenvalue-family", ok, f"max deviation {worst:.2e}")


def test_criterion_10_full_support():
    worst = 0.0
    for n in (8, 32, 128):
        grid = convcnp.GridSpec(n=n, spacing=1.0)
        K = convcnp.circulant(convcnp.wrapped_kernel_row(RBF, grid))
        e0 = np.zeros(n)
        e0[0] = 1.0
        ident = convcnp.circulant(e0)
        tau = convcnp.full_support_solve(K, ident, ident, d1=0.5)
        J = convcnp.circulant_jacobian([tau], [0.5], ident, ident)
        worst = max(worst, float(np.max(np.abs(
            J.dft_eigenvalues * K.dft_eigenvalues.real - 1.0))))
    ok = worst <= 1e-8
    assert _line("10 full-support", ok, f"max |J_hat lam - 1| {worst:.2e}")


def test_criterion_11_latent_bottlenecks():
    rng = stream(0, "acceptance", "latent")

    # (a) covariance rank on 100 random rank-k models
    rank_worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        B = rng.normal(size=(k, k))
        freqs = 1.0 + rng.uniform(0, 2, k)

        def a(x, _f=freqs):
            return np.cos(_f * float(np.atleast_1d(x)[0]) + _f ** 2)

        model = latent.RankKLatent(k=k, a=a, b=lambda x: 0.0,
                                   m=rng.normal(size=k), S=B @ B.T)
        X_T = np.linspace(-2, 2, 3 * k + 4).reshape(-1, 1)
        cov = latent.latent_predictive(model, X_T)["cov"]
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        tr = max(float(np.trace(cov)), 1e-300)
        rank_worst = max(rank_worst, float(evals[k]) / tr)

    # (b) exact GP posterior covariance stays full rank
    min_eig = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        pts = np.cumsum(0.6 + rng.uniform(0, 0.4, n + m))
        pts = pts + rng.uniform(-0.1, 0.1)
        X_C, X_T = pts[:n].reshape(-1, 1), pts[n:].reshape(-1, 1)
        cov = posterior_cov(RBF, X_C, X_T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(cov).min()))

    # (c) mean matching at k = n and k <= n/2
    X_C = np.cumsum(0.7 + rng.uniform(0, 0.3, 8)).reshape(-1, 1)
    X_T = X_C + 0.31
    Phi = latent.posterior_weight_matrix(RBF, X_C, X_T)
    res_full = latent.mean_matching_residual(RBF, X_C, X_T, k=8)
    res_half = latent.mean_matching_residual(RBF, X_C, X_T, k=4)

    # (d) polynomial-kernel Mercer tail truncates exactly
    poly = KernelSpec(family="polynomial", degree=2, jitter=0.0)
    grid = np.linspace(-1, 1, 40).reshape(-1, 1)
    tails = [latent.mercer_tail(poly, grid, k)["tail_trace"]
             for k in (3, 4, 5)]

    ok = (rank_worst <= 1e-8
          and min_eig > 1e-10
          and res_full <= 1e-8
          and res_half > 0.01 * np.linalg.norm(Phi)
          and all(t == 0.0 for t in tails))
    assert _line("11 latent-bottlenecks", ok,
                 f"rank ratio {rank_worst:.1e}, min eig {min_eig:.1e}, "
                 f"residuals {res_full:.1e}/{res_half:.3f}")


def test_criterion_12_hierarchy_suite():
    # run this checkout's sources, whatever the caller's PYTHONPATH holds
    src = os.path.dirname(os.path.dirname(nplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "nplab", "suite",
                           "hierarchy"], capture_output=True, text=True,
                          env=env)
    ok = proc.returncode == 0 and "overall: pass" in proc.stdout
    assert _line("12 hierarchy-suite", ok,
                 f"exit code {proc.returncode}")
