"""The experiments' runners, one per declaration in `lab.REGISTRY`.

Each runner takes its experiment's validated params and seed and returns a
list of `Check`s.  `lab` imports this module when the first experiment
runs, so that numpy and the compute modules load only then.  Compute code
is called through its module's attributes (`kernels.kernel_matrix`, not a
name bound at import), so that a tracer or a test that replaces a module's
function sees every call.
"""

from __future__ import annotations

import numpy as np

from . import anp, cnp, convcnp, kernels, latent, linalg, polyapprox, rng, tnp
from .errors import NumericError
from .lab import Check


def _rbf(ell=1.0) -> kernels.KernelSpec:
    return kernels.KernelSpec(family="rbf", lengthscale=ell)


def _run_cnp_collision(params, seed):
    pair = cnp.example_collision_pair()
    decoder = lambda r, x: r[0]
    x_t = params["x_t"]
    out1 = cnp.cnp_predict(decoder, pair.C, x_t)
    out2 = cnp.cnp_predict(decoder, pair.C2, x_t)
    sep = cnp.collision_separation(_rbf(), pair.C, pair.C2, x_t)
    return [Check("encoding_gap", pair.encoding_gap, 0.0, "=="),
            Check("cnp_output_gap", abs(out1 - out2), 0.0, "=="),
            Check("gp_separation", sep, 0.01, ">")]


def _run_pca_bound(params, seed):
    spec = _rbf(params["lengthscale"]) \
        if params["mode"] == cnp.MONTE_CARLO_STATIONARY else None
    rep = cnp.pca_bound_experiment(
        params["n"], params["d"], mode=params["mode"], spec=spec,
        n_targets=params["n_targets"], seed=seed)
    ratio = rep["measured_ratio"]
    synthetic = params["mode"] == cnp.SYNTHETIC_ISOTROPIC
    return [
        Check("measured_ratio", ratio,
              rep["bound"] - 1e-10 if synthetic else rep["bound"],
              ">=" if synthetic else "info"),
        Check("ratio_deviation", abs(rep["deviation_from_bound"]), 1e-10,
              "<=" if synthetic else "info"),
        Check("dominance_margin", ratio - rep["best_random_encoder_ratio"],
              1e-9, "<="),
    ]


def _run_kernel_smoother(params, seed):
    # all contexts come from one stream, each padded to n_max draws (the
    # first n of a row have the law of n draws), and each context size is
    # one batch
    spec = _rbf(params["lengthscale"])
    score = anp.log_kernel_score(spec)
    value_map = lambda C: np.concatenate(
        (C.values, np.ones_like(C.values)), axis=-1)
    decoder = lambda x, r: r[..., 0] / r[..., 1]
    N, n_max = params["n_configs"], params["n_max"]
    gen = rng.stream(seed, "anp.kernel_smoother")
    sizes = gen.integers(1, n_max + 1, N)
    locations = gen.uniform(-3, 3, (N, n_max))
    values = gen.normal(size=(N, n_max))
    targets = gen.uniform(-3, 3, N)
    worst = 0.0
    # the sizes that occur, without np.unique (which loads numpy.ma)
    for n in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == n)
        C = cnp.ContextSet(locations[rows, :n, None], values[rows, :n, None])
        x_t = targets[rows, None]
        a = anp.anp_predict(score, value_map, decoder, C, x_t)
        b = anp.nadaraya_watson(spec, C, x_t)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return [Check("max_gap", worst, 1e-10, "<=")]


def _run_factorization(params, seed):
    rep = anp.factorization_counterexample(
        _rbf(), angle_a_deg=params["angle_a"], angle_b_deg=params["angle_b"])
    gap = rep["gp_weight_gap"]
    closed_form = (np.exp(-0.5) / (1 + np.exp(-2.0))
                   - np.exp(-0.5) / (1 + np.exp(-0.5)))
    default_angles = params["angle_a"] == 180.0 and params["angle_b"] == 60.0
    return [
        Check("gp_weight_gap", gap, 0.15, ">=" if default_angles else "info"),
        Check("closed_form_deviation", abs(gap - closed_form),
              1e-4, "<=" if default_angles else "info"),
        Check("score_inputs_identical",
              1.0 if rep["score_inputs_identical"] else 0.0, 1.0, "=="),
    ]


def _expanded_product(A: np.ndarray, alphas, H: np.ndarray) -> np.ndarray:
    coeffs = np.array([1.0])
    for a in alphas:
        coeffs = np.convolve(coeffs, np.array([1.0, a]))
    out = coeffs[-1] * H
    for c in coeffs[-2::-1]:
        out = A @ out + c * H
    return out


def _run_poly_structure(params, seed):
    worst = 0.0
    for i in range(params["n_grams"]):
        gen = rng.stream(seed, "tnp.polynomial_structure", i)
        X = gen.uniform(-3, 3, (params["n"], 1))
        A = tnp.normalize_attention(kernels._gram_matrix(_rbf(), X))
        L = 1 + i % params["max_depth"]
        alphas = gen.uniform(-1.5, 1.5, L)
        H0 = gen.normal(size=(params["n"], 2))
        sched = polyapprox.product_schedule(alphas)
        layerwise = polyapprox.apply_schedule(A, sched, H0)
        expanded = _expanded_product(A, alphas, H0)
        worst = max(worst, float(np.max(np.abs(layerwise - expanded))))
    return [Check("max_deviation", worst, 1e-10, "<=")]


def _run_eig_family(params, seed):
    dev_rows = dev_quad = dev_spec = 0.0
    members = [tnp.eig_family(kappa, params["n"], t)
               for kappa in params["kappas"]
               for t in np.linspace(0.0, 1.0 - 1.0 / kappa,
                                    params["t_points"])]
    spectra = linalg.jacobi_eigvalsh_many([mem.matrix for mem in members])
    for mem, vals in zip(members, spectra):
        dev_rows = max(dev_rows, float(np.max(np.abs(
            mem.matrix @ np.ones(mem.n) - 1.0))))
        dev_quad = max(dev_quad, abs(
            float(mem.v1 @ mem.matrix @ mem.v1) - mem.mu1))
        expected = np.sort(np.concatenate([[mem.mu1], np.ones(mem.n - 1)]))
        dev_spec = max(dev_spec, float(np.max(np.abs(vals - expected))))
    return [Check("row_sum_deviation", dev_rows, 1e-10, "<="),
            Check("eigenvalue_deviation", dev_quad, 1e-10, "<="),
            Check("spectrum_deviation", dev_spec, 1e-10, "<=")]


# contexts tnp.gp_pipeline draws before it gives up; each draw factors a Gram
_PIPELINE_DRAWS = 200


def _run_gp_pipeline(params, seed):
    spec = _rbf(params["lengthscale"])
    max_kappa = params["max_kappa"]
    best = np.inf  # smallest kappa of a rejected draw
    for attempt in range(_PIPELINE_DRAWS):
        gen = rng.stream(seed, "tnp.gp_pipeline", attempt)
        gaps = params["min_separation"] + gen.uniform(0.0, 0.4, params["n"])
        xs = np.cumsum(gaps)
        S = kernels.gram_spectrum(spec, xs.reshape(-1, 1))
        if S.kappa <= max_kappa:
            break
        best = min(best, S.kappa)
    else:
        raise NumericError(
            f"no context of {params['n']} points had kappa <= {max_kappa:g} "
            f"in {_PIPELINE_DRAWS} draws; the best kappa was {best:.6g}",
            bracket=(best, max_kappa))
    y = gen.normal(size=params["n"])
    C = cnp.ContextSet(xs.reshape(-1, 1), y.reshape(-1, 1))
    x_t = gen.uniform(0.0, 12.0, 1)
    rep = tnp.tnp_gp_pipeline(spec, C, x_t, params["L"], spectrum=S)
    return [Check("error_vs_oracle", rep["error_vs_oracle"], rep["bound"],
                  "<="),
            Check("kappa", rep["kappa"], None, "info")]


def _run_depth_barrier(params, seed):
    rep = tnp.depth_barrier_experiment(
        params["kappa"], params["n"], params["L"], params["t_grid"],
        seed=seed, eps=params["eps"])
    slope_dev = abs(rep["decay_slope"] - rep["log_rho"]) / abs(rep["log_rho"])
    return [Check("fit_residual", rep["fit_residual"], 1e-8, "<="),
            Check("slope_relative_deviation", slope_dev, 0.05, "<="),
            Check("oracle_error", rep["oracle_error"], rep["barrier"], ">="),
            Check("implied_min_depth", rep["implied_min_depth"], None, "info")]


def _run_minimax_decay(params, seed):
    kappa = params["kappa"]
    degs = params["degrees"]
    errs = [polyapprox.minimax_oracle(1.0 / kappa, 1.0, d).error for d in degs]
    slope = float(np.polyfit(degs, np.log(errs), 1)[0])
    log_rho = float(np.log(polyapprox.chebyshev_rho(kappa)))
    slope_dev = abs(slope - log_rho) / abs(log_rho)
    d_cheb = polyapprox.depth_to_target(
        polyapprox.CHEBYSHEV, 1.0 / kappa, 1.0, params["eps"])
    d_neu = polyapprox.depth_to_target(
        polyapprox.NEUMANN, 1.0 / kappa, 1.0, params["eps"])
    return [Check("slope_relative_deviation", slope_dev, 0.05, "<="),
            Check("depth_ratio", d_cheb / d_neu, 2.0 / np.sqrt(kappa) + 0.2,
                  "<="),
            Check("chebyshev_depth", d_cheb, None, "info"),
            Check("neumann_depth", d_neu, None, "info")]


def _sigma(x):
    """The amplitude 1 + sin(x) / 2 of the non-stationary scaled kernel."""
    return 1.0 + 0.5 * np.sin(x)


def _run_equivariance(params, seed):
    gen = rng.stream(seed, "convcnp.equivariance")
    C = cnp.ContextSet(gen.uniform(-2, 2, (params["n"], 1)),
                       gen.normal(size=(params["n"], 1)))
    x_t = gen.uniform(-2, 2, 1)
    shift = params["shift"]
    stationary = convcnp.equivariance_defect(_rbf(), C, x_t, shift)
    scaled = kernels.KernelSpec(family="scaled", base=_rbf(),
                                amplitude=lambda p: _sigma(p[0]))
    drawn = convcnp.equivariance_defect(scaled, C, x_t, shift)

    # the same smoother written out: weights sigma(p_i) exp(-(p_i - p_t)^2
    # / 2) on the points moved by s (sigma(p_t) cancels in the ratio)
    def smoother(s):
        p = C.locations[:, 0] + s
        w = _sigma(p) * np.exp(-0.5 * (p - (x_t[0] + s)) ** 2)
        return w @ C.values[:, 0] / w.sum()

    closed_form = abs(smoother(shift) - smoother(0.0))
    # the stored witness: x = (-1, 1), y = (0, 1), x_t = 0 give
    # F(s) = (1 + sin(1 + s) / 2) / (2 + sin(s) cos(1)), so shift pi moves
    # the prediction by exactly sin(1) / 2
    witness = cnp.ContextSet(np.array([[-1.0], [1.0]]),
                             np.array([[0.0], [1.0]]))
    witness_defect = convcnp.equivariance_defect(scaled, witness, 0.0, np.pi)
    return [Check("stationary_defect", stationary, 1e-10, "<="),
            Check("nonstationary_defect", drawn, None, "info"),
            Check("witness_defect", witness_defect, 1e-2, ">"),
            Check("closed_form_gap", abs(drawn - closed_form), 1e-12, "<=")]


def _run_grid_gp(params, seed):
    gen = rng.stream(seed, "convcnp.grid_gp")
    grid = convcnp.GridSpec(n=params["n"], spacing=params["spacing"])
    y = gen.normal(size=params["n"])
    t_index = int(gen.integers(0, params["n"]))
    worst_excess = -np.inf
    kappa = None
    for L in params["depths"]:
        rep = convcnp.grid_cnn_gp(_rbf(params["lengthscale"]), grid, y,
                                  t_index, L)
        worst_excess = max(worst_excess,
                           rep["error_vs_oracle"] - rep["bound"])
        kappa = rep["kappa"]
    return [Check("worst_bound_excess", worst_excess, 1e-6, "<="),
            Check("kappa", kappa, None, "info")]


def _run_jacobian(params, seed):
    n = params["n"]
    grid = convcnp.GridSpec(n=n, spacing=1.0)
    w_row = convcnp.wrapped_kernel_row(_rbf(params["lengthscale"]), grid)
    w_hat = convcnp.circulant(w_row)
    worst = 0.0
    for i in range(params["n_stacks"]):
        gen = rng.stream(seed, "convcnp.jacobian", i)
        L = 1 + int(gen.integers(0, params["max_layers"]))
        filters = [gen.uniform(-0.2, 0.2, params["support"]) for _ in range(L)]
        g_short = gen.uniform(-0.5, 0.5, 3)
        g_row = np.zeros(n)
        g_row[:3] = g_short
        g_hat = convcnp.circulant(g_row)
        forward = convcnp.grid_forward_map(filters, w_row, g_row)
        J_fd = tnp.fd_jacobian(forward, np.zeros(n))
        symbol_fd = convcnp.frequency_diagonal(J_fd)
        fact = convcnp.circulant_jacobian(filters, [0.5] * L, w_hat, g_hat)
        worst = max(worst, float(np.max(np.abs(
            symbol_fd - fact.dft_eigenvalues))))
    return [Check("max_frequency_deviation", worst, 1e-5, "<=")]


def _run_full_support(params, seed):
    worst = 0.0
    for n in params["sizes"]:
        grid = convcnp.GridSpec(n=n, spacing=1.0)
        row = convcnp.wrapped_kernel_row(_rbf(params["lengthscale"]), grid)
        K_hat = convcnp.circulant(row)
        e0 = np.zeros(n)
        e0[0] = 1.0
        g_hat = convcnp.circulant(e0)
        w_hat = convcnp.circulant(e0)
        filt = convcnp.full_support_solve(K_hat, g_hat, w_hat,
                                          d1=params["d1"])
        J = convcnp.circulant_jacobian([filt], [params["d1"]], w_hat, g_hat)
        dev = float(np.max(np.abs(
            J.dft_eigenvalues * K_hat.dft_eigenvalues.real - 1.0)))
        worst = max(worst, dev)
    return [Check("max_inversion_deviation", worst, 1e-8, "<=")]


def _run_pure_no_gp(params, seed):
    rep = convcnp.pure_convcnp_counterexample(_rbf(),
                                              spacing=params["spacing"])
    return [Check("pure_output_gap", rep["pure_output_gap"], 0.0, "=="),
            Check("gp_mean_gap", rep["gp_mean_gap"], 0.05, ">")]


def _run_depth_support(params, seed):
    grid = convcnp.GridSpec(n=params["n"], spacing=1.0)
    rep = convcnp.depth_support_experiment(
        _rbf(), grid, params["support"], params["eps_targets"])
    achieved = all(entry["achieved"] for entry in rep["required"].values()
                   if entry["degree"] is not None)
    # affine symbol a + 2b cos(w): trig degree equals algebraic degree, so
    # the decay rate is exactly the Chebyshev factor
    row = convcnp.nearest_neighbor_row(params["slope_a"], params["slope_b"],
                                       params["n"])
    rep_affine = convcnp.depth_support_experiment(
        _rbf(), grid, params["support"], [1e-2], first_row=row)
    slope_dev = (abs(rep_affine["decay_slope"] - rep_affine["log_rho"])
                 / abs(rep_affine["log_rho"]))
    return [Check("coverage_ok", 1.0 if achieved else 0.0, 1.0, "=="),
            Check("slope_relative_deviation", slope_dev, 0.10, "<="),
            Check("kappa", rep["kappa"], None, "info")]


def _spaced_points(gen, shape, lo, hi, gap):
    """Points in [lo, hi], sorted along the last axis, with every gap at
    least `gap`: sorted uniforms u on [0, (hi - lo) - (n - 1) gap] and
    x_i = lo + u_(i) + i gap (uniform spacings, Devroye 1986, ch. V).  The
    shift has unit Jacobian, so this is exactly the law of n sorted
    uniforms on [lo, hi] conditioned on every gap >= `gap`, and it never
    rejects a draw."""
    n = shape[-1]
    u = np.sort(gen.uniform(0.0, (hi - lo) - (n - 1) * gap, shape), axis=-1)
    return lo + u + gap * np.arange(n)


def _run_cov_rank(params, seed):
    # every draw has its own stream, so all are drawn first, and the latent
    # covariances' PSD checks and each size group of predictive covariances
    # are factored by one call
    draws = []
    for i in range(params["n_models"]):
        gen = rng.stream(seed, "latent.cov_rank", "models", i)
        k = 1 + int(gen.integers(0, params["k_max"]))
        B = gen.normal(size=(k, k))
        freqs = gen.uniform(0.5, 2.5, k)
        m = gen.normal(size=k)
        sigma2 = float(gen.uniform(0.0, 0.5))
        draws.append((k, freqs, m, B @ B.T, sigma2,
                      gen.uniform(-3, 3, (k + 3, 1))))
    spectra = linalg.jacobi_eigvalsh_many(
        [0.5 * (S + S.T) for _, _, _, S, _, _ in draws])
    models, covs = [], []
    for (k, freqs, m, S, sigma2, X_T), vals in zip(draws, spectra):
        model = latent.RankKLatent(
            k=k,
            a=lambda x, f=freqs: np.sin(f * float(np.atleast_1d(x)[0]) + f),
            b=lambda x: 0.0, m=m, S=S, sigma2=sigma2, eigenvalues=vals)
        pred = latent.latent_predictive(model, X_T)["cov"]
        models.append(model)
        covs.append(pred - model.sigma2 * np.eye(len(X_T)))
    worst_rel = 0.0
    for model, vals in zip(models, linalg.jacobi_eigvalsh_many(covs)):
        vals = np.sort(vals)[::-1]
        tr = max(float(np.sum(np.abs(vals))), 1e-300)
        worst_rel = max(worst_rel, float(vals[model.k]) / tr)

    # all GP point sets come from one stream; a random order per set splits
    # it into 4 contexts and 6 targets
    gen = rng.stream(seed, "latent.cov_rank", "gp")
    pts = gen.permuted(_spaced_points(gen, (params["n_configs"], 10), -4.0,
                                      4.0, params["min_separation"]), axis=-1)
    entries = [(_rbf() if i % 2 == 0 else kernels.KernelSpec(family="matern"),
                row[:4].reshape(-1, 1), row[4:].reshape(-1, 1))
               for i, row in enumerate(pts)]
    worst_min_eig = min(np.inf, *latent.gp_cov_rank_check(entries))
    return [Check("max_rank_excess", worst_rel, 1e-8, "<="),
            Check("min_gp_eigenvalue", worst_min_eig, 1e-10, ">")]


def _run_mean_bottleneck(params, seed):
    n = params["n"]
    xs = _spaced_points(rng.stream(seed, "latent.mean_bottleneck"), (n,),
                        -3.0, 3.0, 0.4)
    X_C = xs.reshape(-1, 1)
    X_T = (xs + params["offset"]).reshape(-1, 1)
    spec = _rbf(params["lengthscale"])
    full = latent.mean_matching_residual(spec, X_C, X_T, n)
    half = latent.mean_matching_residual(spec, X_C, X_T, n // 2)
    Phi = latent.posterior_weight_matrix(spec, X_C, X_T)
    frob = float(np.linalg.norm(Phi))
    return [Check("residual_full_rank", full, 1e-8, "<="),
            Check("residual_half_rank_rel", half / frob, 0.01, ">")]


def _run_mercer(params, seed):
    grid = np.linspace(-1.0, 1.0, params["m"]).reshape(-1, 1)
    spec = kernels.KernelSpec(family="polynomial", degree=params["degree"])
    rep = latent.mercer_tail(spec, grid, params["k"])
    ey_gap = abs(rep["tail_trace"] - rep["best_rank_k_error"])
    return [Check("polynomial_tail", rep["tail_trace"], 0.0, "=="),
            Check("eckart_young_gap", ey_gap, 1e-10, "<=")]


def _run_bottleneck_lift(params, seed):
    pair = cnp.example_collision_pair()
    builder = latent.default_latent_builder(params["k"])
    rep = latent.encoder_bottleneck_lift(
        pair.C, pair.C2, builder,
        n_target_sets=params["n_target_sets"], seed=seed)
    # a visibly different context must yield a different predictive
    other = cnp.ContextSet(pair.C2.locations, pair.C2.values + 0.8)
    m1 = latent.latent_predictive(builder(cnp.mean_encoding(pair.C)),
                                  np.array([[0.5], [1.5]]))
    m2 = latent.latent_predictive(builder(cnp.mean_encoding(other)),
                                  np.array([[0.5], [1.5]]))
    separated = float(np.max(np.abs(m1["mean"] - m2["mean"])))
    return [Check("max_predictive_gap",
                  max(rep["max_mean_gap"], rep["max_cov_gap"]), 1e-6, "<="),
            Check("non_collision_gap", separated, 1e-3, ">")]
