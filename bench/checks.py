"""Correctness checks computed apart from nplab.

Each check returns a list of problems (empty when the output is right).
They compare against numpy's LAPACK and FFT, against closed forms the
benchmark evaluates itself, and between a cold CLI pass and a warm pass at
the same seed; none compares against a stored copy of earlier reports.
"""

from __future__ import annotations

import math

import numpy as np

# nplab's wrapped periodic kernel sums images within this many lengthscales
# (convcnp.WRAP_REACH); it is part of the model's definition.
WRAP_REACH = 6.0


def wrapped_rbf_row(n, spacing, lengthscale):
    """First row of the periodically wrapped unit-variance RBF Gram."""
    extent = n * spacing
    reach = WRAP_REACH * lengthscale
    images = int(np.ceil(reach / extent)) + 1
    offsets = (spacing * np.arange(n)[:, None]
               + extent * np.arange(-images, images + 1)[None, :])
    vals = np.exp(-0.5 * (offsets / lengthscale) ** 2)
    return np.where(np.abs(offsets) <= reach, vals, 0.0).sum(axis=1)


def grid_kappa(n, spacing, lengthscale):
    lam = np.fft.fft(wrapped_rbf_row(n, spacing, lengthscale)).real
    return float(lam.max() / lam.min())


def factorization_gap(angle_a, angle_b, radius=1.0):
    """Exact two-point GP weight gap of anp.factorization: with both
    points at distance r from the query, w1 = k(r) / (1 + k(D)) where
    D = 2 r sin(angle / 2) is the inter-point distance."""
    k = lambda d: math.exp(-0.5 * d * d)

    def w1(angle):
        return k(radius) / (1.0 + k(2.0 * radius
                                    * math.sin(math.radians(angle) / 2.0)))
    return abs(w1(angle_a) - w1(angle_b))


def closed_forms(report):
    """Closed-form checks of one report; experiments without one pass."""
    if report.error is not None:
        return []
    eid, p, m = report.experiment_id, report.params, report.measurements
    problems = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{eid} seed {report.seed}: {name} = {got!r}, "
                            f"closed form {want!r}")

    if eid == "cnp.pca_bound" and p["mode"] == "SyntheticIsotropic":
        expect("measured_ratio", m["measured_ratio"], 1.0 - p["d"] / p["n"],
               1e-10)
    elif eid == "latent.mercer" and p["degree"] == 2 and p["k"] >= 3:
        expect("polynomial_tail", m["polynomial_tail"], 0.0, 0.0)
    elif eid == "anp.factorization":
        expect("gp_weight_gap", m["gp_weight_gap"],
               factorization_gap(p["angle_a"], p["angle_b"]), 1e-12)
    elif eid == "convcnp.grid_gp":
        want = grid_kappa(p["n"], p["spacing"], p["lengthscale"])
        expect("kappa", m["kappa"], want, 1e-9 * want)
    elif eid == "convcnp.depth_support":
        want = grid_kappa(p["n"], 1.0, 1.0)
        expect("kappa", m["kappa"], want, 1e-9 * want)
    return problems


def traced_results(observed):
    """Check every observed jacobi_eigh against numpy.linalg.eigvalsh and
    every dft/idft/dft_matrix against numpy.fft."""
    problems = []
    for name, args, result in observed:
        arg = args[0]
        if name == "linalg.jacobi_eigh":
            A = np.asarray(arg, dtype=float)
            vals, vecs = result
            scale = max(1.0, float(np.linalg.norm(A)))
            ref = np.linalg.eigvalsh(0.5 * (A + A.T))
            err = float(np.max(np.abs(vals - ref)))
            resid = float(np.max(np.abs(A @ vecs - vecs * vals)))
            if err > 1e-9 * scale or resid > 1e-9 * scale:
                problems.append(f"jacobi_eigh n={len(A)}: eigenvalue error "
                                f"{err:.3g}, residual {resid:.3g}")
            continue
        if name == "convcnp.dft_matrix":
            ref = np.fft.fft(np.eye(int(arg)), axis=0)
            scale = float(arg)
        else:
            v = np.asarray(arg)
            ref = np.fft.fft(v) if name == "convcnp.dft" else np.fft.ifft(v)
            scale = max(1.0, float(np.sum(np.abs(v))))
        err = float(np.max(np.abs(np.asarray(result) - ref)))
        if err > 1e-11 * len(ref) * scale:
            problems.append(f"{name} n={len(ref)}: error {err:.3g} "
                            f"against numpy.fft")
    return problems


def same_summary(cold_csv, warm_csv, label):
    """The cold CLI pass and the warm pass at one seed wrote identical
    summary.csv files."""
    try:
        with open(cold_csv, encoding="utf-8") as fh:
            cold = fh.read()
        with open(warm_csv, encoding="utf-8") as fh:
            warm = fh.read()
    except FileNotFoundError as err:
        return [f"{label}: no summary.csv ({err.filename})"]
    if cold != warm or not cold:
        return [f"{label}: cold and warm summary.csv differ"]
    return []
