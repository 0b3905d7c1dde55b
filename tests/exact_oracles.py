"""mpmath oracles of the Chebyshev iteration bound, for the tests.

`chebyshev_exact_check` certifies the depth-L bound (2/lambda_min) rho^L on
a spectrum through the closed form T_L(u)/T_L(u0) in 80 digits, and
`schedule_spectral_error_exact` evaluates any schedule's node product in 60
digits, the oracle that closed form is tested against.  They verify in
exact arithmetic what the float64 pipelines cannot resolve at large depth.
"""

import mpmath as mp
import numpy as np

from nplab.errors import InputError
from nplab.polyapprox import CHEBYSHEV, PRODUCT, PolySchedule


def schedule_spectral_error_exact(eigenvalues, schedule: PolySchedule) -> float:
    """max_i |q(lambda_i) - 1/lambda_i| evaluated in 60 significant digits.

    Order-independent, so it certifies the bound the affine recurrence
    satisfies in exact arithmetic even when the float64 error is within
    rounding distance of the bound itself.
    """
    with mp.workdps(60):
        worst = mp.mpf(0)
        if schedule.form == CHEBYSHEV:
            nodes = [mp.mpf(1) / mp.mpf(c) for c in schedule.coefficients]
        for lam_f in np.asarray(eigenvalues, dtype=float):
            lam = mp.mpf(lam_f)
            if schedule.form == CHEBYSHEV:
                r = mp.mpf(1)
                for x in nodes:
                    r *= 1 - lam / x
            elif schedule.form == PRODUCT:
                p = mp.mpf(1)
                for a in schedule.coefficients:
                    p *= 1 + mp.mpf(a) * lam
                r = 1 - lam * p
            else:
                raise InputError(f"unknown schedule form {schedule.form!r}")
            worst = max(worst, abs(r) / lam)
        return float(worst)


def chebyshev_exact_check(eigenvalues, depths):
    """Exact-arithmetic check of the depth-L iteration bound on a spectrum,
    for each L in ``depths``.

    Builds the interval, nodes and bound in 80 significant digits from the
    given eigenvalues and evaluates the residual through the closed form
    r(lambda) = T_L(u(lambda)) / T_L(u0), which equals the node product
    identically.  Returns one (error, bound, margin) per depth; margin is
    positive in exact arithmetic for every spectrum, but only by a factor
    rho^(2L), far below float64 resolution at large depth.  What does not
    depend on L (each acos(u), acosh(u0) and rho) is computed once; every
    mpmath operation is the one a single-depth evaluation makes, so each
    float returned is too.
    """
    depths = list(depths)
    if any(L < 1 for L in depths):
        raise InputError("depth must be at least 1")
    with mp.workdps(80):
        lams = [mp.mpf(float(v)) for v in np.asarray(eigenvalues, dtype=float)]
        a, b = min(lams), max(lams)
        if a <= 0:
            raise InputError("spectrum must be positive")
        if a == b:
            return [(0.0, float(2 / a), float(2 / a)) for _ in depths]
        acosh_u0 = mp.acosh((b + a) / (b - a))
        acos_u = [mp.acos(max(mp.mpf(-1), min(mp.mpf(1),
                                              (b + a - 2 * lam) / (b - a))))
                  for lam in lams]
        rho = (mp.sqrt(b / a) - 1) / (mp.sqrt(b / a) + 1)
        out = []
        for L in depths:
            TL0 = mp.cosh(L * acosh_u0)
            err = mp.mpf(0)
            for lam, angle in zip(lams, acos_u):
                err = max(err, abs(mp.cos(L * angle)) / (lam * TL0))
            bound = 2 / a * rho ** L
            out.append((float(err), float(bound), float(bound - err)))
        return out
