"""Cross-attention predictor with analytically injected scores.

A score is a plain function (C, x_t) -> the score s(x_t, x_i, y_i) of
every context point, and the attention weights are their softmax.  With
s = log k, which `log_kernel_score` builds, the weighted sum is exactly
the Nadaraya-Watson kernel smoother.  Because the weight on each context
point depends only on the (query, point) pair, no such predictor can
react to inter-context geometry; the factorization counterexample builds
two configurations with identical per-point score inputs whose exact GP
posterior weights differ by a sizable gap.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .cnp import ContextSet
from .errors import InputError, NumericError
from .gp_oracle import two_point_weight
from .kernels import KernelSpec, cross_vector


def log_kernel_score(spec: KernelSpec) -> Callable:
    """The score s(x_t, x_i) = log k(x_i, x_t), as a function (C, x_t) ->
    the score of every context point in context order, taken from one
    `cross_vector`."""
    def scores(C: ContextSet, x_t) -> np.ndarray:
        k = cross_vector(spec, C.locations, x_t)
        if np.any(k <= 0):
            raise InputError("log-kernel score needs positive kernel values")
        return np.log(k)
    return scores


def attention_weights(score: Callable, C: ContextSet, x_t) -> np.ndarray:
    """Softmax of score(C, x_t) over the context; strictly positive, sums
    to 1.  Max-score subtraction keeps the exponentials in range exactly."""
    if C.n < 1:
        raise InputError("context set must be nonempty")
    s = score(C, x_t)
    s = s - s.max()
    w = np.exp(s)
    return w / w.sum()


def anp_predict(score: Callable, value_map: Callable, decoder: Callable,
                C: ContextSet, x_t) -> float:
    """decoder(x_t, sum_i alpha_i v(x_i, y_i))."""
    alpha = attention_weights(score, C, x_t)
    values = np.array([np.atleast_1d(value_map(x, y))
                       for x, y in zip(C.locations, C.values)], dtype=float)
    r = alpha @ values
    return float(decoder(np.atleast_1d(np.asarray(x_t, dtype=float)), r))


def nadaraya_watson(spec: KernelSpec, C: ContextSet, x_t) -> float:
    """Kernel-weighted mean sum k(x_t,x_i) y_i / sum k(x_t,x_i)."""
    w = cross_vector(spec, C.locations, x_t)
    total = w.sum()
    if total <= 1e-300:
        raise NumericError(
            "total kernel weight underflowed; use a larger lengthscale",
            residual=float(total))
    return float(w @ C.values[:, 0] / total)


def factorization_counterexample(spec: KernelSpec,
                                 angle_a_deg: float = 180.0,
                                 angle_b_deg: float = 60.0) -> dict:
    """Two planar 2-point configurations with identical per-point geometry
    but different inter-context distance.

    Both place the context points at unit distance from the query and
    carry the value 1, so every score s(x_t, x_i, y_i) sees identical
    inputs and every factorized attention rule assigns identical weights.
    The exact GP weights differ because they couple through k(x_1, x_2).
    """
    if not spec.stationary:
        raise InputError("counterexample requires a stationary kernel")
    x_t = np.zeros(2)

    def config(angle_deg):
        half = np.deg2rad(angle_deg) / 2.0
        x1 = np.array([np.cos(half), np.sin(half)])
        x2 = np.array([np.cos(half), -np.sin(half)])
        return x1, x2

    out, inputs, w1 = {}, {}, {}
    for label, angle in (("A", angle_a_deg), ("B", angle_b_deg)):
        x1, x2 = config(angle)
        w1[label], _ = two_point_weight(spec, x1, x2, x_t)
        # per-point score inputs: (|x_t - x_i|, y_i), identical across configs
        inputs[label] = [(float(np.linalg.norm(x_t - x1)), 1.0),
                         (float(np.linalg.norm(x_t - x2)), 1.0)]
        out[f"config_{label}"] = {"x1": x1, "x2": x2}
    out.update({
        "gp_weight_gap": abs(w1["A"] - w1["B"]),
        "score_inputs_identical": inputs["A"] == inputs["B"],
    })
    return out

