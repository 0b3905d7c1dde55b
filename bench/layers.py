"""Per-layer metrics of a traced pass, and import times of a fresh start.

Span names are "<module>.<function>" for nplab's public functions.  A
layer's self_ms is the summed self time of its module's spans; calls and
work measures are summed over the spans named.  See the README for which
end-to-end metric each of these should move.
"""

from __future__ import annotations

import sys

# work measure of one call, computed from its result
WORK = {
    "linalg.jacobi_eigh": lambda res: float(len(res[0])) ** 3,
    "kernels.kernel_matrix": lambda res: float(res.size),
    "convcnp.dft": lambda res: float(len(res)) ** 2,
    "convcnp.idft": lambda res: float(len(res)) ** 2,
    "convcnp.dft_matrix": lambda res: float(res.size),
    "convcnp.circular_convolve": lambda res: float(len(res)) ** 2,
    "lab.write_reports": lambda res: float(sum(p.stat().st_size
                                               for p in res)),
}

# calls whose results are checked against numpy after each traced pass
OBSERVED = ("linalg.jacobi_eigh", "convcnp.dft", "convcnp.idft",
            "convcnp.dft_matrix")

DFT = ("convcnp.dft", "convcnp.idft", "convcnp.dft_matrix")
EXACT_CHECK = ("polyapprox.chebyshev_exact_check",
               "polyapprox.neumann_exact_check")

IMPORT_METRICS = [("import.nplab_ms", "ms"), ("import.scipy_ms", "ms"),
                  ("import.mpmath_ms", "ms")]

# (metric, unit, span names or layer, field); a layer name sums its module
PASS_TABLE = [
    ("linalg.jacobi_eigh.calls", "count", ("linalg.jacobi_eigh",), "calls"),
    ("linalg.jacobi_eigh.self_ms", "ms", ("linalg.jacobi_eigh",), "self"),
    ("linalg.jacobi_eigh.n3", "count", ("linalg.jacobi_eigh",), "work"),
    ("kernels.self_ms", "ms", "kernels", "self"),
    ("kernels.kernel_matrix.calls", "count", ("kernels.kernel_matrix",),
     "calls"),
    ("kernels.kernel_matrix.entries", "count", ("kernels.kernel_matrix",),
     "work"),
    ("kernels.eval_kernel.calls", "count", ("kernels.eval_kernel",), "calls"),
    ("kernels.gram_spectrum.calls", "count", ("kernels.gram_spectrum",),
     "calls"),
    ("gp_oracle.self_ms", "ms", "gp_oracle", "self"),
    ("gp_oracle.calls", "count", "gp_oracle", "calls"),
    ("latent.self_ms", "ms", "latent", "self"),
    ("polyapprox.remez_discrete.calls", "count",
     ("polyapprox.remez_discrete",), "calls"),
    ("polyapprox.remez_discrete.self_ms", "ms",
     ("polyapprox.remez_discrete",), "self"),
    ("polyapprox.exact_check.calls", "count", EXACT_CHECK, "calls"),
    ("polyapprox.exact_check.self_ms", "ms", EXACT_CHECK, "self"),
    ("polyapprox.self_ms", "ms", "polyapprox", "self"),
    ("convcnp.dft.calls", "count", DFT, "calls"),
    ("convcnp.dft.self_ms", "ms", DFT, "self"),
    ("convcnp.circular_convolve.calls", "count",
     ("convcnp.circular_convolve",), "calls"),
    ("convcnp.circular_convolve.self_ms", "ms",
     ("convcnp.circular_convolve",), "self"),
    ("convcnp.n2", "count", DFT + ("convcnp.circular_convolve",), "work"),
    ("convcnp.self_ms", "ms", "convcnp", "self"),
    ("lab.self_ms", "ms", "lab", "self"),
    ("lab.write_reports_ms", "ms", ("lab.write_reports",), "incl"),
    ("lab.report_bytes", "bytes", ("lab.write_reports",), "work"),
    ("tnp.self_ms", "ms", "tnp", "self"),
    ("anp.self_ms", "ms", "anp", "self"),
    ("cnp.self_ms", "ms", "cnp", "self"),
    ("rng.stream.calls", "count", ("rng.stream",), "calls"),
]
PASS_METRICS = [(name, unit) for name, unit, _, _ in PASS_TABLE]

_FIELD = {"calls": ("calls", 1.0), "self": ("self_ns", 1e-6),
          "incl": ("incl_ns", 1e-6), "work": ("work", 1.0)}


def pass_metrics(summary):
    """Per-layer metrics of one traced pass from its span summary."""
    out = {}
    for name, _, spans, field in PASS_TABLE:
        key, scale = _FIELD[field]
        if isinstance(spans, str):
            rows = [v for k, v in summary.items()
                    if k.split(".", 1)[0] == spans]
        else:
            rows = [summary[k] for k in spans if k in summary]
        out[name] = sum(r[key] for r in rows) * scale
    return out


def accounting(summary, top_ns, min_self_ns, pass_ns, seed):
    """The wrapped layers' self times plus the unwrapped remainder of the
    pass must add up to the traced pass time."""
    self_ns = sum(v["self_ns"] for v in summary.values())
    remainder = pass_ns - top_ns
    problems = []
    if abs(self_ns - top_ns) > 1e-9 * pass_ns or min_self_ns < 0:
        problems.append(f"seed {seed}: span self times {self_ns * 1e-6:.3f} "
                        f"ms do not add up to top-level spans "
                        f"{top_ns * 1e-6:.3f} ms")
    if not 0 <= remainder <= pass_ns:
        problems.append(f"seed {seed}: top-level spans {top_ns * 1e-6:.3f} "
                        f"ms exceed the pass {pass_ns * 1e-6:.3f} ms")
    print(f"traced pass seed {seed}: {pass_ns * 1e-6:.1f} ms = span self "
          f"{self_ns * 1e-6:.1f} ms + unwrapped {remainder * 1e-6:.1f} ms",
          file=sys.stderr)
    return problems


def import_profile(child):
    """Cumulative import ms of nplab, scipy and mpmath in one fresh
    ``python -X importtime -m nplab list``.

    importtime prints each module when its import completes, children
    before parents and indented one step deeper, so walking the lines
    backwards meets every parent before its children.  A package's time
    is the cumulative time of its outermost entries.
    """
    _, _, err = child([sys.executable, "-X", "importtime", "-m", "nplab",
                       "list"])
    totals = {"nplab": 0, "scipy": 0, "mpmath": 0}
    entries = []
    for line in err.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1])))
    ancestors = []
    for depth, name, cumulative_us in reversed(entries):
        del ancestors[depth:]
        top = name.split(".", 1)[0]
        if top in totals and top not in ancestors:
            totals[top] += cumulative_us
        ancestors.append(top)
    return {f"import.{k}_ms": v / 1000.0 for k, v in totals.items()}
