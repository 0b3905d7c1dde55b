"""Self-test of the span tracer.

Run from the repository root:  python3 bench/selftest.py

A toy package with a nested call, on a clock the toy functions advance
themselves, checks that self times come out exactly as known and that a
call through a name imported into another module is counted.  A second
check does the same on nplab itself: kernels binds linalg.jacobi_eigh by
name, so the Jacobi call inside gram_spectrum must be a child span.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

from tracer import Tracer, install

TOY_A = """
def inner():
    CLOCK.advance(3)

def outer():
    CLOCK.advance(5)
    inner()
    CLOCK.advance(2)
"""

TOY_B = """
from toytrace.a import inner

def via_import():
    CLOCK.advance(1)
    inner()
"""


class ManualClock:
    def __init__(self):
        self.t = 0

    def advance(self, dt):
        self.t += dt

    def now(self):
        return self.t


def _toy_package(clock):
    pkg = types.ModuleType("toytrace")
    pkg.__path__ = []
    sys.modules["toytrace"] = pkg
    for name, src in (("a", TOY_A), ("b", TOY_B)):
        mod = types.ModuleType(f"toytrace.{name}")
        mod.CLOCK = clock
        sys.modules[mod.__name__] = mod
        setattr(pkg, name, mod)
        exec(compile(src, f"<toytrace.{name}>", "exec"), vars(mod))
    return pkg


def check_toy():
    problems = []
    clock = ManualClock()
    pkg = _toy_package(clock)
    original_inner = pkg.a.inner
    tracer = Tracer(clock=clock.now)
    try:
        uninstall = install(tracer, layers=("a", "b"), package="toytrace")
        if pkg.b.inner is original_inner:
            problems.append("imported name toytrace.b.inner was not rebound")
        pkg.a.outer()
        pkg.b.via_import()
        uninstall()
        summary, top, min_self = tracer.summarize(0, len(tracer))
        want = {"a.outer": (1, 7), "a.inner": (2, 6), "b.via_import": (1, 1)}
        got = {k: (v["calls"], v["self_ns"]) for k, v in summary.items()}
        if got != want:
            problems.append(f"toy calls and self times {got}, want {want}")
        if top != 14 or min_self < 0:
            problems.append(f"toy top-level time {top}, want 14")
        if pkg.b.inner is not original_inner:
            problems.append("uninstall left toytrace.b.inner wrapped")
    finally:
        for name in ("toytrace", "toytrace.a", "toytrace.b"):
            sys.modules.pop(name, None)
    return problems


def check_nplab():
    import numpy as np
    from nplab import kernels, linalg
    problems = []
    original = linalg.jacobi_eigh
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        if kernels.jacobi_eigh is original:
            problems.append("kernels.jacobi_eigh was not rebound")
        kernels.gram_spectrum(kernels.KernelSpec(), np.array([[0.0], [1.0]]))
    finally:
        uninstall()
    summary, _, _ = tracer.summarize(0, len(tracer))
    calls = {k: v["calls"] for k, v in summary.items()}
    want = {"kernels.gram_spectrum": 1, "kernels.kernel_matrix": 1,
            "kernels.eval_kernel": 4, "linalg.jacobi_eigh": 1}
    if calls != want:
        problems.append(f"gram_spectrum spans {calls}, want {want}")
    names = tracer.names
    by_id = {s: names[n] for s, n in zip(tracer.span_id, tracer.name_id)}
    for n, p in zip(tracer.name_id, tracer.parent):
        if names[n] == "linalg.jacobi_eigh" and \
                by_id.get(p) != "kernels.gram_spectrum":
            problems.append("jacobi_eigh span is not a child of gram_spectrum")
    if kernels.jacobi_eigh is not original or linalg.jacobi_eigh is not original:
        problems.append("uninstall left jacobi_eigh wrapped")
    return problems


def run_all():
    return check_toy() + check_nplab()


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    found = run_all()
    for line in found:
        print("FAIL", line)
    print("tracer self-test:", "fail" if found else "pass")
    sys.exit(1 if found else 0)
