"""Span tracer that wraps nplab's public functions from outside the package.

`install` replaces every public module-level function of the traced layers
with a wrapper that records one span (name, start, end, parent) per call.
The wrapper is bound both in the module that defines the function and in
every other loaded ``nplab`` module that imported the same function object
by name (``kernels`` and ``latent`` bind ``jacobi_eigh`` that way), so calls
through an imported name are counted too.  Function-local imports resolve
the module attribute at call time and therefore also see the wrapper.

Spans are kept in flat integer arrays and written out once, at the end of
the run.  Self time is computed afterwards from the spans themselves: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("kernels", "linalg", "gp_oracle", "polyapprox", "convcnp", "tnp",
          "anp", "cnp", "latent", "rng", "lab")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []                 # name id -> "layer.function"
        self.span_id = array("q")
        self.name_id = array("q")
        self.parent = array("q")        # -1 for a top-level span
        self.start = array("q")         # clock ns
        self.end = array("q")
        self.work = array("d")          # per-call work measure, 0 if none
        self.stack = []
        self.next_id = 0
        self.observed = []              # (name, args, result)
        self.wrappers = {}              # name -> wrapper, reused on reinstall

    def wrap(self, name, fn, work=None, observe=False):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``work(result)`` gives the span's work measure; with ``observe``
        the call's positional arguments and result are kept for checks
        that run after the pass, outside every span.
        """
        if name in self.wrappers:
            return self.wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_id.append(sid)
                self.name_id.append(nid)
                self.parent.append(parent)
                self.start.append(t0)
                self.end.append(t1)
                self.work.append(0.0)
            if work is not None:
                self.work[-1] = work(result)
            if observe:
                self.observed.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        self.wrappers[name] = traced
        return traced

    def __len__(self):
        return len(self.span_id)

    def summarize(self, lo, hi):
        """Per-name calls, self ns, inclusive ns and work over spans
        ``lo:hi``, the inclusive ns of the top-level spans, and the least
        self time of any span (negative only if spans overlap wrongly)."""
        sid = np.frombuffer(self.span_id, dtype=np.int64)[lo:hi]
        nid = np.frombuffer(self.name_id, dtype=np.int64)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]).astype(float)
        work = np.frombuffer(self.work, dtype=np.float64)[lo:hi]
        if len(sid) == 0:
            return {}, 0.0, 0.0
        base = int(sid.min())
        child = np.zeros(int(sid.max()) - base + 1)
        inner = par >= 0
        np.add.at(child, par[inner] - base, dur[inner])
        self_ns = dur - child[sid - base]
        out = {}
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        selfs = np.bincount(nid, weights=self_ns, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        works = np.bincount(nid, weights=work, minlength=k)
        for i in np.nonzero(calls)[0]:
            out[self.names[i]] = {"calls": int(calls[i]),
                                  "self_ns": float(selfs[i]),
                                  "incl_ns": float(incl[i]),
                                  "work": float(works[i])}
        return out, float(dur[~inner].sum()), float(self_ns.min())

    def write(self, path):
        """Write every span as one CSV row: name, start_ns, end_ns, parent
        (the parent's span id, -1 at the top), keyed by span id."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span_id,name,start_ns,end_ns,parent\n")
            for s, n, a, b, p in zip(self.span_id, self.name_id, self.start,
                                     self.end, self.parent):
                fh.write(f"{s},{self.names[n]},{a},{b},{p}\n")


def install(tracer, work=None, observe=(), layers=LAYERS, package="nplab"):
    """Wrap the public functions of ``package.<layer>`` for each layer and
    rebind them wherever a loaded module of the package holds them.

    Returns a function that restores the original bindings.
    """
    work = work or {}
    originals = {}
    for layer in layers:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            originals[id(obj)] = (obj, tracer.wrap(
                name, obj, work=work.get(name), observe=name in observe))
    rebound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or (mod_name != package
                           and not mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                rebound.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)

    return uninstall
