"""Deterministic random streams, independent of execution order.

Every stochastic routine in the lab draws from a Philox counter-based
generator keyed by SHA-256 of ``(seed, *labels)``.  Two calls with the same
seed and labels produce bit-identical streams, whatever was drawn before
or in between, so a result does not depend on the order tasks run in.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Philox generator keyed by ``seed`` and a label path.

    Labels may be strings or integers; they are folded into the key via
    SHA-256 so streams for different (experiment, task) pairs never collide.
    """
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    key = int.from_bytes(h.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
