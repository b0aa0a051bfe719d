"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine interpreted Python can run 40% slower for a minute
when neighbours load the cores and caches. The worker runs this kernel
between commands and divides each command's time by the mean of the
readings just before and after it, so that drift largely cancels. The
kernel mixes the work xling does: interpreted loops, dict and string
handling, small-vector numpy calls and a BLAS QR. It calls nothing in
``src/``, so no program change can move it.
"""

from __future__ import annotations

import gc
from collections import Counter
from time import perf_counter

import numpy as np

_WORDS = [f"w{i % 5003:04d}x" for i in range(20_000)]
_rng = np.random.default_rng(0)
_VECTORS = _rng.standard_normal((300, 200))
_MATRIX = _rng.standard_normal((600, 60))
_PASSES = 5


def _interpreter() -> int:
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def _dicts() -> list:
    counts = Counter(_WORDS)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _small_vectors() -> float:
    q = _VECTORS[0]
    total = 0.0
    for v in _VECTORS:
        total += float(np.dot(q, v) / (np.linalg.norm(q) * np.linalg.norm(v)))
    return total


def _blas() -> np.ndarray:
    return np.linalg.qr(_MATRIX)[1]


def reference_seconds() -> float:
    """Fastest of five passes over the kernel, each about 13 ms on a quiet machine.

    The garbage collector runs before and is off during the passes, so the
    heap a command leaves behind does not leak into the reading; the
    fastest pass drops interruptions shorter than a pass.
    """
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_PASSES):
            start = perf_counter()
            _interpreter()
            _dicts()
            _small_vectors()
            _blas()
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best
