"""Host-speed reference for normalising wall times.

On a shared virtual machine the same code runs up to 40% slower for
seconds to minutes at a time, and code of different kinds slows by
different amounts: interpreter-bound code (CSV formatting and parsing)
more than array code. A time taken once per run therefore spreads by
30-50% between runs. So each timed sample is bracketed by a short, fixed
reference of the same kind, measured just before and just after it, and
reported as

    wall seconds * nominal reference seconds / measured reference seconds,

that is, in seconds at the host speed the nominal constants were taken
at. On the machine this benchmark was built on, this cut the quartile
spread of single samples from 0.31-0.49 to 0.06-0.15 of the median.

Two kinds exist. "python" formats 2000 floats with 17 significant digits
and parses them back. "array" is the mean of two parts: small-array
NumPy work like one training step of the 128-128 networks, and one
256x512x512 float64 GEMM like a step of the wide networks.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds each reference took at the 10th percentile of 300 runs on the
# machine the benchmark was built on (2-vCPU Xeon VM, one BLAS thread).
NOMINAL_S = {"python": 2.3e-3, "array_small": 2.2e-3, "array_gemm": 2.5e-3}


class Meter:
    """Measures how much slower than nominal the host runs right now."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal(2000)
        self._a = rng.standard_normal((256, 128))
        self._b = rng.standard_normal((128, 128))
        self._x = rng.standard_normal((256, 3, 16))
        self._g1 = rng.standard_normal((256, 512))
        self._g2 = rng.standard_normal((512, 512))

    def _python(self):
        [float(s) for s in [format(v, ".17g") for v in self._floats]]

    def _array_small(self):
        for _ in range(10):
            np.maximum(self._a @ self._b, 0.0)
            np.exp(self._x).sum(axis=-1)

    def _array_gemm(self):
        self._g1 @ self._g2

    def _ratio(self, name, fn):
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) / NOMINAL_S[name]

    def slowdown(self, kind):
        """Reference time over its nominal: above 1 when the host is slow."""
        if kind == "python":
            return self._ratio("python", self._python)
        return 0.5 * (self._ratio("array_small", self._array_small)
                      + self._ratio("array_gemm", self._array_gemm))


class Unmetered:
    """Stands in for Meter where raw wall times are wanted (the traced pass)."""

    def slowdown(self, kind):
        return 1.0
