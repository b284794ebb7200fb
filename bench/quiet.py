"""Correct timings for the speed of a shared CPU.

On a small shared virtual machine the same work takes 1.5-2x longer for
seconds or minutes at a time while other tenants load the host; measured on
the 2-vCPU box this benchmark was written on, a fixed certify instance, a
batch of classical instances and an n = 64 CLI run all slowed by 1.5-1.7x
in such intervals.  That moves a run's figures by far more than the changes
the benchmark must resolve.

So the runner brackets every batch of instances with a probe: a fixed
computation of the same kind as the package's work (ascent-like steps on a
6 x 32 complex block, small ``eigh`` calls, a 48 x 48 product, a Python
loop), which slowed by about the same factor (1.64x) in the same intervals.
Each latency is divided by the batch's speed factor, the mean of the two
probes over ``NOMINAL_PROBE_S``, the probe's time when the host is quiet.  A
batch whose two probes differ by more than ``STEADY`` (the speed changed
during the batch) is run again.  The raw timings are kept in the result file.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's duration on the quiet 2-vCPU x86_64 box the benchmark was
# written on; the corrected timings are in units of that machine
NOMINAL_PROBE_S = 0.00055
# a batch whose bracketing probes differ by more than this ratio is run again
STEADY = 1.3

_EIGH = np.linalg.eigh  # bound before the tracer wraps numpy.linalg


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._A = A + A.conj().T
        self._X = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
        H = rng.standard_normal((16, 16))
        self._H = H + H.T
        self._M = rng.standard_normal((48, 48))

    def probe(self) -> float:
        """Seconds taken by the fixed reference computation."""
        t0 = time.perf_counter()
        X = self._X
        for _ in range(25):
            Y = self._A @ X
            q = np.real(np.sum(X.conj() * Y, axis=0))
            X = Y / np.linalg.norm(Y, axis=0)
            np.flatnonzero(q > 0)
        for _ in range(3):
            _EIGH(self._H)
        _ = self._M @ self._M
        s = 0
        for i in range(400):
            s += i * i
        return time.perf_counter() - t0

    @staticmethod
    def steady(before: float, after: float) -> bool:
        return max(before, after) <= STEADY * min(before, after)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """How much slower than quiet the machine ran around a batch."""
        return 0.5 * (before + after) / NOMINAL_PROBE_S
