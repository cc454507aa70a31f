"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core machine other tenants slow this process by 15-30% for
tens of seconds at a time; the same run repeated a minute later can read a
quarter faster.  ``kernel`` is a fixed piece of work with the same mix as
turanlab's operations (an interpreted loop, small numpy calls, a broadcast
product over a zero list, a companion-matrix eigensolve).  It imports nothing
from turanlab, so no change to the package moves it.  The benchmark runs it
right after every operation and scales that operation's latency by
``REFERENCE_S / kernel time``: latencies then read as on a machine where the
kernel takes ``REFERENCE_S``.  On ``certify`` this cut the run-to-run spread
of ``ops_per_s`` about three-fold; on ``levelsets``, whose operations are
short, it helps less.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the 2-core machine the reference figures in
# README.md come from (Xeon at 2.0 GHz, Python 3.11, numpy 2.4)
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(0)
_ZEROS = _rng.normal(size=40) + 1j * _rng.normal(size=40)
_XS = np.linspace(-1.0, 1.0, 1000)
_COEFFS = np.poly(_ZEROS[:30])


def kernel() -> float:
    s = 0.0
    for i in range(3000):
        s += (i % 7) * 0.5
    a = np.arange(100.0)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0)
    v = np.max(np.abs(np.prod(_XS[None, :] - _ZEROS[:, None], axis=0)))
    r = np.roots(_COEFFS)
    return s + float(v) + float(a[0]) + float(np.abs(r).sum())


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
