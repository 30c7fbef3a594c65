"""Host-speed probes: fixed kernels that share no code with autoheat.

The machines this benchmark was written on alternate between a fast state
and states in which the same single-threaded code runs up to ~2x slower,
in phases lasting from seconds to tens of minutes (other tenants of the
physical host; the slowdown shows in process CPU time as much as in wall
time). Raw medians of ten runs of identical code moved by up to 1.9x
between two sets an hour apart. So every timed operation is bracketed by
probe readings, and the benchmark reports its time divided by the probe's
slowdown: seconds at the host's fast state.

Two kernels cover the program's two profiles:

- `interp`: many small NumPy calls from Python (Clenshaw recurrences), the
  profile of K-Bessel compilation and evaluation and of spectral synthesis;
- `stream`: elementwise transcendentals over an array far larger than the
  caches, the profile of the periodization sums.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_COEF = np.random.default_rng(0).standard_normal(300)
_X = np.linspace(-1.0, 1.0, 64)
_ARRAY = np.linspace(0.0, 40.0, 1 << 21)


def _interp() -> None:
    for _ in range(30):
        np.polynomial.chebyshev.chebval(_X, _COEF)


def _stream() -> None:
    float(np.exp(-_ARRAY).sum())


# kernel -> (function, its time in seconds at the fast state of the 2-core
# Xeon VM the benchmark was defined on)
KERNELS = {"interp": (_interp, 0.0165), "stream": (_stream, 0.0147)}


def slowdown(kind: str, reps: int = 3) -> float:
    """Median time of `reps` runs of the kernel over its fast-state time."""
    fn, ref = KERNELS[kind]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / ref
