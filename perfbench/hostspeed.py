"""Host-speed normalisation of the measured CPU times.

On a shared VM the CPU time of one fixed piece of work is not fixed:
neighbours on the host come and go.  On a 2-vCPU KVM guest (Intel
Xeon) the arithmetic loop below took 3.9 ms of CPU time in some
two-second windows and 6.0 ms in others, often staying at one speed for
minutes, and a ``jacobi_py`` op went from 20 to 32 ms within one
process as it switched.  Two runs of the same code minutes apart can
therefore differ by a third; over five seeds the unscaled ``jacobi_py``
median op time spread 12% (quartile distance over median), the scaled
one 3%.

The measured process therefore times :func:`calibrate`, a fixed piece
of work that uses builtins only (no ``repro`` code), every
``INTERVAL_S`` seconds between ops and around its setup.  Each op's CPU
time is then scaled by ``NOMINAL_S / c``, where ``c`` is the median
calibration time of the samples nearest the op: the time the op would
have taken on a host where :func:`calibrate` takes ``NOMINAL_S``.  A
change to the program moves the op time and leaves ``c`` alone, so it
shows in full; a change in host speed moves both.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter, process_time
from typing import List, Sequence, Tuple

#: CPU seconds :func:`calibrate` is scaled to.
NOMINAL_S = 0.010

#: Seconds of the timed phase between two calibration samples.
INTERVAL_S = 0.25

#: Calibration samples whose median scales one op.
NEAREST = 8

_M = 96
_GRID = [float((7 * k) % 97) for k in range(_M * _M)]


def _work() -> float:
    """An arithmetic loop plus one Jacobi sweep over a list of floats:
    the interpreter dispatch and float-object traffic the workloads'
    ops are made of."""
    total = 0.0
    for i in range(60_000):
        total += i * 0.5
    x = _GRID
    y = x[:]
    m = _M
    for i in range(1, m - 1):
        for k in range(i * m + 1, i * m + m - 1):
            y[k] = 0.25 * (x[k - m] + x[k + m] + x[k - 1] + x[k + 1])
    return total + max(abs(a - b) for a, b in zip(y, x))


def calibrate() -> float:
    """CPU seconds of one run of the fixed calibration work."""
    started = process_time()
    _work()
    return process_time() - started


class Sampler:
    """Calibration samples ``(perf_counter, CPU seconds)`` of one run."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._next = 0.0

    def sample(self) -> float:
        """Take one sample now; returns the CPU seconds it took."""
        at = perf_counter()
        seconds = calibrate()
        self.samples.append((at, seconds))
        self._next = perf_counter() + INTERVAL_S
        return seconds

    def due(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last."""
        if perf_counter() >= self._next:
            self.sample()


def factors(times: Sequence[float],
            samples: Sequence[Tuple[float, float]]) -> List[float]:
    """``NOMINAL_S / c`` for each op started at ``times``, ``c`` the
    median of the ``NEAREST`` samples around it."""
    at = [t for t, _ in samples]
    out = []
    for t in times:
        i = bisect_left(at, t)
        lo = max(0, min(i - NEAREST // 2, len(at) - NEAREST))
        window = [s for _, s in samples[lo:lo + NEAREST]]
        out.append(NOMINAL_S / statistics.median(window))
    return out
