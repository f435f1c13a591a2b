"""How fast the machine runs while a run is timed, from a calibration loop.

On a virtual machine that shares its host, the same code runs at
different speeds from one second to the next: a ``coverage`` run takes
either about 0.29 s or about 0.50 s on the 2-vCPU Xeon this benchmark
was built on, and the share of slow runs drifts over minutes, so the
median wall time of a 20 s window moves by 20% or more between windows.
``calibrate()`` times a short fixed mix of interpreter work (function
calls, float math, dict stores) and small numpy calls that is no part of
uavsim, and it slows in step with uavsim.

``Sampler`` runs that loop every ``INTERVAL_S`` of wall time while a run
is timed, from a ``SIGALRM`` handler in the benchmark's own thread, so
the samples see the machine in every state the run saw.  Timing the
loop only before and after a run misses the changes within a multi-
second run: over 140 s of back-to-back ``relay_sweep`` runs, the medians
of 20 s windows spread by 0.285 of their median in wall time, by 0.146
when rescaled by a loop before and after each run, and by 0.019 when
rescaled by the samples taken during it.

``scaled()`` turns a measured time into the time the run would have
taken if every calibration had run in ``REFERENCE_S``, about its median
on that machine, so scaled times read as seconds there.  A change to
uavsim cannot move the calibration loop, so it moves scaled times in
full.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.001
INTERVAL_S = 0.025


def _step(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) + math.log10(1.0 + x)


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop, run once."""
    start = perf_counter()
    total, table = 0.0, {}
    for i in range(2000):
        total += _step(i * 0.5, 3.0)
        table[i & 255] = total
    values = np.arange(2000.0)
    for _ in range(10):
        values = np.sqrt(values + 1.0)
    return perf_counter() - start


def scaled(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` measured while the calibration loop took
    ``calibrations``, rescaled to the reference speed.  The harmonic
    mean weights each sample by the work the machine did at its speed,
    and a sample slowed by a one-off interruption hardly moves it."""
    return seconds * REFERENCE_S / statistics.harmonic_mean(calibrations)


class Sampler:
    """Times the calibration loop every ``INTERVAL_S`` while open.

    ``seconds(elapsed)`` is a wall time measured inside the block, less
    the time the samples took, rescaled to the reference speed.  Python
    retries system calls that the alarm interrupts, so the run inside
    the block sees no errors from it.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibrate())

    def seconds(self, elapsed: float) -> float:
        if not self.samples:  # a block shorter than one interval
            self.samples.append(calibrate())
            return scaled(elapsed, self.samples)
        return scaled(elapsed - sum(self.samples), self.samples)
