"""Host-speed calibration: wall times scaled to one reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds, so raw wall times of the same code spread
more between runs than any bound worth setting.  Every timed interval is
therefore bracketed by calibrations, each one run of a fixed task (a
Python loop plus small numpy calls, the mix the solver spends its time
in), and scaled to seconds on a host where the calibration takes
``REFERENCE_S``:

- an operation, as ``wall_s * REFERENCE_S / mean(calibration before,
  calibration after)``; a 2 s stretch of the service loop likewise, with
  each calibration the mean over the CPUs, since the service's
  processes use them all;
- a set-up (a fresh process that imports the program and warms its
  cache, or boots the service), as ``wall_s * REFERENCE_S / mean of
  every calibration of the run``.  Set-up time follows the two
  calibrations at its ends worse than it follows none; the run's mean
  still takes out the host's drift between runs.

A slower program reads slower; a slower host cancels out.  The
calibration is part of the benchmark, not of the program, so a change to
the program cannot move it.  The raw wall times go to the details line
beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Nominal time of one :func:`calibration` (about its median on a 2-core
#: x86-64 container with Python 3.11, unloaded).
REFERENCE_S = 0.005

_X = np.linspace(0.0, 1.0, 256)
_run_calibrations: list[float] = []  # every calibration this process made


def _task() -> float:
    acc = 0
    for i in range(25_000):
        acc += (i * i) % 7
    total = float(acc)
    for k in range(100):
        y = np.tanh(_X * (k + 1))
        total += float(np.fft.rfft(y)[1].real) + float(np.interp(0.5, _X, y))
    return total


def calibration() -> float:
    """Wall time of one run of the fixed calibration task.

    One run of a few milliseconds, not the fastest of several short
    ones: time the host takes away from this process slows the program
    too, and the fastest run would hide it.
    """
    t0 = time.perf_counter()
    _task()
    elapsed = time.perf_counter() - t0
    _run_calibrations.append(elapsed)
    return elapsed


def calibration_all_cpus() -> float:
    """Mean :func:`calibration` over the CPUs this process may use, pinned to each in turn."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibration())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def run_factor() -> float:
    """``REFERENCE_S`` over the mean of every calibration of the run so far.

    The mean, not the median: the host's speed often sits in two states,
    and the median of such samples flips between them with the share of
    time spent in each.
    """
    if not _run_calibrations:
        calibration()
    return REFERENCE_S / statistics.fmean(_run_calibrations)


@dataclass
class Interval:
    """One timed interval: raw wall time, and scaled by the calibrations around it."""

    raw_s: float = 0.0
    scaled_s: float = 0.0


class Timer:
    """Context manager timing its body between two calibrations.

    ``all_cpus`` calibrates on every CPU in turn, for a body whose
    processes spread over all of them; the host slows its CPUs one at a
    time.  Nothing calibrates while the body runs: a calibration running
    beside the program on this small host slows both.
    """

    def __init__(self, all_cpus: bool = False):
        self._calibrate = calibration_all_cpus if all_cpus else calibration

    def __enter__(self) -> Interval:
        self.interval = Interval()
        self._before = self._calibrate()
        self._t0 = time.perf_counter()
        return self.interval

    def __exit__(self, *exc) -> None:
        raw = time.perf_counter() - self._t0
        after = self._calibrate()
        self.interval.raw_s = raw
        self.interval.scaled_s = raw * REFERENCE_S / ((self._before + after) / 2.0)
