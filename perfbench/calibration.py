"""Machine-speed calibration of the timed runs.

The benchmark shares a few cores of a host with other jobs, and the speed it
gets swings by tens of percent over seconds to minutes: one fixed orbit case
repeated on the same machine takes from under 40 to over 70 ms, with CPU time
tracking wall time.  Timed runs therefore time a fixed reference kernel, which
does not touch flatgrav, before every operation and set-up, and scale each
operation's wall time by ``REFERENCE_MS / typical kernel time``, the typical
time being the mean of the kernel samples of that operation's stretch of the
run (set-up: of the whole run, without its outer tenths).  A mean follows the
share of time the machine runs slow, which is what the timings pick up.

A run on a machine as fast as the reference reports the wall time; a run on a
slowed machine reports what the same work would have taken at reference
speed.  A flatgrav change cannot move the kernel, so the scaled timings still
move with the program and only the machine's swing is taken out.  Raw timings
and kernel samples are kept in the results file.
"""
from __future__ import annotations

import os
import time
from typing import List, Optional

# Typical kernel time on the machine the benchmark was tuned on (2 vCPUs,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  Only a unit: any fixed value
# gives the same comparisons between commits.
REFERENCE_MS = 7.0
TRIM = 0.1                       # share of samples dropped at each end
# An operation is scaled by the kernel samples of its own stretch of the run,
# the one taken just before it and HALF_WINDOW on each side, because the
# machine's speed drifts within a run.
HALF_WINDOW = 2


def _oscillators(t, y):
    return [y[1], -y[0], y[3], -0.5 * y[2]]


def kernel_ms() -> float:
    """Wall time (ms) of one DOP853 integration of two fixed oscillators,
    the same mix of interpreted scipy stepping and small numpy arrays as
    the orbit and spin integrations."""
    from scipy.integrate import solve_ivp
    t0 = time.perf_counter()
    solve_ivp(_oscillators, (0.0, 12.0), [1.0, 0.0, 0.0, 1.0],
              method="DOP853", rtol=1e-12, atol=1e-14)
    return (time.perf_counter() - t0) * 1e3


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    The machine's swing differs from CPU to CPU, so the kernel calibrates
    only work that runs where it runs, and a CLI child process would
    otherwise often run on another CPU than the kernel.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibration:
    """Kernel samples of one run and the scales they give."""

    def __init__(self):
        kernel_ms()                      # import and first-call costs
        self.samples: List[float] = []

    def sample(self, case: object = None) -> None:
        """Time the kernel once; usable as the ``before`` hook of a run."""
        self.samples.append(kernel_ms())

    def scale(self, around: Optional[int] = None) -> float:
        """Factor that turns wall times into reference times: from the whole
        run, or from the samples within HALF_WINDOW of sample ``around``."""
        near = self.samples
        if around is not None:
            lo = max(0, around - HALF_WINDOW)
            near = near[lo:around + HALF_WINDOW + 1]
        return REFERENCE_MS / trimmed_mean(near)


def trimmed_mean(samples: List[float], trim: float = TRIM) -> float:
    """Mean without the lowest and highest ``trim`` share of samples."""
    s = sorted(samples)
    k = int(len(s) * trim)
    return sum(s[k:len(s) - k]) / (len(s) - 2 * k)
