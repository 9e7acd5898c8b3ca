"""Machine-speed reference for the benchmark's end-to-end timings.

The bounds were set on a 2-core virtual machine (Intel Xeon, 2.1 GHz) that
shares its cores with other tenants. Its speed drifts by up to 1.6x in
phases that last several seconds. Process CPU time drifts with wall
time, so the process runs slower rather than waiting. Ten-second runs
therefore spread by 25-45% in raw time. So the runner times two fixed
reference kernels about every SAMPLE_EVERY_S seconds, between tasks. Both
kernels are independent of threshcov:

* "analytic": small-array numpy and scipy.special calls in a Python loop,
  the mix of one quadrature round. It is the reference for point queries,
  CLI artifacts and set-up.
* "vector": scipy.special inverse CDFs over a few thousand uniforms, the mix
  of the Monte Carlo inverse transforms. It is the reference for Monte
  Carlo cells. The drift slows Python-bound code more than vectorized code,
  so one kernel cannot serve both.

A task's corrected time is its raw time divided by the slowdown at that
moment: the median time of its kernel within WINDOW_S of the task, over that
kernel's reference time. The window is narrow because short bursts of
slowness set the latency tail: on a 90 s query trace, the p99 spread over
7.5 s segments was 0.05 with a 0.1 s window and 0.11 with a 0.5 s one.

A change to threshcov cannot move the kernels, so corrected times compare
two commits as raw times would, minus most of the drift. Results files keep
the raw figures as well.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np
from scipy import special

SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.1
_X = np.linspace(0.01, 5.0, 300)
_U = np.linspace(0.0005, 0.9995, 2048)


def _analytic() -> None:
    for _ in range(40):
        y = special.ndtr(_X * 1.3) - special.ndtr(-_X)
        float((np.where(y > 0.5, y, 0.0) * np.exp(-0.5 * _X * _X)).sum())


def _vector() -> None:
    special.gammaincinv(2.5, _U)
    special.ndtri(_U)


# name: (kernel, its typical time in seconds on the machine the bounds were set on)
KERNELS = {"analytic": (_analytic, 1.25e-3), "vector": (_vector, 1.5e-3)}


def kernel_for(family: str) -> str:
    return "vector" if family.startswith("mc-") else "analytic"


def kernel_seconds(name: str) -> float:
    """Wall time of one run of the named kernel."""
    start = perf_counter()
    KERNELS[name][0]()
    return perf_counter() - start


class SpeedMeter:
    """Kernel timings taken during a run, and the slowdown they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds = {name: [] for name in KERNELS}

    def sample(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= SAMPLE_EVERY_S:
            for name, values in self.seconds.items():
                values.append(kernel_seconds(name))
            self.times.append(now)

    def slowdown(self, family: str, start: float, end: float) -> float:
        """Median time of the family's kernel around [start, end] over its
        reference time; the nearest sample when none falls within WINDOW_S."""
        name = kernel_for(family)
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return statistics.median(self.seconds[name][lo:hi]) / KERNELS[name][1]
