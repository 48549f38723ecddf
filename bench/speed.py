"""Machine-speed probe that turns wall time into reference seconds.

On the shared 2-vCPU VM where the benchmark was built, one process's speed
changed by up to 2x within a minute: identical verify passes took
0.79-1.52 s, and so did the medians of 20-second windows.  The probe runs
a fixed kernel before and after every operation and, from a SIGALRM timer,
every ``INTERVAL_S`` during it.  An operation's reference time is its wall
time (kernel runs excluded) times the mean of ``REFERENCE_S / kernel
time`` over those samples: the seconds it would take on a host where the
kernel takes ``REFERENCE_S``.  On that VM the run-to-run spread
(IQR/median over ten seeds) of the median pass time was 3.3, 2.2, 7.2 and
2.7 % on figures, residuals, sweep and verify, against 13.7, 33.6, 15.5
and 10.9 % unscaled.

The kernel is the benchmark's own code, so no change to wsurf changes it.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.002     # kernel duration that defines one reference second
INTERVAL_S = 0.1

_NODES = np.linspace(0.0, 1.0, 15) + 0j


def _kernel():
    """Fixed work in the pipeline's mix: point-to-segment distances in
    interpreter-level complex arithmetic, as in the planner's segment
    tests, then ufuncs over 15-node arrays, as in a GK15 panel."""
    acc = 0.0
    for k in range(600):
        a, b, p = complex(k % 13, 0.5), complex(1.0, k % 7), 0.3 + 0.2j
        d = b - a
        t = min(1.0, max(0.0, ((p - a) * d.conjugate()).real
                         / (abs(d) ** 2 + 1.0)))
        acc += abs(p - (a + t * d))
    for k in range(150):
        acc += float(np.sum(np.exp(_NODES * (0.001 * k))).real)
    return acc


class SpeedProbe:
    """Samples the kernel around and during timed calls."""

    def __init__(self):
        self.durations = []
        self._spent = 0.0

    def _sample(self, *_signal_args):
        start = time.perf_counter()
        _kernel()
        duration = time.perf_counter() - start
        self.durations.append(duration)
        self._spent += duration

    def timed(self, fn):
        """(fn(), wall seconds without probing, reference seconds)."""
        self._sample()
        first, spent = len(self.durations) - 1, self._spent
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - (self._spent - spent)
        self._sample()
        speed = statistics.fmean(REFERENCE_S / d for d in self.durations[first:])
        return result, wall, wall * speed
