"""Host-speed calibration for job timings on a shared machine.

On a small shared host the same single-threaded code can run up to twice
as slowly for tens of seconds at a time (other tenants of the host, a
lower clock), and CPU time slows with wall time, so neither measures
ergolab alone.  While a measured pass runs, a SIGALRM timer runs a fixed
calibration kernel every ``INTERVAL`` seconds (more often around the
sub-second set-up).  A job's adjusted time is its wall time without the
kernel's own time, scaled by ``NOMINAL_S`` over the mean kernel time
during the job: seconds at a nominal host speed.
"""

import signal
import time

import numpy as np

INTERVAL = 0.05
NOMINAL_S = 2.5e-4
MIN_SAMPLES = 5
_VALUES = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
_PERM = (np.arange(8) + 1) % 8


def kernel():
    """A fixed loop of tiny NumPy calls (fancy indexing, in-place adds), the
    pattern of ergolab's per-piece and per-step loops; returns its
    (start, end).  Under contention it slowed like all three workloads,
    where a mix of interpreter arithmetic and ``np.roots`` over-corrected
    ``long_horizon`` by up to 20 %."""
    start = time.perf_counter()
    acc = np.zeros((8, 2))
    cur = np.arange(8)
    for _ in range(120):
        acc += _VALUES[cur]
        cur = _PERM[cur]
    return start, time.perf_counter()


class HostClock:
    """Samples the kernel while entered; ``adjust`` rescales intervals."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _inside(self, start, end):
        return [b - a for a, b in self.samples if a >= start and b <= end]

    def adjust(self, intervals):
        """Adjusted seconds of each (start, end); an interval with fewer than
        MIN_SAMPLES kernel runs uses the mean over all of them."""
        overall = np.mean([b - a for a, b in self.samples]) if self.samples else NOMINAL_S
        out = []
        for start, end in intervals:
            inside = self._inside(start, end)
            speed = np.mean(inside) if len(inside) >= MIN_SAMPLES else overall
            out.append(float((end - start - sum(inside)) * NOMINAL_S / speed))
        return out
