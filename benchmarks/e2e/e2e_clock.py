"""A wall clock that corrects for the host's speed.

On a shared host the CPU's speed swings by up to about 1.5x, in phases
of seconds, as neighbouring load comes and goes.  Process CPU time
slows just as wall time does.  These swings moved a 15-second run's
timings by 20-40%, far more than any code change worth measuring.

``HostClock`` samples the host's speed all through the timed phase.
Every ``PERIOD`` seconds a SIGALRM handler times ``reference_loop``, a
fixed pure-Python loop that uses no library code.  A timed interval is
then reported in *ref*: its wall time divided by the mean time of the
reference loop around it (the samples taken during the interval and in
the ``WINDOW`` seconds before it).  A slow phase lengthens both, so the
ratio keeps only the cost of the work.  The handler's own time is left
out of every interval, so sampling does not inflate what it measures.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

#: Seconds between speed samples.
PERIOD = 0.025
#: Iterations of the reference loop: about 0.45 ms on a 2-core Xeon VM,
#: so sampling costs under 2% of the timed phase.
LOOP = 5000
#: Seconds a ref stands for where a timing must be shown in seconds
#: (set-up time): the reference loop's median over 100 runs on the VM
#: above.
NOMINAL_LOOP_S = 453e-6
#: Seconds of samples before an interval that count towards its speed.
#: A short interval (one B+-tree lookup) then still sees ~8 samples.
WINDOW = 0.2


def reference_loop(n=LOOP):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class Steps:
    """Start and end times of one kind of timed step, kept compactly
    (a run times up to ~300k operations)."""

    __slots__ = ("starts", "ends")

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")

    def add(self, start, end):
        self.starts.append(start)
        self.ends.append(end)

    def extend(self, other):
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)

    def walls(self):
        return np.asarray(self.ends) - np.asarray(self.starts)

    def __len__(self):
        return len(self.starts)


class HostClock:
    """Benchmark time with the sampler's own time taken out, and the
    reference-loop samples that convert an interval into ref."""

    def __init__(self):
        self.spent = 0.0      # handler time so far
        self.at = []          # sample start times, on this clock
        self.prefix = [0.0]   # prefix sums of sample durations
        self._previous = None  # the SIGALRM handler to restore

    def now(self):
        """Wall time in seconds, less the time spent sampling."""
        return perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        self.at.append(start - self.spent)
        self.prefix.append(self.prefix[-1] + took)
        self.spent += perf_counter() - start

    def start(self):
        # A first sample now, so every interval has one before it.
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def refs(self, starts, ends):
        """The lengths of the intervals ``[starts[i], ends[i]]`` in ref:
        each one's wall time over the mean reference-loop time around it
        (always at least the latest sample before its end)."""
        starts, ends = np.asarray(starts), np.asarray(ends)
        at, prefix = np.asarray(self.at), np.asarray(self.prefix)
        hi = np.searchsorted(at, ends, side="right")
        if len(hi) and hi.min() == 0:
            raise RuntimeError("an interval ends before the first sample")
        lo = np.minimum(np.searchsorted(at, starts - WINDOW, side="left"),
                        hi - 1)
        return (ends - starts) * (hi - lo) / (prefix[hi] - prefix[lo])

    def median_reference_s(self):
        """Median sample: the host's typical speed during the run."""
        return float(np.median(np.diff(self.prefix))) \
            if len(self.prefix) > 1 else 0.0
