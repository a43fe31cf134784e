"""Host-speed reference for the benchmark's timings.

The benchmark is meant for shared hosts whose CPU speed drifts by up to
about 1.7x over seconds to minutes (a fixed pure-Python loop measured
73-136 ms per block on a 2-core cloud VM).  Repeating the work inside a
run cannot remove a drift that slow, so every timed interval is scaled
by the speed of a fixed reference kernel timed around it:

    reference seconds = raw seconds * NOMINAL_S / kernel seconds

A reference second is a second on a host where the kernel takes
NOMINAL_S.  The kernel does not touch the program, so a change to the
program moves the scaled figures exactly as it moves the raw ones.  The
raw seconds are kept next to the scaled ones in every result file.

The kernel is interpreter-bound work of the kinds the program does:
integer arithmetic, tuple-keyed dict updates, a sort, a list
comprehension and scattered lookups in a dict larger than the L2 cache
(about 10 MB of the workload process's memory).  A memory-bound numpy
sweep tracked the drift worse, even for the sparse truncation jobs.
``Meter`` also samples it every PERIOD_S inside an in-process job, from
a SIGALRM handler, and leaves the kernel's own time out of the job's.
Around a subprocess, where it cannot sample inside, it takes the median
of SUBPROCESS_ENDS kernel runs at each end.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

NOMINAL_S = 0.02
PERIOD_S = 0.12
SUBPROCESS_ENDS = 3
_RANDOM = random.Random(0)
_FLOATS = [_RANDOM.random() for _ in range(30_000)]
_TABLE = {i * 7919: i for i in range(100_000)}
_KEYS = _RANDOM.sample(sorted(_TABLE), 20_000)


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    total = 0
    for k in range(50_000):
        total += k * k
    counts: dict = {}
    for i in range(8_000):
        key = (i % 97, i % 89, i)
        counts[key] = counts.get(key[:2], 0) + 1
    sorted(_FLOATS)
    [x * 2 for x in _FLOATS]
    for key in _KEYS:
        total += _TABLE[key]
    return time.perf_counter() - start


def kernel_median_s(count: int) -> float:
    """Median of ``count`` kernel times."""
    return statistics.median(kernel_s() for _ in range(count))


def scaled(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` in reference seconds, given the kernel times around it."""
    return raw_s * NOMINAL_S / ((before_s + after_s) / 2)


class Meter:
    """Context manager timing its block in raw and in reference seconds.

    The kernel runs ``ends`` times on entry and on exit (the median
    counts) and, with ``inside``, once every PERIOD_S of wall time in
    between: a sample that falls due during a long call into C runs when
    the call returns.  The block's time is cut into the stretches between
    samples, each scaled by the mean of the kernel times at its two ends.
    """

    def __init__(self, inside: bool, ends: int = 1):
        self.inside = inside
        self.ends = ends
        self.raw_s = self.scaled_s = 0.0
        self._marks: list = []  # (kernel start, kernel end, kernel seconds)

    def _sample(self, count: int = 1):
        start = time.perf_counter()
        took = kernel_median_s(count)
        self._marks.append((start, time.perf_counter(), took))

    def _alarm(self, *_):
        self._sample()
        # One-shot, re-armed after the kernel: no alarm lands inside it.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._sample(self.ends)
        if self.inside:
            self._saved = signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)
        self._sample(self.ends)
        for (_, end, took), (start, _, next_took) in zip(self._marks, self._marks[1:]):
            self.raw_s += start - end
            self.scaled_s += scaled(start - end, took, next_took)
        return False
