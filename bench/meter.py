"""The speed of the machine while the benchmark runs, and a clock without it.

On a shared host the CPU's own speed drifts while process time stays equal
to wall time: a fixed computation reads 15-25% apart from one second to the
next and from one minute to the next, and neighbouring tens of milliseconds
run at nearly the same speed.  Longer runs alone therefore do not make two
sets of runs agree.  The meter runs a fixed pure-Python reference kernel,
which does not touch omegalab, at regular moments during the measured work:
from a timer signal every SAMPLE_EVERY_S seconds, in between the program's
own bytecodes, and by explicit calls around each operation.  The speed
factor of a stretch of program time is NOMINAL_KERNEL_S over the mean kernel
time of the samples taken in and next to that stretch.  A program time
multiplied by its factor is the time the program would take on a machine
that runs the kernel in NOMINAL_KERNEL_S: program work, in seconds.

`now()` is a clock that stops while the kernel runs, so program times never
include the samples.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.05
KERNELS_PER_SAMPLE = 1  # about 3 ms per sample
# Samples this far before or after a stretch of program time still speak for it.
MARGIN_S = 0.15
# Seconds per reference kernel on the machine the README figures were taken on.
NOMINAL_KERNEL_S = 0.003


def reference_kernel() -> tuple:
    """Fixed work in the style of the program: rationals, tuples, dicts, keyed max."""
    n = 9
    a = [
        [Fraction((i * 7 + j * 3) % 11 + (i == j) * 5, 1 + (i + j) % 3) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / pivot
            for k in range(c, n):
                a[r][k] -= factor * a[c][k]
    counts: dict[tuple, int] = {}
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + i
    return max(counts, key=lambda t: (sum(t), t))


class Meter:
    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent in samples so far
        # (program clock at the sample, seconds per kernel), in time order
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        for _ in range(KERNELS_PER_SAMPLE):
            reference_kernel()
        elapsed = perf_counter() - start
        self.samples.append((start - self.spent, elapsed / KERNELS_PER_SAMPLE))
        self.spent += elapsed

    def now(self) -> float:
        """perf_counter() minus the time spent in samples."""
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:
                return t - spent

    def factor(self, start: float, end: float) -> float:
        """Speed relative to nominal over the program-clock stretch [start, end].

        Callers take a sample right after the stretch, so there is one to use.
        """
        near = [s for t, s in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        return NOMINAL_KERNEL_S / statistics.fmean(near)

    @contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_EVERY_S seconds of wall time in the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
