"""A machine-speed reference, sampled next to the measured work.

The 2-vCPU shared host this benchmark was written on changes speed by up to
2x from one minute to the next (other tenants come and go), so a wall-clock
time says as much about the host as about the program. Every timed stretch
is therefore also expressed in reference units: its wall time divided by
the duration of a fixed reference computation sampled right before and
after it. The reference runs no rarepred code, so a change to the program
moves the ratio while a change in the host's speed mostly cancels out of it.
Samples are taken between operations, or every ``PERIOD`` seconds by a
timer signal while one long operation runs, and their own time is excluded
from every measurement.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

PERIOD = 0.2  # seconds between timer-driven samples, about 2% of the time

_RNG = np.random.default_rng(7)
_VALUES = _RNG.random(65536)
_CODES = _RNG.integers(0, 50, 1000)
_MATRIX = _RNG.random((128, 128))
_CELLS = [repr(float(v)) for v in _VALUES[:800]]


def reference() -> float:
    """A fixed mix of the kinds of work rarepred does: text to number and
    back as in CSV IO, many small-array numpy calls as in tree routing, a
    medium sort as in split search and a small matrix product as in IRLS and
    the autoencoder. About 4 ms on one core of a shared Intel Xeon host."""
    total = 0.0
    for cell in _CELLS:
        value = float(cell)
        total += len(repr(value)) + (value == int(value))
    for k in range(240):
        rows = np.flatnonzero(_CODES == k % 50)
        total += int(np.count_nonzero(_VALUES[rows] <= 0.5))
    total += float(np.sort(_VALUES)[_VALUES.size // 2])
    total += float((_MATRIX @ _MATRIX).sum())
    return total


class SpeedProbe:
    """Reference samples taken during a run, as sorted (start, end) times."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # a timer signal arrived during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._sampling = False

    @contextlib.contextmanager
    def periodic(self, period: float = PERIOD):
        """Sample every ``period`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def _stretches(self, start: float, end: float):
        """The parts of [start, end) outside samples, each with the indices
        of the samples next to it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        cursor = start
        for k in range(first, last):
            yield self.starts[k] - cursor, (k - 1, k)
            cursor = self.ends[k]
        yield end - cursor, (last - 1, last)

    def busy_s(self, start: float, end: float) -> float:
        """Seconds of [start, end) not spent sampling."""
        return sum(length for length, _ in self._stretches(start, end))

    def refs(self, start: float, end: float) -> float:
        """[start, end) outside samples, in reference units: each stretch
        divided by the mean duration of the samples on either side of it."""
        total = 0.0
        for length, neighbours in self._stretches(start, end):
            near = [self.ends[k] - self.starts[k] for k in neighbours
                    if 0 <= k < len(self.starts)]
            total += length / (sum(near) / len(near))
        return total
