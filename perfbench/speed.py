"""Machine speed, sampled all through the measured work.

The machine is shared: within seconds its speed changes by up to a factor of
two, for all work in the process. While the benchmark measures, a timer
signal runs a fixed slice of interpreter work (the reference) every
``INTERVAL_S`` of wall time, in the benchmark's own thread, between two of
the program's bytecodes. A measured stretch of wall time, less the reference
runs inside it, is reported at the nominal speed where the reference takes
``NOMINAL_REFERENCE_S``: it is multiplied by the mean of
``NOMINAL_REFERENCE_S / reference seconds`` over the samples taken in it and
within ``PAD_S`` of either end. As the samples are evenly spaced in time,
that mean is the stretch's mean speed; the padding gives short stretches
enough samples, since one sample is noisy while the speed holds for seconds.

The reference's time does not depend on the program's heap: ``heapcheck.py``
compares it with the same loop in a process of its own.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
from itertools import accumulate
from statistics import NormalDist
from time import perf_counter

NOMINAL_REFERENCE_S = 0.001
INTERVAL_S = 0.05
PAD_S = 0.5

_NORMAL = NormalDist()
_TABLE: dict[str, int] = {}


def reference_work() -> float:
    """Fixed interpreter work in the program's mix: string formatting and
    slicing, hashing, float arithmetic, Python calls and dict stores.

    It allocates no object the cyclic garbage collector tracks, so it never
    triggers a collection of the program's heap.
    """
    _TABLE.clear()
    total = 0.0
    for i in range(600):
        key = f"frame:ref:{i % 41}#crop:{i},{i + 3},{i + 7},{i + 9}"
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        total += _NORMAL.inv_cdf((int.from_bytes(digest, "big") + 0.5) / 2.0**64)
        _TABLE[key[-9:]] = i
    return total


class SpeedSampler:
    """Runs the reference every ``INTERVAL_S`` while it is entered.

    ``clock()`` is ``perf_counter()`` less the time spent in reference runs,
    so differences of it time the program alone. A mark is the pair
    ``(perf_counter(), clock())`` read at one instant.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._sampling = False
        self._speeds: list[float] = [0.0]  # prefix sums of nominal / sample

    def mark(self) -> tuple[float, float]:
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now, now - spent

    def clock(self) -> float:
        return self.mark()[1]

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a sample held up past the next tick; skip that tick
            return
        self._sampling = True
        start = perf_counter()
        reference_work()
        seconds = perf_counter() - start
        self.starts.append(start)
        self.seconds.append(seconds)
        self.spent += seconds
        self._sampling = False

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:
            self.sample()
        self._speeds = [0.0, *accumulate(NOMINAL_REFERENCE_S / s for s in self.seconds)]

    def speed(self, start: float, end: float) -> float:
        """Nominal over actual speed between two ``perf_counter()`` times.

        It averages the samples that started in ``[start - PAD_S, end +
        PAD_S)``, or takes the nearest one when none did. Valid once the
        sampler has exited.
        """
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_left(self.starts, end + PAD_S)
        if hi == lo:
            middle = (start + end) / 2
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
            lo = min(near, key=lambda i: abs(self.starts[i] - middle))
            hi = lo + 1
        return (self._speeds[hi] - self._speeds[lo]) / (hi - lo)

    def nominal(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two marks, reference runs excluded, at nominal speed."""
        return (end[1] - start[1]) * self.speed(start[0], end[0])

    def reference_us(self) -> float:
        """Median reference time over the samples, in microseconds."""
        return statistics.median(self.seconds) * 1e6
