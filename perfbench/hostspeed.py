"""Host speed, measured by a fixed reference loop.

The shared host the benchmark runs on changes speed by up to 1.7x over
minutes, in CPU time as much as in wall time, so a run's host times
move with the host as much as with the program.  A fixed loop of the
kinds of work the package does (interpreted object, dict and generator
code; small numpy array arithmetic), timed between rounds, tracks that
drift: over 33-second windows its mean time correlates at 0.97 with
the mean request time, and dividing by it cut the spread of ten such
windows from 0.16-0.21 to 0.06-0.08 of their median.

The loop calls nothing in the package, so a change to the program never
changes it.  Host times are reported scaled to a reference speed, the
one at which the loop takes ``REFERENCE_S``::

    reported = measured * REFERENCE_S / mean loop time
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "HostSpeed"]

#: seconds one reference loop takes at the reference speed; on the
#: 2-vCPU host the bounds were set on it took 0.033-0.057 s
REFERENCE_S = 0.04

_FRAME = np.random.default_rng(0).integers(0, 255, (64, 64)).astype(np.int16)


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _count(n: int):
    yield from range(n)


def reference_loop() -> int:
    """About 20 ms of interpreted code and 20 ms of small-array numpy."""
    table: dict = {}
    acc = 0
    for i in _count(40_000):
        node = _Node(i & 255, i)
        table[node.key] = table.get(node.key, 0) + node.value
        acc += len(table)
    for i in range(2_800):
        y, x = i % 48, (i * 7) % 48
        acc += int(np.abs(_FRAME[y:y + 16, x:x + 16] - _FRAME[:16, :16]).sum())
    return acc


class HostSpeed:
    """Times of the reference loop taken during one run.

    ``scaled`` is false for work done outside this process: in eight
    sweep runs the pool workers' wall time moved with about the square
    root of the loop's slowdown, so dividing by it over-corrects, and
    their times are reported as measured.
    """

    def __init__(self, scaled: bool = True) -> None:
        self.scaled = scaled
        self.samples: list = []

    def sample(self, seconds: float) -> None:
        """Run the loop at least once and until ``seconds`` have passed."""
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            if t1 >= end:
                return

    @property
    def slowdown(self) -> float:
        """Mean loop time over the reference: above 1 on a slow host."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def scale(self, seconds: float) -> float:
        """Measured host seconds, at the reference speed when scaled."""
        return seconds / self.slowdown if self.scaled else seconds
