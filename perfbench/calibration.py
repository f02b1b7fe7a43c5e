"""A fixed calibration loop that tells how fast this host runs right now.

The benchmark shares a few cores of a host with other tenants, whose load
slows every instruction of ours without showing as lost CPU time: the same
pass can take 1.9 times as long in one half-minute as in the next.  The loop
below does a fixed amount of work of the kind the package does (dictionary
grouping of short integer rows in Python, boolean masks and ``bincount`` on
small NumPy arrays) and shares no code with it, so a change to the package
never changes the loop.  Timed between the benchmark's own calls, its time
divided by ``REFERENCE_S`` is the host's slowdown at that moment; dividing a
measured time by the slowdown of the same moments estimates the time the
work would have taken on the uncontended host.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

# Uncontended time of one ``run_loop`` on the host the bounds were tuned on
# (2 shared cores of an Intel Xeon at 2.0 GHz, Python 3.11, NumPy 2.4): the
# fastest decile of several hundred samples.  Only ratios to it are used.
REFERENCE_S = 0.0050
EXPECTED = 165_008

_rng = random.Random(20_220_317)
_ROWS = [tuple(_rng.randrange(3) for _ in range(9)) for _ in range(500)]
_ARRAY = np.array(_ROWS, dtype=np.int64)


def run_loop() -> int:
    """The fixed work; returns a checksum so that a broken loop shows."""
    total = 0
    for step in range(30):
        a, b = step % 9, (step + 4) % 9
        groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for row in _ROWS:
            groups.setdefault((row[a], row[b]), []).append(row)
        total += sum(len(rows) * (i + 1) for i, rows in enumerate(groups.values()))
        for column in range(9):
            values = _ARRAY[:, column]
            mask = values == step % 3
            total += int(np.bincount(values[mask], minlength=3)[step % 3]) + int(mask.sum())
    return total


def sample() -> float:
    """Seconds one ``run_loop`` takes now."""
    start = perf_counter()
    checksum = run_loop()
    elapsed = perf_counter() - start
    if checksum != EXPECTED:
        raise RuntimeError(f"calibration loop checksum {checksum}, expected {EXPECTED}")
    return elapsed


def slowdown_now() -> float:
    """The host's slowdown now: the median of three loops over ``REFERENCE_S``."""
    return sorted(sample() for _ in range(3))[1] / REFERENCE_S


class Pacer:
    """Scales timed steps by the host's slowdown around them.

    Steps are the entries of an array of ``shape``.  ``add`` books a step's
    seconds to the current segment; ``tick``, called between steps, measures
    the slowdown at most every ``interval`` seconds and closes the segment,
    writing each of its steps' seconds divided by the mean of the slowdown
    measured at the segment's start and end into ``scaled``.  Call
    ``tick(force=True)`` before the first step and after the last.
    """

    def __init__(self, shape, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.scaled = np.zeros(shape)
        self._segment: list[tuple[object, float]] = []
        self._last = float("-inf")

    def add(self, index, seconds: float) -> None:
        self._segment.append((index, seconds))

    def tick(self, force: bool = False) -> None:
        if not force and perf_counter() - self._last < self.interval:
            return
        self.samples.append(slowdown_now())
        if len(self.samples) > 1:
            factor = (self.samples[-2] + self.samples[-1]) / 2
            for index, seconds in self._segment:
                self.scaled[index] = seconds / factor
        self._segment.clear()
        self._last = perf_counter()
