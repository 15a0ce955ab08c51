"""The host's speed, read from a fixed block of pure-Python work.

The benchmark runs on hosts whose processors are shared: on a 2-vCPU
container the same round of `bool-programs` took from 1.6 to 2.7 s
within a minute, and whole runs of it ran half as fast as their
neighbours for minutes at a time.  A run times this block, which shares
no code with the checker, at most every EVERY_S seconds between
operations and five times before each set-up repeat, and scales its
times by NOMINAL_S over the median block time.
Its figures are then times on a host that runs the block in NOMINAL_S:
a change to the checker moves them, a slower moment of the host mostly
does not.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The block's median time on the host of the reference figures in README.md.
NOMINAL_S = 0.012
EVERY_S = 0.2


def block() -> int:
    """Tuples, dicts, hashing, Fractions and sorting, the checker's staples."""
    acc = 0
    for k in range(300):
        d = {}
        for j in range(20):
            d[(j, k % 7, f"v{j}")] = Fraction(j + 1, k % 5 + 1)
        acc += len(sorted(d.items(), key=lambda kv: kv[1])) + (hash(frozenset(d)) & 1)
    return acc


class HostSpeed:
    def __init__(self):
        self.times = []
        self._due = 0.0

    def sample(self, force: bool = False) -> None:
        """Time the block, if EVERY_S has passed since the last one.  The
        garbage collector is off meanwhile, so that the size of the
        checker's heap does not reach the block's time."""
        start = time.perf_counter()
        if force or start >= self._due:
            gc.disable()
            try:
                block()
            finally:
                gc.enable()
            end = time.perf_counter()
            self.times.append(end - start)
            self._due = end + EVERY_S

    def scale(self) -> float:
        """The factor that turns a time of this run into one at NOMINAL_S."""
        return NOMINAL_S / statistics.median(self.times)
