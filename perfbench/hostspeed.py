"""A fixed reference computation that tracks the host's current speed.

Shared hosts change speed under a running benchmark: on a 2-vCPU cloud
host every kind of code was seen to run 1.4-1.75x slower for stretches of
seconds to minutes, with no steal time and CPU time tracking wall time.
A median over one run cannot remove a slow stretch that covers the run.

:func:`reference_seconds` times a fixed mix of the kinds of work the
program does — interpreter loops, small-object churn and sorting, small
NumPy array arithmetic — that never changes with the program.  Timed next
to a phase of the program, it tells how slow the host was at that moment;
:func:`adjusted` divides that out and expresses the phase in seconds on the
reference host, where the mix takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the reference mix takes on the reference host (2-vCPU Xeon,
#: Python 3.11, NumPy 2.4, in its fast state).
REFERENCE_S = 0.0054

#: A phase is adjusted by the latest sample, taken at most this many
#: seconds before it (sampling costs about 4 % of the run at this rate).
SAMPLE_INTERVAL_S = 0.25

_ARRAY = np.linspace(0.0, 1.0, 20_000)


def _interpreter() -> int:
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def _objects() -> int:
    table = {}
    for i in range(6_000):
        table[i] = (i, float(i), str(i))
    return len(sorted(table.values(), key=lambda row: -row[1]))


def _arrays() -> float:
    total = 0.0
    for _ in range(120):
        total += float((_ARRAY * 1.0001 + 1.0).sum())
    return total


def reference_seconds() -> float:
    """Seconds the reference mix takes now: the fastest of two tries of each part."""
    total = 0.0
    for part in (_interpreter, _objects, _arrays):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def adjusted(seconds: float, reference: float) -> float:
    """``seconds`` measured while the mix took ``reference``, on the reference host."""
    return seconds * REFERENCE_S / reference


class HostSpeed:
    """The latest reference sample, renewed once it is :data:`SAMPLE_INTERVAL_S` old."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S, sample=reference_seconds):
        self.interval = interval
        self.sample = sample
        self.reference = 0.0
        self.taken = -float("inf")

    def now(self) -> float:
        """Reference seconds for a phase about to start."""
        if time.perf_counter() - self.taken >= self.interval:
            self.reference = self.sample()
            self.taken = time.perf_counter()
        return self.reference
