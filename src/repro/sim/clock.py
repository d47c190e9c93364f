"""Virtual simulation clock.

All training/communication durations in the reproduction are *simulated*
seconds accumulated on a :class:`SimClock`, never wall-clock time.  This is
what makes the experiments deterministic and hardware-independent: the
paper's testbed simulated CPU shares and link speeds on a real machine,
whereas here the whole clock is virtual.
"""

from __future__ import annotations

from repro.utils.validation import check_non_negative


class SimClock:
    """Monotonically non-decreasing virtual clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        check_non_negative(start, "start")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Advance the clock by ``delta`` seconds and return the new time."""
        check_non_negative(delta, "delta")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump the clock forward to ``timestamp``.

        Raises
        ------
        ValueError
            If ``timestamp`` is earlier than the current time (the clock
            never moves backwards), or NaN.
        """
        if not timestamp >= self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock to ``start`` (used between experiment repetitions)."""
        check_non_negative(start, "start")
        self._now = float(start)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f}s)"
