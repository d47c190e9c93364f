"""Event primitives for the discrete-event engine.

Events fire in ``(timestamp, priority, sequence)`` order.  The sequence
number is a monotonically increasing tiebreaker assigned by the queue so
that events scheduled at the same instant fire in insertion order — this
keeps runs deterministic regardless of payload contents.

The runtime leans on that total order in two ways worth knowing about:

* *Priorities* separate same-instant round machinery — unit completions
  fire before a ``quorum_deadline`` (priority 1) before a ``round_end``
  (priority 2), so a unit finishing exactly at the deadline still makes
  the quorum.
* *Stale events are never cancelled.*  When mid-round churn re-costs an
  in-flight unit or a departure abandons one
  (see :mod:`repro.runtime.dynamics`), the superseded completion event
  stays queued under its old version stamp and is recognised and ignored
  when it eventually fires — the queue needs no removal operation.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Event:
    """A scheduled simulation event.

    Attributes
    ----------
    timestamp:
        Simulated time (seconds) at which the event fires.
    priority:
        Secondary ordering key; lower fires first at equal timestamps.
    sequence:
        Insertion-order tiebreaker, assigned by :class:`EventQueue`.
    kind:
        Free-form event type string (e.g. ``"round_end"``,
        ``"profile_churn"``); excluded from equality.
    payload:
        Arbitrary data attached to the event; excluded from equality.
    callback:
        Optional callable invoked by the engine when the event fires.
    """

    timestamp: float
    priority: int = 0
    sequence: int = 0
    kind: str = field(default="generic", compare=False)
    payload: Any = field(default=None, compare=False)
    callback: Optional[Callable[["Event"], None]] = field(default=None, compare=False)


class EventQueue:
    """Min-heap of :class:`Event` ordered by time, priority, insertion order.

    The heap holds ``(timestamp, priority, sequence, event)`` tuples, so
    every sift compares plain tuples in C instead of calling a Python
    ``__lt__`` on the events.  Sequences are unique, so the comparison never
    reaches the event itself and the pop order is exactly
    ``(timestamp, priority, sequence)``.  An event's timestamp and priority
    are read once, when it is pushed.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> Event:
        """Insert an event, stamping its sequence number; returns the event."""
        event.sequence = sequence = next(self._counter)
        heapq.heappush(self._heap, (event.timestamp, event.priority, sequence, event))
        return event

    def schedule(
        self,
        timestamp: float,
        kind: str = "generic",
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Convenience constructor + push."""
        event = Event(
            timestamp=timestamp,
            priority=priority,
            kind=kind,
            payload=payload,
            callback=callback,
        )
        return self.push(event)

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0][3]

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
