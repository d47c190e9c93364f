"""Event primitives for the discrete-event engine.

Events fire in ``(timestamp, priority, sequence)`` order.  The sequence
number is a monotonically increasing tiebreaker assigned by the queue so
that events scheduled at the same instant fire in insertion order — this
keeps runs deterministic regardless of payload contents.  Timestamps are
finite (the engine rejects NaN and infinities), so the order is total.

The runtime leans on that total order in two ways worth knowing about:

* *Priorities* separate same-instant round machinery — unit completions
  fire before a ``quorum_deadline`` (priority 1) before a ``round_end``
  (priority 2), so a unit finishing exactly at the deadline still makes
  the quorum.
* *Stale events are never cancelled.*  When mid-round churn re-costs an
  in-flight unit or a departure abandons one
  (see :mod:`repro.runtime.dynamics`), the superseded completion — the
  unit's row of the round's batch, or the event of an earlier re-cost —
  stays queued and is recognised and ignored when it eventually fires, in
  this round or a later one.  The queue needs no removal operation.

An :class:`EventBatch` holds many same-kind events — a round's initial unit
completions — as columns behind a single heap entry.  It reserves one
sequence number per row, so every row fires under exactly the key its own
:meth:`EventQueue.schedule` call would have given it, and the total order
above is unchanged.  Its rows are sorted by that key, so the rows due
before everything else queued are a prefix of what is left, a *run*:
:meth:`EventQueue.pop_run` bounds it with a bisection over the batch's
times, and :meth:`EventQueue.requeue` puts the batch back under the first
row its callback did not fire.  The engine fires a run with one
``callback(times, rows, lo, hi)`` call that returns how many rows it
fired; during the call the clock reads the run's first row, so per-row
code takes its time from ``times`` (the contract is on
:meth:`~repro.sim.engine.SimulationEngine.schedule_batch`).
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

import numpy as np


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


class EventBatch:
    """Priority-0 events of one kind, one per row, queued as one heap entry.

    Row ``r`` fires at ``timestamps[r]`` under sequence ``base + r``; the
    queue reserves the block of sequences when the batch is scheduled.
    Rows fire in ``(timestamp, row)`` order: ``times`` and ``rows`` hold
    them in that order, ``position`` indexes the next one, and the queue
    keys the batch's entry by it.  The engine fires a run of them with one
    ``callback(times, rows, lo, hi)`` call (see
    :meth:`~repro.sim.engine.SimulationEngine.schedule_batch`); it builds no
    :class:`Event` unless a kind handler or an observer needs one.
    """

    __slots__ = ("kind", "callback", "base", "times", "rows", "position")

    def __init__(
        self,
        timestamps: np.ndarray,
        kind: str,
        callback: Callable[[list[float], list[int], int, int], int],
        base: int,
    ) -> None:
        order = np.argsort(timestamps, kind="stable")
        self.kind = kind
        self.callback = callback
        self.base = base
        self.times: list[float] = timestamps[order].tolist()
        self.rows: list[int] = order.tolist()
        self.position = 0

    def __len__(self) -> int:
        """Rows not yet fired."""
        return len(self.rows) - self.position

    @property
    def timestamp(self) -> float:
        """When the next row fires."""
        return self.times[self.position]


class EventQueue:
    """Min-heap of :class:`Event` ordered by time, priority, insertion order.

    The heap holds ``(timestamp, priority, sequence, event)`` tuples, so
    every sift compares plain tuples in C instead of calling a Python
    ``__lt__`` on the events.  Sequences are unique, so the comparison never
    reaches the event itself and the pop order is exactly
    ``(timestamp, priority, sequence)``.  An event's timestamp and priority
    are read once, when it is pushed.  An :class:`EventBatch` sits in the
    heap as one such tuple, keyed by its next row.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Union[Event, EventBatch]]] = []
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

    def schedule_batch(
        self,
        timestamps: np.ndarray,
        kind: str,
        callback: Callable[[list[float], list[int], int, int], int],
    ) -> EventBatch:
        """Queue one priority-0 event per row, under consecutive sequences.

        Row ``r`` gets the sequence the ``r``-th of ``len(timestamps)``
        :meth:`schedule` calls made now would get.
        """
        base = next(self._counter)
        self._counter = itertools.count(base + len(timestamps))
        batch = EventBatch(timestamps, kind, callback, base)
        if len(batch):
            heapq.heappush(
                self._heap, (batch.times[0], 0, base + batch.rows[0], batch)
            )
        return batch

    def pop(self) -> Union[Event, EventBatch]:
        """Remove and return the earliest event, or the batch whose row is next.

        A popped batch is out of the queue until :meth:`requeue` puts it
        back; :meth:`pop_run` says how far its due rows reach.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)[3]

    def pop_run(self, batch: EventBatch, until: float) -> tuple[int, int]:
        """The run ``(lo, hi)`` of a batch :meth:`pop` just returned.

        ``lo`` is the batch's position, and rows ``lo..hi-1`` of its
        ``times`` / ``rows`` are those whose key ``(time, 0, base + row)`` is
        below the key ``(t, p, s)`` of the next heap entry and whose time is
        at most ``until``: every row before ``t``; at ``t``, every row if
        ``p > 0``, the rows with ``base + row < s`` if ``p == 0``, none if
        ``p < 0``.  The batch's next row must be due by ``until``, so the
        run holds at least that row.
        """
        times = batch.times
        lo = batch.position
        end = len(times) if until >= times[-1] else bisect_right(times, until, lo)
        if not self._heap:
            return lo, end
        t, p, s, _ = self._heap[0]
        if t > times[end - 1]:
            return lo, end
        if p > 0:
            return lo, bisect_right(times, t, lo, end)
        hi = bisect_left(times, t, lo, end)
        if not p:
            rows, base = batch.rows, batch.base
            while hi < end and times[hi] == t and base + rows[hi] < s:
                hi += 1
        return lo, hi

    def requeue(self, batch: EventBatch, position: int) -> None:
        """Move a popped batch to ``position`` and queue it under that row.

        A batch with no row left stays out of the queue.
        """
        batch.position = position
        if position < len(batch.rows):
            heapq.heappush(
                self._heap,
                (batch.times[position], 0, batch.base + batch.rows[position], batch),
            )

    def peek(self) -> Union[Event, EventBatch]:
        """Return (without removing) the earliest event or batch."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0][3]

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
