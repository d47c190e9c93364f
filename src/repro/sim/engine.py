"""Discrete-event simulation engine.

The engine couples a :class:`~repro.sim.clock.SimClock` with an
:class:`~repro.sim.events.EventQueue`.  It is the execution substrate of
the :class:`~repro.runtime.TrainingRuntime`: every training run — ComDML
and all baselines alike — advances its clock by scheduling round and
work-unit events here.  ``sync`` mode
(``ComDMLConfig.execution_mode = "sync"``) schedules one round-closing
event per round; ``semi-sync`` and ``async`` modes (and ``sync`` under a
schedule) schedule a round's unit completions as one
:class:`~repro.sim.events.EventBatch` through
:meth:`SimulationEngine.schedule_batch`, plus quorum-deadline and re-cost
events.  An ``async`` round schedules its gossip aggregations as a second
batch, plus one event per aggregation that a re-cost moved; and a
:class:`~repro.runtime.dynamics.DynamicsSchedule` registers timestamped
arrival/departure/churn events directly on the engine at construction
time, which is what lets them land *mid-round* while work is in flight.

Two driving styles coexist: :meth:`SimulationEngine.run_until` processes
everything up to a known horizon (a sync round without a schedule, and
every round's aggregation window), while :meth:`SimulationEngine.step`
advances one event or batch run at a time until a caller's closure
condition fires (the flight-table rounds, whose end a quorum, a deadline,
the last gossip aggregation or mid-round churn decides as the round runs).
Both rely on the queue's total event order for bit-for-bit deterministic
runs.  Timestamps must be finite: NaN has no place in that order.

A batch changes none of that order: each of its rows fires under the key
its own :meth:`SimulationEngine.schedule_at` call would have had, counts in
:attr:`SimulationEngine.processed_events`, and reaches kind handlers and
observers as an :class:`~repro.sim.events.Event` built for them.  A row
whose unit has since been re-costed or abandoned fires like any stale
event: its callback recognises it and does nothing.

The engine fires a batch a *run* at a time: the rows due before the next
heap entry, in one callback call (the run contract is on
:meth:`SimulationEngine.schedule_batch`).  The clock rule that comes with
it: during the call the clock reads the run's first row, so per-row code
takes its time from the row, never from :attr:`SimulationEngine.now`, and
schedules at absolute times.  When the batch's kind has a handler or the
engine an observer, every run is one row, fired as before.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventBatch, EventQueue
from repro.utils.logging import get_logger

logger = get_logger("sim.engine")


class SimulationEngine:
    """Runs events in timestamp order on a virtual clock."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.queue = EventQueue()
        self._handlers: dict[str, list[Callable[[Event], None]]] = {}
        self._observers: list[Callable[[Event], None]] = []
        self._processed = 0
        self._batch_runs = 0
        self._batch_rows = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far; a batch row counts as one."""
        return self._processed

    @property
    def batch_runs(self) -> int:
        """Number of batch runs fired so far: one callback call each."""
        return self._batch_runs

    @property
    def batch_rows(self) -> int:
        """Number of batch rows fired so far, over :attr:`batch_runs` runs."""
        return self._batch_rows

    def schedule_at(
        self,
        timestamp: float,
        kind: str = "generic",
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Schedule an event at an absolute, finite simulated time."""
        if not math.isfinite(timestamp):
            raise ValueError(f"event time must be finite, got {timestamp}")
        if timestamp < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now}, at={timestamp}"
            )
        return self.queue.schedule(timestamp, kind, payload, priority, callback)

    def schedule_after(
        self,
        delay: float,
        kind: str = "generic",
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Schedule an event ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(
            self.clock.now + delay, kind, payload, priority, callback
        )

    def schedule_batch(
        self,
        timestamps: ArrayLike,
        kind: str,
        callback: Callable[[list[float], list[int], int, int], int],
    ) -> EventBatch:
        """Schedule one priority-0 event per row of ``timestamps`` at once.

        Row ``r`` fires exactly where ``schedule_at(timestamps[r], kind,
        callback=...)`` calls made now in row order would fire it.  The
        batch takes one heap entry however many rows it has, and fires in
        runs: the rows due before the next heap entry (and by a
        :meth:`run_until` horizon or within a :meth:`run` budget).  For a
        run the engine calls ``callback(times, rows, lo, hi)``: rows
        ``rows[lo:hi]`` are due, at ``times[lo:hi]``, in firing order.  The
        callback fires rows from ``lo`` on, in order, and returns how many
        it fired, at least 1.  It ends the run right after a row that
        scheduled an event or that ends the caller's stepping (closes a
        round): the new event may be due before the next row.

        The engine advances the clock to ``times[lo]`` before the call, so
        per-row code reads its time from ``times``, never from
        :attr:`now`, and schedules at absolute times.  After the call it
        advances the clock to the last fired row's time, queues the batch
        under its next row and adds the count to
        :attr:`processed_events`.  When a kind handler or an observer needs
        each row as an :class:`Event`, every run is one row.
        """
        times = np.array(timestamps, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError(f"batch timestamps must be 1-D, got shape {times.shape}")
        if len(times):
            if not np.isfinite(times).all():
                raise ValueError("batch event times must be finite")
            if times.min() < self.clock.now:
                raise ValueError(
                    f"cannot schedule in the past: now={self.clock.now}, "
                    f"at={times.min()}"
                )
        return self.queue.schedule_batch(times, kind, callback)

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register a handler for all events of the given kind."""
        self._handlers.setdefault(kind, []).append(handler)

    def subscribe(self, observer: Callable[[Event], None]) -> None:
        """Register an observer called for *every* processed event.

        Observers run after the event's own callback and kind handlers —
        they watch the stream (e.g. to check the order a batch fires in)
        and must not schedule into the past.
        """
        self._observers.append(observer)

    def step(self) -> Optional[Union[Event, EventBatch]]:
        """Process the next event or batch run (advancing the clock).

        Returns the processed event, or ``None`` if the queue is empty.
        For a batch run that no handler or observer needed as an
        :class:`Event`, it returns the batch.
        """
        if not self.queue:
            return None
        return self._fire(math.inf, math.inf)[0]

    def _fire(
        self, until: float, budget: float
    ) -> tuple[Union[Event, EventBatch], int]:
        """Process the next event, or a run of at most ``budget`` rows due by ``until``.

        Returns what :meth:`step` returns and the number of events processed.
        """
        event = self.queue.pop()
        if type(event) is EventBatch:
            return self._fire_run(event, until, budget)
        self.clock.advance_to(event.timestamp)
        if event.callback is not None:
            event.callback(event)
        for handler in self._handlers.get(event.kind, []):
            handler(event)
        for observer in self._observers:
            observer(event)
        self._processed += 1
        return event, 1

    def _fire_run(
        self, batch: EventBatch, until: float, budget: float
    ) -> tuple[Union[Event, EventBatch], int]:
        """Fire a popped batch's run and queue the batch under its next row."""
        lo, hi = self.queue.pop_run(batch, until)
        handlers = self._handlers.get(batch.kind)
        observed = handlers or self._observers
        if observed:
            hi = lo + 1
        elif hi - lo > budget:
            hi = lo + budget
        times, rows = batch.times, batch.rows
        self.clock.advance_to(times[lo])
        taken = batch.callback(times, rows, lo, hi)
        if not 0 < taken <= hi - lo:
            raise ValueError(
                f"a batch callback fired {taken!r} of its {hi - lo} due rows"
            )
        last = lo + taken
        self.clock.advance_to(times[last - 1])
        self.queue.requeue(batch, last)
        self._batch_runs += 1
        self._batch_rows += taken
        self._processed += taken
        if not observed:
            return batch, taken
        row = rows[lo]
        event = Event(times[lo], 0, batch.base + row, batch.kind, row)
        for handler in handlers or ():
            handler(event)
        for observer in self._observers:
            observer(event)
        return event, 1

    def run_until(self, timestamp: float) -> int:
        """Process all events with ``event.timestamp <= timestamp``.

        Returns the number of events processed, a batch row counting as
        one.  The clock ends at ``timestamp`` even if the last event fired
        earlier.
        """
        count = 0
        while self.queue and self.queue.peek().timestamp <= timestamp:
            count += self._fire(timestamp, math.inf)[1]
        if timestamp > self.clock.now:
            self.clock.advance_to(timestamp)
        return count

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally bounded); returns events processed.

        A batch row counts as one event, so a run stops at the budget.
        """
        count = 0
        budget = math.inf if max_events is None else max_events
        while self.queue and count < budget:
            count += self._fire(math.inf, budget - count)[1]
        return count
