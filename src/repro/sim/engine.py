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
:meth:`SimulationEngine.schedule_batch`, plus quorum-deadline,
re-cost and gossip-aggregation events; and a
:class:`~repro.runtime.dynamics.DynamicsSchedule` registers timestamped
arrival/departure/churn events directly on the engine at construction
time, which is what lets them land *mid-round* while work is in flight.

Two driving styles coexist: :meth:`SimulationEngine.run_until` processes
everything up to a known horizon (a sync round without a schedule, and
every round's aggregation window), while :meth:`SimulationEngine.step`
advances one event at a time until a caller's closure condition fires
(the flight-table rounds, whose end a quorum, a deadline, the last gossip
aggregation or mid-round churn decides as the round runs).  Both rely on the queue's total
event order for bit-for-bit deterministic runs.

A batch changes none of that order: each of its rows fires under the key
its own :meth:`SimulationEngine.schedule_at` call would have had, counts in
:attr:`SimulationEngine.processed_events`, and reaches kind handlers and
observers as an :class:`~repro.sim.events.Event` built for them.  A row
whose unit has since been re-costed or abandoned fires like any stale
event: its callback recognises it and does nothing.
"""

from __future__ import annotations

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

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(
        self,
        timestamp: float,
        kind: str = "generic",
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Schedule an event at an absolute simulated time."""
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
        callback: Callable[[float, int], None],
    ) -> EventBatch:
        """Schedule one priority-0 event per row of ``timestamps`` at once.

        Row ``r`` fires exactly where ``schedule_at(timestamps[r], kind,
        callback=...)`` calls made now in row order would fire it, and the
        engine calls ``callback(timestamp, r)``.  The batch takes one heap
        entry however many rows it has.
        """
        times = np.array(timestamps, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError(f"batch timestamps must be 1-D, got shape {times.shape}")
        if len(times) and times.min() < self.clock.now:
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
        they watch the stream (e.g. the trace pipeline's opt-in
        ``engine_event`` debug feed) and must not schedule into the past.
        """
        self._observers.append(observer)

    def step(self) -> Optional[Union[Event, EventBatch]]:
        """Process the next event (advancing the clock); ``None`` if empty.

        Returns the processed event.  For a batch row that no handler or
        observer needed as an :class:`Event`, it returns the batch.
        """
        if not self.queue:
            return None
        event = self.queue.pop()
        if type(event) is EventBatch:
            return self._fire_row(event)
        self.clock.advance_to(event.timestamp)
        if event.callback is not None:
            event.callback(event)
        for handler in self._handlers.get(event.kind, []):
            handler(event)
        for observer in self._observers:
            observer(event)
        self._processed += 1
        return event

    def _fire_row(self, batch: EventBatch) -> Union[Event, EventBatch]:
        """Process a popped batch's next row and queue the batch for the one after."""
        timestamp, row = self.queue.pop_row(batch)
        self.clock.advance_to(timestamp)
        batch.callback(timestamp, row)
        handlers = self._handlers.get(batch.kind)
        if handlers or self._observers:
            event = Event(timestamp, 0, batch.base + row, batch.kind, row)
            for handler in handlers or ():
                handler(event)
            for observer in self._observers:
                observer(event)
            self._processed += 1
            return event
        self._processed += 1
        return batch

    def run_until(self, timestamp: float) -> int:
        """Process all events with ``event.timestamp <= timestamp``.

        Returns the number of events processed.  The clock ends at
        ``timestamp`` even if the last event fired earlier.
        """
        count = 0
        while self.queue and self.queue.peek().timestamp <= timestamp:
            self.step()
            count += 1
        if timestamp > self.clock.now:
            self.clock.advance_to(timestamp)
        return count

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally bounded); returns events processed."""
        count = 0
        while self.queue:
            if max_events is not None and count >= max_events:
                break
            self.step()
            count += 1
        return count
