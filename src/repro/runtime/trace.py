"""Per-agent event traces emitted by the training runtime.

Every runtime execution — regardless of mode — records a chronological
stream of :class:`TraceEvent` entries: round boundaries, resource churn,
per-unit (pair or solo agent) completions, quorum closures, dropped
stragglers, aggregations, and — under a
:class:`~repro.runtime.dynamics.DynamicsSchedule` — agent arrivals,
departures, in-flight re-costs, and abandoned units.

:class:`EventTrace` keeps the events in memory, up to an optional
``max_events`` cap (``ComDMLConfig.trace_max_events``), and delivers each
one synchronously to any extra sinks (:mod:`repro.runtime.sinks`): the
sealed, hash-chained JSONL file that ``comdml trace record`` writes, and
the callback behind
:class:`~repro.experiments.reporting.StreamingTraceSummary`.  Nothing is
lost silently: every sink keeps explicit ``delivered``/``dropped``
counters, a sink that raises loses only that event (counted), and
:meth:`EventTrace.accounting` exposes the conservation invariant
``emitted == delivered + dropped`` per sink.

A sync round records its unit completions with one
:meth:`EventTrace.record_block` call; a flight-table round records them
as a few blocks, split at every other record.  An async round's blocks
interleave its completions with its gossip aggregations, one kind code per
row, and a semi-sync quorum records its dropped stragglers as one block.
With no extra sink the in-memory sink keeps a block as columns and builds
its events only when the trace is read; with any extra sink the block's
events go one by one through :meth:`EventTrace.record`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence, Union

from numpy.typing import ArrayLike

from repro.runtime.sinks import MemorySink, TraceSink, UnitBlock, event_payload


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence in a training run.

    Attributes
    ----------
    timestamp:
        Simulated time (seconds) at which the event occurred.
    round_index:
        Zero-based round the event belongs to.
    kind:
        Event type: ``"round_start"``, ``"churn"``, ``"unit_complete"``,
        ``"quorum_reached"``, ``"quorum_deadline"``,
        ``"straggler_dropped"``, ``"aggregation"``, ``"round_end"``, or —
        from a dynamics schedule — ``"arrival"``, ``"departure"``,
        ``"unit_repriced"`` and ``"unit_abandoned"``.
    agent_ids:
        Agents involved in the event (empty for round-level events).
    detail:
        Optional free-form payload (e.g. the unit duration or accuracy).
    """

    timestamp: float
    round_index: int
    kind: str
    agent_ids: tuple[int, ...] = ()
    detail: Optional[dict[str, Any]] = None


@dataclass
class PipelineStats:
    """Pipeline-level counters of one trace.

    ``emitted`` counts every event offered to :meth:`EventTrace.record` or
    :meth:`EventTrace.record_block`; ``sink_errors`` counts, per sink name,
    events lost to that sink raising mid-emit.  Together with each sink's
    own ``delivered``/``dropped`` counters these close the conservation
    equation checked by :meth:`EventTrace.accounting`.
    """

    emitted: int = 0
    sink_errors: dict[str, int] = field(default_factory=dict)


class EventTrace:
    """A run's events in memory, plus any extra sinks.

    Events enter one at a time through :meth:`record`, or a run of per-unit
    events at once through :meth:`record_block`.  The queries read
    the in-memory sink: :attr:`events`, iteration, :meth:`of_kind`,
    :meth:`for_agent`, :meth:`for_round`, :meth:`agent_ids` and
    :meth:`to_dicts` build any events still held as columns, while
    ``len()`` and :meth:`kind_counts` build none.

    Parameters
    ----------
    max_events:
        Optional cap on events retained *in memory*.  At capacity further
        events are counted in :attr:`dropped_events` but not stored, while
        still flowing to any extra sinks (a sealed JSONL file keeps every
        event even when the in-memory view is capped).
    sinks:
        Extra sinks beyond the built-in in-memory store (see
        :mod:`repro.runtime.sinks`), each delivered every event in order.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        sinks: Sequence[TraceSink] = (),
    ) -> None:
        self.max_events = max_events
        self._memory = MemorySink(max_events)
        self._extra: tuple[TraceSink, ...] = tuple(sinks)
        self.sinks: tuple[TraceSink, ...] = (self._memory, *self._extra)
        seen: set[str] = set()
        for sink in self.sinks:
            if sink.name in seen:
                raise ValueError(f"duplicate sink name {sink.name!r}")
            seen.add(sink.name)
        self.stats = PipelineStats()
        self._closed = False

    # ------------------------------------------------------------------
    # In-memory view
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """Events retained by the in-memory sink, in order.

        Always the same list, extended in place as events are recorded and
        read.
        """
        return self._memory.events

    @property
    def dropped_events(self) -> int:
        """Events emitted but absent from the in-memory view (the cap's drops)."""
        return self._memory.dropped

    def __len__(self) -> int:
        return self._memory.delivered

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        timestamp: float,
        round_index: int,
        kind: str,
        agent_ids: tuple[int, ...] = (),
        detail: Optional[dict[str, Any]] = None,
    ) -> Optional[TraceEvent]:
        """Record one event.

        Returns the event when the in-memory sink retained it, ``None``
        when the memory cap dropped it; the extra sinks receive it either
        way.
        """
        event = TraceEvent(
            timestamp=timestamp,
            round_index=round_index,
            kind=kind,
            agent_ids=tuple(agent_ids),
            detail=detail,
        )
        self.stats.emitted += 1
        in_memory = self._memory.emit(event)
        for sink in self._extra:
            self._emit(sink, event)
        return event if in_memory else None

    def record_block(
        self,
        round_index: int,
        kind: Union[str, Sequence[str]],
        timestamps: ArrayLike,
        slow_ids: ArrayLike,
        fast_ids: ArrayLike,
        values: ArrayLike,
        key: Union[str, Sequence[str]] = "duration",
        codes: Optional[ArrayLike] = None,
    ) -> None:
        """Record one event per row of equal-length columns, in row order.

        ``kind`` and ``key`` are parallel tuples of event kinds and detail
        keys, or one string each; ``codes`` gives each row's index into
        them (default: every row 0).  Row ``r`` is the event
        ``record(timestamps[r], round_index, kind[codes[r]], agents,
        {key[codes[r]]: values[r]})``, where ``agents`` is ``(slow_ids[r],)``
        or, when ``fast_ids[r] >= 0``, ``(slow_ids[r], fast_ids[r])``.  With
        no extra sink, the in-memory sink stores the rows as columns (see
        :class:`~repro.runtime.sinks.UnitBlock`) and builds the events when
        they are read.  With any extra sink the rows go through
        :meth:`record`, so every sink sees exactly the per-event stream.
        """
        block = UnitBlock.of(
            round_index, kind, timestamps, slow_ids, fast_ids, values, key, codes
        )
        if self._extra:
            for timestamp, row_kind, agent_ids, row_key, value in block.rows():
                self.record(
                    timestamp, round_index, row_kind, agent_ids, {row_key: value}
                )
            return
        self.stats.emitted += len(block)
        self._memory.emit_block(block)

    def _emit(self, sink: TraceSink, event: TraceEvent) -> None:
        """Guarded delivery: a failing sink drops (and counts) the event."""
        try:
            sink.emit(event)
        except Exception:  # noqa: BLE001 - sink isolation is the contract
            sink.dropped += 1
            self.stats.sink_errors[sink.name] = (
                self.stats.sink_errors.get(sink.name, 0) + 1
            )

    def flush(self) -> None:
        """Flush every sink to durable storage."""
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush, then close/seal every sink (idempotent)."""
        if self._closed:
            return
        for sink in self.sinks:
            sink.flush()
            sink.close()
        self._closed = True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting(self) -> dict[str, dict[str, int]]:
        """Per-sink conservation table built from the explicit counters.

        For every sink: ``emitted == delivered + dropped``, where
        ``dropped`` counts the sink's own losses (capacity, write failure,
        emit failure).  The figures come from independent counters — the
        equation is an invariant the test suite enforces, not an identity
        by construction.
        """
        return {
            sink.name: {
                "emitted": self.stats.emitted,
                "delivered": sink.delivered,
                "dropped": sink.dropped,
            }
            for sink in self.sinks
        }

    def check_conservation(self) -> None:
        """Raise ``AssertionError`` if any sink's accounting doesn't close."""
        for name, row in self.accounting().items():
            if row["emitted"] != row["delivered"] + row["dropped"]:
                raise AssertionError(
                    f"sink {name!r} lost events silently: emitted "
                    f"{row['emitted']} != delivered {row['delivered']} + "
                    f"dropped {row['dropped']}"
                )

    # ------------------------------------------------------------------
    # Queries over the in-memory view
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All retained events of the given kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def for_agent(self, agent_id: int) -> list[TraceEvent]:
        """All retained events that involve the given agent, in order."""
        return [event for event in self.events if agent_id in event.agent_ids]

    def for_round(self, round_index: int) -> list[TraceEvent]:
        """All retained events belonging to the given round, in order."""
        return [event for event in self.events if event.round_index == round_index]

    def agent_ids(self) -> list[int]:
        """Sorted union of every agent id the retained events mention."""
        ids: set[int] = set()
        for event in self.events:
            ids.update(event.agent_ids)
        return sorted(ids)

    def kind_counts(self) -> dict[str, int]:
        """Histogram of retained event kinds (useful in assertions/reports).

        Keys follow the order of each kind's first retained event.
        """
        return self._memory.kind_counts()

    def to_dicts(self) -> list[dict[str, Any]]:
        """Plain-dict form of the retained events (JSON-serialisable)."""
        return [event_payload(event) for event in self.events]
