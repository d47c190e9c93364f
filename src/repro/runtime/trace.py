"""Streaming per-agent event traces emitted by the training runtime.

Every runtime execution — regardless of mode — records a chronological
stream of :class:`TraceEvent` entries: round boundaries, resource churn,
per-unit (pair or solo agent) completions, quorum closures, dropped
stragglers, aggregations, and — under a
:class:`~repro.runtime.dynamics.DynamicsSchedule` — agent arrivals,
departures, in-flight re-costs, and abandoned units.

Since the streaming refactor, :class:`EventTrace` is no longer a bounded
list but the front end of a **trace pipeline**: each recorded event passes
through composable filter stages (:mod:`repro.runtime.filters`: level,
token-bucket rate limit, adaptive sampling that tightens under sustained
load) and is delivered to pluggable sinks (:mod:`repro.runtime.sinks`:
the in-memory store behind the legacy query API, sealed JSONL, SQLite,
callbacks) — file sinks optionally behind a non-blocking bounded buffer.
Nothing is ever lost silently: every stage and every sink keeps explicit
drop counters, and :meth:`EventTrace.accounting` exposes the conservation
invariant ``emitted == delivered + dropped`` per sink.

The default configuration — no filters, no extra sinks, no buffer —
reduces *exactly* to the pre-pipeline behaviour (golden regressions assert
byte-identity), so existing callers and experiments are unaffected until
they opt in via the ``trace_*`` fields of
:class:`~repro.core.config.ComDMLConfig` (see :func:`build_event_trace`).

A sync round records its unit completions with one
:meth:`EventTrace.record_block` call; a flight-table round records them
as a few blocks, split at every other record.  An async round's blocks
interleave its completions with its gossip aggregations, one kind code per
row, and a semi-sync quorum records its dropped stragglers as one block.
Under the default configuration the in-memory sink keeps a block as
columns and builds its events only when the trace is read; any other
pipeline receives the block's events one by one through
:meth:`EventTrace.record`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union

from numpy.typing import ArrayLike

from repro.runtime.filters import (
    AdaptiveSamplingFilter,
    LevelFilter,
    TokenBucketFilter,
    TraceFilter,
)
from repro.runtime.sinks import (
    JSONLSink,
    MemorySink,
    SQLiteSink,
    TraceSink,
    UnitBlock,
    event_payload,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.config import ComDMLConfig

#: Buffer overflow policies: ``"flush"`` drains the buffer in place (the
#: pipeline never loses data, at the cost of a synchronous batch write);
#: ``"drop"`` rejects the incoming event for the deferred sinks and counts
#: it (strictly non-blocking).
OVERFLOW_POLICIES = ("flush", "drop")


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
        ``"unit_repriced"`` and ``"unit_abandoned"`` (plus the opt-in
        ``"engine_event"`` debug kind).
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
    """Explicit per-stage accounting of one trace pipeline.

    ``emitted`` counts every event offered to :meth:`EventTrace.record`;
    ``filtered`` attributes rejections to the stage that made them;
    ``buffer_dropped`` counts events the bounded buffer rejected for the
    deferred sinks under the ``"drop"`` overflow policy; ``sink_errors``
    counts events lost to a sink raising mid-emit.  Together with each
    sink's own ``delivered``/``dropped`` counters these close the
    conservation equation checked by :meth:`EventTrace.accounting`.
    """

    emitted: int = 0
    filtered: dict[str, int] = field(default_factory=dict)
    buffer_dropped: int = 0
    sink_errors: dict[str, int] = field(default_factory=dict)

    @property
    def filtered_total(self) -> int:
        """Events rejected by any filter stage."""
        return sum(self.filtered.values())

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot."""
        return {
            "emitted": self.emitted,
            "filtered": dict(self.filtered),
            "buffer_dropped": self.buffer_dropped,
            "sink_errors": dict(self.sink_errors),
        }


class EventTrace:
    """Streaming trace pipeline behind the legacy bounded-trace API.

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
        events are counted in :attr:`dropped_events` but not stored —
        exactly the pre-pipeline semantics — while still flowing to any
        extra sinks (a sealed JSONL file keeps every event even when the
        in-memory view is capped).
    filters:
        Ordered filter stages applied before any sink (see
        :mod:`repro.runtime.filters`).  A stage rejection counts as a drop
        for every sink.
    sinks:
        Extra sinks beyond the built-in in-memory store (see
        :mod:`repro.runtime.sinks`).
    buffer_capacity:
        When set, events bound for *deferred* (file-backed) sinks are
        staged in a bounded buffer of this size instead of being written
        one by one; the in-memory store and callback sinks always deliver
        synchronously.
    overflow:
        What a full buffer does with the next event: ``"flush"`` (default,
        drain in place) or ``"drop"`` (reject for the deferred sinks, with
        accounting).
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        filters: Sequence[TraceFilter] = (),
        sinks: Sequence[TraceSink] = (),
        buffer_capacity: Optional[int] = None,
        overflow: str = "flush",
    ) -> None:
        if buffer_capacity is not None and buffer_capacity <= 0:
            raise ValueError(
                f"buffer_capacity must be positive, got {buffer_capacity}"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}"
            )
        self.max_events = max_events
        self.filters: tuple[TraceFilter, ...] = tuple(filters)
        self._memory = MemorySink(max_events)
        self.sinks: tuple[TraceSink, ...] = (self._memory, *sinks)
        seen: set[str] = set()
        for sink in self.sinks:
            if sink.name in seen:
                raise ValueError(f"duplicate sink name {sink.name!r}")
            seen.add(sink.name)
        self._deferred = tuple(sink for sink in self.sinks if sink.deferred)
        self._synchronous = tuple(
            sink for sink in self.sinks if not sink.deferred
        )
        self.buffer_capacity = buffer_capacity
        self.overflow = overflow
        self._buffer: list[TraceEvent] = []
        self.stats = PipelineStats()
        self._closed = False

    # ------------------------------------------------------------------
    # Legacy surface
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
        """Events emitted but absent from the in-memory view.

        Counts capacity drops (the legacy meaning) plus any filter-stage
        rejections — truncation is never silent.
        """
        return self.stats.filtered_total + self._memory.dropped

    def __len__(self) -> int:
        return self._memory.delivered

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def record(
        self,
        timestamp: float,
        round_index: int,
        kind: str,
        agent_ids: tuple[int, ...] = (),
        detail: Optional[dict[str, Any]] = None,
    ) -> Optional[TraceEvent]:
        """Offer one event to the pipeline.

        Returns the event when the in-memory sink retained it, ``None``
        when a filter rejected it or the memory cap dropped it (matching
        the pre-pipeline contract); extra sinks may still have received it.
        """
        event = TraceEvent(
            timestamp=timestamp,
            round_index=round_index,
            kind=kind,
            agent_ids=tuple(agent_ids),
            detail=detail,
        )
        self.stats.emitted += 1
        for stage in self.filters:
            if not stage.admit(event):
                self.stats.filtered[stage.name] = (
                    self.stats.filtered.get(stage.name, 0) + 1
                )
                return None
        in_memory = False
        for sink in self._synchronous:
            delivered = self._emit(sink, event)
            if sink is self._memory:
                in_memory = delivered
        if self._deferred:
            if self.buffer_capacity is None:
                for sink in self._deferred:
                    self._emit(sink, event)
            elif (
                len(self._buffer) >= self.buffer_capacity
                and self.overflow == "drop"
            ):
                self.stats.buffer_dropped += 1
                for sink in self._deferred:
                    sink.dropped += 1
            else:
                self._buffer.append(event)
                if (
                    len(self._buffer) >= self.buffer_capacity
                    and self.overflow == "flush"
                ):
                    self._drain_buffer()
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
        """Offer one event per row of equal-length columns, in row order.

        ``kind`` and ``key`` are parallel tuples of event kinds and detail
        keys, or one string each; ``codes`` gives each row's index into
        them (default: every row 0).  Row ``r`` is the event
        ``record(timestamps[r], round_index, kind[codes[r]], agents,
        {key[codes[r]]: values[r]})``, where ``agents`` is ``(slow_ids[r],)``
        or, when ``fast_ids[r] >= 0``, ``(slow_ids[r], fast_ids[r])``.  With
        no filters and no sink but the in-memory one, the sink stores the
        rows as columns (see :class:`~repro.runtime.sinks.UnitBlock`) and
        builds the events when they are read.  Any other pipeline replays
        the rows through :meth:`record`, so filters and sinks see exactly
        the per-event stream.
        """
        block = UnitBlock.of(
            round_index, kind, timestamps, slow_ids, fast_ids, values, key, codes
        )
        if self.filters or len(self.sinks) > 1:
            for timestamp, row_kind, agent_ids, row_key, value in block.rows():
                self.record(
                    timestamp, round_index, row_kind, agent_ids, {row_key: value}
                )
            return
        self.stats.emitted += len(block)
        self._memory.emit_block(block)

    def _emit(self, sink: TraceSink, event: TraceEvent) -> bool:
        """Guarded delivery: a failing sink drops (and counts) the event."""
        try:
            return bool(sink.emit(event))
        except Exception:  # noqa: BLE001 - sink isolation is the contract
            sink.dropped += 1
            self.stats.sink_errors[sink.name] = (
                self.stats.sink_errors.get(sink.name, 0) + 1
            )
            return False

    def _drain_buffer(self) -> None:
        buffered, self._buffer = self._buffer, []
        for event in buffered:
            for sink in self._deferred:
                self._emit(sink, event)

    def flush(self) -> None:
        """Drain the buffer and flush every sink to durable storage."""
        self._drain_buffer()
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush, then close/seal every sink (idempotent)."""
        if self._closed:
            return
        self._drain_buffer()
        for sink in self.sinks:
            sink.flush()
            sink.close()
        self._closed = True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting(self) -> dict[str, dict[str, int]]:
        """Per-sink conservation table built from the explicit counters.

        For every sink: ``emitted == delivered + dropped + buffered``,
        where ``dropped`` sums upstream filter rejections with the sink's
        own losses (capacity, buffer overflow, emit failure) and
        ``buffered`` counts events still staged for deferred sinks (always
        0 after :meth:`flush`).  The figures come from independent
        counters — the equation is an invariant the test suite enforces,
        not an identity by construction.
        """
        buffered = len(self._buffer)
        table: dict[str, dict[str, int]] = {}
        for sink in self.sinks:
            table[sink.name] = {
                "emitted": self.stats.emitted,
                "delivered": sink.delivered,
                "dropped": self.stats.filtered_total + sink.dropped,
                "buffered": buffered if sink.deferred else 0,
            }
        return table

    def check_conservation(self) -> None:
        """Raise ``AssertionError`` if any sink's accounting doesn't close."""
        for name, row in self.accounting().items():
            total = row["delivered"] + row["dropped"] + row["buffered"]
            if row["emitted"] != total:
                raise AssertionError(
                    f"sink {name!r} lost events silently: emitted "
                    f"{row['emitted']} != delivered {row['delivered']} + "
                    f"dropped {row['dropped']} + buffered {row['buffered']}"
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


def build_event_trace(config: "ComDMLConfig") -> EventTrace:
    """Construct the runtime's trace pipeline from its configuration.

    With the default configuration this returns a bare
    ``EventTrace(config.trace_max_events)`` — no filters, no extra sinks,
    no buffer — which is byte-identical to the pre-pipeline behaviour.
    Each ``trace_*`` field independently adds one stage or sink:
    ``trace_min_level`` a :class:`~repro.runtime.filters.LevelFilter`,
    ``trace_rate_limit`` a token bucket, ``trace_adaptive_target`` the
    adaptive sampler, ``trace_jsonl_path``/``trace_sqlite_path`` the
    sealed-file sinks (optionally buffered via ``trace_buffer_capacity``
    and ``trace_overflow``).
    """
    filters: list[TraceFilter] = []
    if config.trace_min_level > 0:
        filters.append(LevelFilter(config.trace_min_level))
    if config.trace_rate_limit is not None:
        filters.append(
            TokenBucketFilter(config.trace_rate_limit, config.trace_rate_burst)
        )
    if config.trace_adaptive_target is not None:
        filters.append(AdaptiveSamplingFilter(config.trace_adaptive_target))
    sinks: list[TraceSink] = []
    if config.trace_jsonl_path is not None:
        sinks.append(
            JSONLSink(
                config.trace_jsonl_path,
                segment_events=config.trace_segment_events,
            )
        )
    if config.trace_sqlite_path is not None:
        sinks.append(SQLiteSink(config.trace_sqlite_path))
    return EventTrace(
        max_events=config.trace_max_events,
        filters=filters,
        sinks=sinks,
        buffer_capacity=config.trace_buffer_capacity,
        overflow=config.trace_overflow,
    )
