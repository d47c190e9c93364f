"""Sinks of the event trace.

A sink is where recorded trace events land: the in-memory store behind
:class:`~repro.runtime.trace.EventTrace`'s queries, an append-only sealed
JSONL file, or an arbitrary callback (the hook streaming consumers like
:class:`~repro.experiments.reporting.StreamingTraceSummary` plug into).
Every sink keeps its own explicit accounting — ``delivered`` events stored
and ``dropped`` events lost at the sink itself (capacity, write failure) —
so that ``emitted == delivered + dropped`` holds per sink at any point in
time.  The trace delivers every event to every sink synchronously.

The in-memory sink also takes a run of per-unit events — a round's unit
completions, an async round's completions and gossip aggregations
interleaved, a quorum's dropped stragglers — as one :class:`UnitBlock` of
columns with a kind code per row, and builds their events only when they
are read; every other sink sees those events one by one (see
:meth:`~repro.runtime.trace.EventTrace.record_block`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.runtime.audit import (
    ChainState,
    event_line,
    final_seal_line,
    segment_seal_line,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.trace import TraceEvent


def event_payload(event: "TraceEvent") -> dict[str, Any]:
    """Plain-dict (JSON-serialisable) form of one trace event."""
    return {
        "timestamp": event.timestamp,
        "round_index": event.round_index,
        "kind": event.kind,
        "agent_ids": list(event.agent_ids),
        "detail": event.detail,
    }


class TraceSink:
    """Destination for admitted trace events, with explicit accounting."""

    #: Sink name used in accounting tables.
    name = "sink"

    def __init__(self) -> None:
        #: Events this sink stored/forwarded successfully.
        self.delivered = 0
        #: Events lost at this sink itself (capacity, write failure).
        self.dropped = 0

    def emit(self, event: "TraceEvent") -> bool:
        """Store one event; returns ``True`` iff it was delivered.

        Implementations must update :attr:`delivered`/:attr:`dropped`
        themselves — an event that returns from ``emit`` is accounted,
        one way or the other.
        """
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered state to durable storage (no-op by default)."""

    def close(self) -> None:
        """Release resources and seal/commit durable state."""


@dataclass(frozen=True, eq=False)
class UnitBlock:
    """Events of one round, one per row, as columns.

    Row ``r`` is the event ``(timestamps[r], round_index, kinds[codes[r]],
    agents, {keys[codes[r]]: values[r]})`` whose agents are
    ``(slow_ids[r],)``, or ``(slow_ids[r], fast_ids[r])`` when
    ``fast_ids[r] >= 0`` — the id encoding of
    :class:`~repro.core.pairing.PairingPlan`.  A sync round's completions
    are the one-kind block ``("unit_complete",)`` / ``("duration",)``; an
    async round interleaves ``aggregation`` rows, keyed ``accuracy``.  Use
    :meth:`of` to build one: it copies the columns, so a later change to
    the caller's arrays cannot rewrite recorded history.
    """

    round_index: int
    kinds: tuple[str, ...]
    keys: tuple[str, ...]
    codes: np.ndarray
    timestamps: np.ndarray
    slow_ids: np.ndarray
    fast_ids: np.ndarray
    values: np.ndarray

    @classmethod
    def of(
        cls,
        round_index: int,
        kind: Union[str, Sequence[str]],
        timestamps,
        slow_ids,
        fast_ids,
        values,
        key: Union[str, Sequence[str]] = "duration",
        codes=None,
    ) -> "UnitBlock":
        """A block owning copies of its equal-length 1-D columns.

        ``kind`` and ``key`` are parallel tuples, or one string each for a
        one-kind block; ``codes`` gives each row's index into them (default:
        every row 0).
        """
        kinds = (kind,) if isinstance(kind, str) else tuple(kind)
        keys = (key,) if isinstance(key, str) else tuple(key)
        if not kinds or len(kinds) != len(keys):
            raise ValueError(
                f"a unit block needs one detail key per kind, got {kinds} / {keys}"
            )
        columns = (
            np.array(timestamps, dtype=np.float64),
            np.array(slow_ids, dtype=np.int64),
            np.array(fast_ids, dtype=np.int64),
            np.array(values, dtype=np.float64),
        )
        if codes is None:
            codes = np.zeros(len(columns[0]), dtype=np.uint8)
        else:
            codes = np.array(codes, dtype=np.uint8)
        columns = (codes, *columns)
        if any(column.ndim != 1 for column in columns) or len(
            {len(column) for column in columns}
        ) > 1:
            raise ValueError(
                "a unit block needs 1-D codes and columns of equal length, got "
                f"shapes {[column.shape for column in columns]}"
            )
        if len(codes) and codes.max() >= len(kinds):
            raise ValueError(f"a code is out of range for the {len(kinds)} kinds")
        return cls(round_index, kinds, keys, *columns)

    def __len__(self) -> int:
        return len(self.timestamps)

    def prefix(self, count: int) -> "UnitBlock":
        """The block of the first ``count`` rows."""
        return UnitBlock(
            self.round_index,
            self.kinds,
            self.keys,
            self.codes[:count],
            self.timestamps[:count],
            self.slow_ids[:count],
            self.fast_ids[:count],
            self.values[:count],
        )

    def rows(self) -> Iterator[tuple[float, str, tuple[int, ...], str, float]]:
        """Each row's ``(timestamp, kind, agent_ids, key, value)`` as builtins."""
        agents = [
            (slow,) if fast < 0 else (slow, fast)
            for slow, fast in zip(self.slow_ids.tolist(), self.fast_ids.tolist())
        ]
        codes = self.codes.tolist()
        kinds = [self.kinds[code] for code in codes]
        keys = [self.keys[code] for code in codes]
        return zip(
            self.timestamps.tolist(), kinds, agents, keys, self.values.tolist()
        )

    def kind_counts(self) -> dict[str, int]:
        """Rows per kind, in order of each kind's first row."""
        sizes = np.bincount(self.codes, minlength=len(self.kinds))
        present = np.flatnonzero(sizes).tolist()
        present.sort(key=lambda code: int(np.argmax(self.codes == code)))
        counts: dict[str, int] = {}
        for code in present:
            kind = self.kinds[code]
            counts[kind] = counts.get(kind, 0) + int(sizes[code])
        return counts

    def events(self) -> list["TraceEvent"]:
        """Every row as a :class:`~repro.runtime.trace.TraceEvent`.

        Each equals the event ``EventTrace.record`` builds from the same
        row, with a fresh ``detail`` dict.  The instance ``__dict__`` is
        filled directly instead of calling the frozen dataclass
        ``__init__``, which routes every field through
        ``object.__setattr__``; the events are equal either way.
        """
        from repro.runtime.trace import TraceEvent

        new = object.__new__
        round_index = self.round_index
        events = []
        for timestamp, kind, agent_ids, key, value in self.rows():
            event = new(TraceEvent)
            event.__dict__.update(
                timestamp=timestamp,
                round_index=round_index,
                kind=kind,
                agent_ids=agent_ids,
                detail={key: value},
            )
            events.append(event)
        return events


class MemorySink(TraceSink):
    """Bounded in-memory event store — the legacy ``EventTrace`` backing.

    Mirrors the original semantics exactly: at capacity, *new* events are
    dropped (and counted), never old ones evicted, so the stored prefix of
    a capped trace is identical to the uncapped trace's prefix.

    Unit blocks (:meth:`emit_block`) are stored as columns.  Their events
    are built, in recorded order, the first time :attr:`events` is read
    after them; :attr:`events` is always the same list, extended in place.
    :attr:`delivered` (the retained count) and :meth:`kind_counts` build
    no event.
    """

    name = "memory"

    def __init__(self, max_events: Optional[int] = None) -> None:
        super().__init__()
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self._events: list["TraceEvent"] = []
        #: Events and blocks retained after ``_events``, in order, not yet built.
        self._pending: list[Union["TraceEvent", UnitBlock]] = []

    @property
    def events(self) -> list["TraceEvent"]:
        """Every retained event, in order (builds pending blocks' events)."""
        if self._pending:
            pending, self._pending = self._pending, []
            for item in pending:
                if isinstance(item, UnitBlock):
                    self._events.extend(item.events())
                else:
                    self._events.append(item)
        return self._events

    def kind_counts(self) -> dict[str, int]:
        """Retained events per kind, in order of each kind's first event.

        A pending block counts by its length, so counting builds no event.
        Counted here rather than in :meth:`emit`, which stays as cheap as
        the plain list append it always was.
        """
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        for item in self._pending:
            if isinstance(item, UnitBlock):
                for kind, size in item.kind_counts().items():
                    counts[kind] = counts.get(kind, 0) + size
            else:
                counts[item.kind] = counts.get(item.kind, 0) + 1
        return counts

    def emit(self, event: "TraceEvent") -> bool:
        if self.max_events is not None and self.delivered >= self.max_events:
            self.dropped += 1
            return False
        if self._pending:
            self._pending.append(event)
        else:
            self._events.append(event)
        self.delivered += 1
        return True

    def emit_block(self, block: UnitBlock) -> None:
        """Store a block's rows up to the cap, unbuilt.

        Keeps exactly the prefix that emitting the rows one by one keeps,
        and counts the rest as dropped.
        """
        count = len(block)
        room = count
        if self.max_events is not None:
            room = max(0, min(count, self.max_events - self.delivered))
        if room:
            self._pending.append(block if room == count else block.prefix(room))
            self.delivered += room
        self.dropped += count - room


class CallbackSink(TraceSink):
    """Forward each event to a callable (streaming consumers, tests)."""

    def __init__(
        self, callback: Callable[["TraceEvent"], Any], name: str = "callback"
    ) -> None:
        super().__init__()
        self.callback = callback
        self.name = name

    def emit(self, event: "TraceEvent") -> bool:
        self.callback(event)
        self.delivered += 1
        return True


class JSONLSink(TraceSink):
    """Append-only sealed JSONL file: one chained event per line.

    Each line carries the event's index, canonical body, and the audit
    chain head after folding it in (see :mod:`repro.runtime.audit`).
    Every ``segment_events`` events a segment seal records the chain state,
    and :meth:`close` writes the final seal — ``comdml trace verify``
    re-derives the whole chain and reports the exact first divergent event
    on any tampering.
    """

    name = "jsonl"

    def __init__(
        self,
        path: str | Path,
        segment_events: Optional[int] = 4096,
    ) -> None:
        super().__init__()
        if segment_events is not None and segment_events <= 0:
            raise ValueError(
                f"segment_events must be positive, got {segment_events}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.segment_events = segment_events
        self.chain = ChainState()
        self._segment = 0
        self._segment_start = 0
        self._handle = open(self.path, "w", encoding="utf-8")
        self._closed = False

    def emit(self, event: "TraceEvent") -> bool:
        if self._closed:
            self.dropped += 1
            return False
        # Fold into a copy: an event whose line was never written must not
        # advance the chain, or every later line fails verification.
        advanced = ChainState(self.chain.index, self.chain.head)
        payload = event_payload(event)
        try:
            head = advanced.update(payload)
            self._handle.write(event_line(self.chain.index, payload, head) + "\n")
        except (OSError, ValueError):
            self.dropped += 1
            return False
        self.chain = advanced
        self.delivered += 1
        if (
            self.segment_events is not None
            and self.chain.index - self._segment_start >= self.segment_events
        ):
            self._write_segment_seal()
        return True

    def _write_segment_seal(self) -> None:
        self._handle.write(
            segment_seal_line(
                self._segment,
                self._segment_start,
                self.chain.index - self._segment_start,
                self.chain.head,
            )
            + "\n"
        )
        self._segment += 1
        self._segment_start = self.chain.index

    def flush(self) -> None:
        if not self._closed:
            self._handle.flush()

    def close(self) -> None:
        """Write the final seal and close the file (idempotent)."""
        if self._closed:
            return
        if self.chain.index > self._segment_start:
            self._write_segment_seal()
        self._handle.write(final_seal_line(self.chain.index, self.chain.head) + "\n")
        self._handle.close()
        self._closed = True
