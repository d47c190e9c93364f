"""Property, golden, and fault tests for the event trace and its sinks.

Covers the conservation invariant (``emitted == delivered + dropped`` per
sink, from independent counters) under Hypothesis-generated bursts,
capacities and sink sets; JSONL round-trip equality with the in-memory
view; fault injection on a failing sink; and the legacy / golden
guarantees — the default trace reduces byte-identically to the
pre-pipeline bounded list.  ``record_block`` must equal the loop of
``record`` it replaces under every cap and sink set.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

#: tmp_path is function-scoped but the sinks under test recreate their
#: files per example, so sharing the directory across examples is safe.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]

from repro.core.config import ComDMLConfig
from repro.experiments.reporting import (
    StreamingTraceSummary,
    dynamics_annotation,
    format_dynamics_summary,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.audit import ChainState, read_sealed_events, verify_sealed_jsonl
from repro.runtime.sinks import (
    CallbackSink,
    JSONLSink,
    MemorySink,
    TraceSink,
    event_payload,
)
from repro.runtime.trace import EventTrace
from strategies import STANDARD_SETTINGS

GOLDEN_PATH = Path(__file__).parent / "data" / "runtime_sync_golden.json"
TRACE_GOLDEN_PATH = Path(__file__).parent / "data" / "trace_sync_golden.json"

#: Round-level, per-unit and dynamics event kinds.
ALL_KINDS = (
    "round_start",
    "round_end",
    "aggregation",
    "churn",
    "unit_complete",
    "straggler_dropped",
    "unit_repriced",
)


class FlakySink(TraceSink):
    """A sink that raises on every event at an even whole-second timestamp."""

    name = "flaky"

    def emit(self, event):
        if int(event.timestamp) % 2 == 0:
            raise RuntimeError("injected fault")
        self.delivered += 1
        return True


def record_burst(trace: EventTrace, events) -> None:
    """Replay a list of ``(timestamp, round_index, kind)`` tuples."""
    for timestamp, round_index, kind in events:
        trace.record(timestamp, round_index, kind, detail={"t": timestamp})


@st.composite
def bursts(draw, max_events: int = 120):
    """Chronological synthetic event bursts with mixed kinds and gaps."""
    count = draw(st.integers(min_value=0, max_value=max_events))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    kinds = draw(
        st.lists(st.sampled_from(ALL_KINDS), min_size=count, max_size=count)
    )
    events, now = [], 0.0
    for gap, kind in zip(gaps, kinds):
        now += gap
        events.append((now, int(now // 10), kind))
    return events


# ----------------------------------------------------------------------
# Legacy surface (pre-pipeline semantics must survive unchanged)
# ----------------------------------------------------------------------

class TestLegacyParity:
    def test_capacity_drops_new_events_and_counts(self):
        trace = EventTrace(max_events=3)
        kept = [trace.record(float(i), 0, "unit_complete") for i in range(10)]
        assert len(trace.events) == 3
        assert trace.dropped_events == 7
        assert all(event is not None for event in kept[:3])
        assert all(event is None for event in kept[3:])

    def test_record_returns_event_and_queries_work(self):
        trace = EventTrace()
        trace.record(0.0, 0, "round_start")
        trace.record(1.0, 0, "unit_complete", (1, 2))
        trace.record(2.0, 1, "unit_complete", (2,))
        assert len(trace) == 3
        assert [e.kind for e in trace.of_kind("unit_complete")] == [
            "unit_complete",
            "unit_complete",
        ]
        assert len(trace.for_agent(2)) == 2
        assert len(trace.for_round(1)) == 1
        assert trace.agent_ids() == [1, 2]
        assert trace.kind_counts()["unit_complete"] == 2

    def test_default_config_builds_pure_legacy_trace(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        runner = ExperimentRunner(ScenarioConfig(**golden["scenario"]))
        trace = runner.build_method("ComDML").runtime.trace
        assert len(trace.sinks) == 1
        assert isinstance(trace.sinks[0], MemorySink)
        assert trace.max_events == ComDMLConfig().trace_max_events


class TestGoldenByteIdentity:
    """The sync golden event stream with the default pipeline config."""

    def test_default_pipeline_matches_committed_golden_chain(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        expected = json.loads(TRACE_GOLDEN_PATH.read_text())
        runner = ExperimentRunner(ScenarioConfig(**golden["scenario"]))
        _, trace = runner.run_method_with_trace(expected["method"])
        chain = ChainState()
        for payload in trace.to_dicts():
            chain.update(payload)
        assert len(trace.events) == expected["events"]
        assert trace.dropped_events == expected["dropped_events"]
        assert trace.kind_counts() == expected["kind_counts"]
        assert chain.head == expected["chain_head"]

    def test_empty_pipeline_config_is_byte_identical_to_legacy(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        runner = ExperimentRunner(ScenarioConfig(**golden["scenario"]))
        _, default_trace = runner.run_method_with_trace("ComDML")
        legacy = EventTrace(max_events=ComDMLConfig().trace_max_events)
        runner2 = ExperimentRunner(ScenarioConfig(**golden["scenario"]))
        _, explicit_trace = runner2.run_method_with_trace("ComDML", trace=legacy)
        assert explicit_trace is legacy
        assert json.dumps(default_trace.to_dicts()) == json.dumps(
            explicit_trace.to_dicts()
        )
        assert default_trace.dropped_events == explicit_trace.dropped_events


# ----------------------------------------------------------------------
# Conservation: emitted == delivered + dropped, per sink, always
# ----------------------------------------------------------------------

class TestConservationProperty:
    @seed(20261018)
    @given(events=bursts(), capacity=st.one_of(st.none(), st.integers(1, 40)))
    @STANDARD_SETTINGS
    def test_memory_sink_conservation(self, events, capacity):
        trace = EventTrace(max_events=capacity)
        record_burst(trace, events)
        row = trace.accounting()["memory"]
        assert row["emitted"] == len(events)
        assert row["emitted"] == row["delivered"] + row["dropped"]
        assert row["delivered"] == len(trace.events)
        trace.check_conservation()

    @seed(20261019)
    @given(events=bursts(), capacity=st.one_of(st.none(), st.integers(1, 40)))
    @settings(STANDARD_SETTINGS, suppress_health_check=FIXTURE_OK)
    def test_multi_sink_conservation(self, events, capacity, tmp_path):
        received = []
        path = tmp_path / "t.jsonl"
        trace = EventTrace(
            max_events=capacity,
            sinks=(
                CallbackSink(received.append),
                JSONLSink(path, segment_events=10),
                FlakySink(),
            ),
        )
        record_burst(trace, events)
        trace.flush()
        accounting = trace.accounting()
        for name, row in accounting.items():
            assert row["emitted"] == len(events), name
            assert row["emitted"] == row["delivered"] + row["dropped"], name
        # the cap drops from the in-memory view only; the flaky sink's
        # losses are its own
        assert accounting["memory"]["delivered"] == len(trace.events)
        assert accounting["callback"]["dropped"] == 0
        assert len(received) == len(events)
        assert accounting["jsonl"]["delivered"] == len(events)
        assert accounting["flaky"]["dropped"] == trace.stats.sink_errors.get(
            "flaky", 0
        )
        trace.close()
        result = verify_sealed_jsonl(path)
        assert result.ok and result.events == len(events)

    def test_failing_sink_counts_drops_not_crashes(self):
        trace = EventTrace(sinks=(FlakySink(),))
        for i in range(10):
            assert trace.record(float(i), 0, "unit_complete") is not None
        row = trace.accounting()["flaky"]
        assert row["delivered"] == 5
        assert row["dropped"] == 5
        assert trace.stats.sink_errors["flaky"] == 5
        # the memory sink is unaffected by the flaky sibling
        assert len(trace.events) == 10
        trace.check_conservation()


# ----------------------------------------------------------------------
# Unit blocks: record_block is the record loop, whatever the pipeline
# ----------------------------------------------------------------------

@st.composite
def block_streams(draw):
    """Interleaved single events, unit blocks and trace reads, in time order.

    A block has one kind or two, each with its own detail key, and a kind
    code per row.  Returns ``(ops, cap)``.  The cap is ``None``, reached
    before a block (possibly exactly at its first row), inside a block, or
    beyond every event — positions counted in the event stream.
    """
    ops, spans, position, now = [], [], 0, 0.0
    gaps = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
    ids = st.integers(min_value=0, max_value=40)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        op = draw(st.sampled_from(("event", "block", "read")))
        if op == "event":
            now += draw(gaps)
            agents = tuple(draw(st.lists(ids, max_size=2)))
            kind = draw(st.sampled_from(ALL_KINDS))
            ops.append(("event", now, int(now // 10), kind, agents))
            position += 1
        elif op == "block":
            count = draw(st.integers(min_value=0, max_value=8))
            start = now
            offsets = sorted(draw(st.lists(gaps, min_size=count, max_size=count)))
            rows = [
                (
                    start + offset,
                    draw(ids),
                    draw(st.just(-1) | ids),
                    draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False)),
                )
                for offset in offsets
            ]
            now = max([now] + [row[0] for row in rows])
            kinds = tuple(
                draw(st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=2))
            )
            keys = ("duration", "accuracy")[: len(kinds)]
            codes = [
                draw(st.integers(min_value=0, max_value=len(kinds) - 1)) for _ in rows
            ]
            ops.append(("block", int(start // 10), kinds, keys, codes, rows))
            spans.append((position, count))
            position += count
        else:
            ops.append(("read",))
    where = draw(st.sampled_from(("none", "before", "inside", "beyond")))
    cap = None
    firsts = [first for first, _ in spans if first > 0]
    cut = [(first, count) for first, count in spans if count > 1]
    if where == "before" and firsts:
        cap = draw(st.integers(min_value=1, max_value=draw(st.sampled_from(firsts))))
    elif where == "inside" and cut:
        first, count = draw(st.sampled_from(cut))
        cap = first + draw(st.integers(min_value=1, max_value=count - 1))
    elif where == "beyond":
        cap = position + draw(st.integers(min_value=1, max_value=5))
    return ops, cap


def replay_stream(ops, trace: EventTrace, blocks: bool):
    """Feed ``ops`` to ``trace``; blocks via ``record_block`` or a record loop.

    Returns what the caller observes: each single event's ``record`` result
    and a snapshot of :attr:`EventTrace.events` at every read.
    """
    observed, retained = [], None
    for op in ops:
        if op[0] == "event":
            _, timestamp, round_index, kind, agents = op
            event = trace.record(
                timestamp, round_index, kind, agents, {"t": timestamp}
            )
            observed.append(event is not None)
        elif op[0] == "block":
            _, round_index, kinds, keys, codes, rows = op
            if blocks:
                columns = [np.array(column) for column in zip(*rows)] or [[]] * 4
                if len(kinds) == 1:
                    trace.record_block(round_index, kinds[0], *columns)
                else:
                    trace.record_block(
                        round_index, kinds, *columns, key=keys, codes=codes
                    )
            else:
                for code, (timestamp, slow, fast, value) in zip(codes, rows):
                    agents = (slow,) if fast < 0 else (slow, fast)
                    trace.record(
                        timestamp, round_index, kinds[code], agents, {keys[code]: value}
                    )
        else:
            events = trace.events
            assert retained is None or events is retained
            retained = events
            observed.append(json.dumps([event_payload(e) for e in events]))
    return observed


class TestRecordBlock:
    @seed(20261017)
    # Half the draws, or more, take the default trace: the one path where
    # the memory sink stores the block as columns.
    @given(
        stream=block_streams(),
        sinks=st.just(frozenset())
        | st.sets(st.sampled_from(("callback", "jsonl", "flaky")), min_size=1),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=FIXTURE_OK)
    def test_record_block_equals_the_record_loop(self, stream, sinks, tmp_path):
        ops, cap = stream
        outcomes = []
        for blocks in (True, False):
            received: list = []
            extra: list = []
            if "callback" in sinks:
                extra.append(CallbackSink(received.append))
            if "jsonl" in sinks:
                extra.append(JSONLSink(tmp_path / f"{blocks}.jsonl", segment_events=5))
            if "flaky" in sinks:
                extra.append(FlakySink())
            trace = EventTrace(max_events=cap, sinks=extra)
            observed = replay_stream(ops, trace, blocks)
            trace.close()
            # Counted before anything is built, then again after.
            counts = (len(trace), list(trace.kind_counts().items()))
            outcomes.append(
                {
                    "observed": observed,
                    "counts": counts,
                    "dicts": json.dumps(trace.to_dicts()),
                    "dropped_events": trace.dropped_events,
                    "accounting": trace.accounting(),
                    "sink_errors": trace.stats.sink_errors,
                    "callback": received,
                    "chain": [getattr(sink, "chain", None) for sink in extra],
                }
            )
            assert (len(trace.events), list(trace.kind_counts().items())) == counts
            trace.check_conservation()
        assert outcomes[0] == outcomes[1]

    def test_default_pipeline_stores_owned_columns_and_cuts_at_the_cap(self):
        trace = EventTrace(max_events=4)
        trace.record(0.0, 0, "round_start")
        slow = np.array([5, 6])
        trace.record_block(0, "unit_complete", [1.0, 2.0], slow, [-1, 8], [1.0, 2.0])
        slow[0] = 99  # the block owns its columns
        trace.record_block(0, "unit_complete", [3.0, 4.0], [7, 9], [-1, -1], [3.0, 4.0])
        assert len(trace) == 4
        assert trace.kind_counts() == {"round_start": 1, "unit_complete": 3}
        assert (trace.stats.emitted, trace.dropped_events) == (5, 1)
        assert [e.agent_ids for e in trace.of_kind("unit_complete")] == [
            (5,),
            (6, 8),
            (7,),
        ]
        event = trace.events[2]
        assert type(event.timestamp) is float and type(event.agent_ids[1]) is int
        assert event.detail == {"duration": 2.0}
        trace.check_conservation()

    def test_unequal_columns_are_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            EventTrace().record_block(0, "unit_complete", [1.0], [1, 2], [-1], [1.0])


# ----------------------------------------------------------------------
# Kind-coded blocks: an async round's completions and aggregations
# ----------------------------------------------------------------------
#: Completions and aggregations of four units, in fire order.
MIXED_ROWS = (
    # (code, timestamp, slow, fast, value)
    (0, 1.0, 3, -1, 1.0),
    (0, 1.5, 4, 7, 1.5),
    (1, 1.5, 3, -1, 0.25),
    (0, 2.0, 5, -1, 2.0),
    (1, 2.5, 4, 7, 0.5),
    (1, 3.0, 5, -1, 0.75),
    (0, 3.0, 6, 8, 3.0),
    (1, 3.5, 6, 8, 0.875),
)
MIXED_KINDS = ("unit_complete", "aggregation")
MIXED_KEYS = ("duration", "accuracy")


def record_mixed(trace: EventTrace, blocks: bool) -> None:
    """A round start, then :data:`MIXED_ROWS` as one block or one by one."""
    trace.record(0.0, 0, "round_start")
    if blocks:
        codes, *columns = zip(*MIXED_ROWS)
        trace.record_block(0, MIXED_KINDS, *columns, key=MIXED_KEYS, codes=codes)
        return
    for code, timestamp, slow, fast, value in MIXED_ROWS:
        agents = (slow,) if fast < 0 else (slow, fast)
        trace.record(timestamp, 0, MIXED_KINDS[code], agents, {MIXED_KEYS[code]: value})


class TestKindCodedBlock:
    def test_reads_back_as_the_rows_recorded_one_by_one(self):
        block, loop = EventTrace(), EventTrace()
        record_mixed(block, blocks=True)
        record_mixed(loop, blocks=False)
        assert block.to_dicts() == loop.to_dicts()
        assert block.to_dicts()[3] == {
            "timestamp": 1.5,
            "round_index": 0,
            "kind": "aggregation",
            "agent_ids": [3],
            "detail": {"accuracy": 0.25},
        }
        assert block.kind_counts() == loop.kind_counts()

    def test_kind_counts_keep_first_seen_order_and_build_no_event(self):
        trace = EventTrace()
        trace.record_block(
            0, MIXED_KINDS, [1.0, 2.0, 3.0], [1, 2, 3], [-1] * 3, [0.5] * 3,
            key=MIXED_KEYS, codes=[1, 0, 1],
        )
        counts = trace.kind_counts()
        assert list(counts.items()) == [("aggregation", 2), ("unit_complete", 1)]
        assert trace._memory._events == [] and len(trace._memory._pending) == 1
        assert len(trace) == 3
        assert [event.kind for event in trace.events] == [
            "aggregation",
            "unit_complete",
            "aggregation",
        ]

    @pytest.mark.parametrize("cap", range(1, len(MIXED_ROWS) + 2))
    def test_a_cap_keeps_exactly_the_per_event_prefix(self, cap):
        block, loop = EventTrace(max_events=cap), EventTrace(max_events=cap)
        record_mixed(block, blocks=True)
        record_mixed(loop, blocks=False)
        assert list(block.kind_counts().items()) == list(loop.kind_counts().items())
        assert block.to_dicts() == loop.to_dicts()
        assert block.dropped_events == loop.dropped_events
        block.check_conservation()

    @pytest.mark.parametrize("extra", ("callback", "jsonl"))
    def test_sinks_get_the_per_event_stream(self, extra, tmp_path):
        streams = []
        for blocks in (True, False):
            received: list = []
            sinks: tuple = (CallbackSink(received.append),)
            if extra == "jsonl":
                path = tmp_path / f"{blocks}.jsonl"
                sinks += (JSONLSink(path, segment_events=3),)
            trace = EventTrace(sinks=sinks)
            record_mixed(trace, blocks)
            trace.close()
            sealed = path.read_text() if extra == "jsonl" else None
            streams.append(([event_payload(e) for e in received], sealed))
        assert streams[0] == streams[1]
        kinds = {payload["kind"] for payload in streams[0][0]}
        assert "aggregation" in kinds

    @pytest.mark.parametrize(
        "codes, kinds, keys",
        [
            ([0, 1], MIXED_KINDS, MIXED_KEYS),  # one code short
            ([0, 1, 0, 1], MIXED_KINDS, MIXED_KEYS),  # one code too many
            ([0, 2, 1], MIXED_KINDS, MIXED_KEYS),  # a code with no kind
            ([0, 1, 1], MIXED_KINDS, ("duration",)),  # a kind with no key
        ],
    )
    def test_codes_must_match_the_columns_and_kinds(self, codes, kinds, keys):
        with pytest.raises(ValueError):
            EventTrace().record_block(
                0, kinds, [1.0, 2.0, 3.0], [1, 2, 3], [-1] * 3, [0.5] * 3,
                key=keys, codes=codes,
            )


# ----------------------------------------------------------------------
# Sink round-trips
# ----------------------------------------------------------------------

class TestSinkRoundTrips:
    @seed(20261020)
    @given(events=bursts(max_events=60))
    @settings(STANDARD_SETTINGS, suppress_health_check=FIXTURE_OK)
    def test_jsonl_sink_round_trips_memory_view(self, events, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = EventTrace(sinks=(JSONLSink(path, segment_events=7),))
        record_burst(trace, events)
        trace.close()
        assert verify_sealed_jsonl(path).ok
        assert read_sealed_events(path) == trace.to_dicts()

    def test_callback_sink_sees_admitted_events_in_order(self):
        seen = []
        trace = EventTrace(sinks=(CallbackSink(seen.append),))
        trace.record(0.0, 0, "round_start")
        trace.record(1.0, 0, "unit_complete", (3,))
        assert [e.kind for e in seen] == ["round_start", "unit_complete"]

# ----------------------------------------------------------------------
# Runtime integration
# ----------------------------------------------------------------------

class TestPipelineIntegration:
    def test_run_method_sealed_writes_a_verified_trace(self, tmp_path):
        golden = json.loads(GOLDEN_PATH.read_text())
        scenario = dict(golden["scenario"], max_rounds=3)
        runner = ExperimentRunner(ScenarioConfig(**scenario))
        path = tmp_path / "run.jsonl"
        history = runner.run_method_sealed("ComDML", path)
        assert len(history) == 3
        result = verify_sealed_jsonl(path)
        assert result.ok
        assert result.events > 0

    def test_streaming_summary_matches_post_hoc_rendering(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        runner = ExperimentRunner(ScenarioConfig(**golden["scenario"]))
        summary = StreamingTraceSummary()
        trace = EventTrace(
            max_events=ComDMLConfig().trace_max_events, sinks=(summary.sink(),)
        )
        runner.run_method_with_trace("ComDML", trace=trace)
        assert summary.kind_counts() == trace.kind_counts()
        assert dynamics_annotation(summary) == dynamics_annotation(trace)
        assert format_dynamics_summary(summary) == format_dynamics_summary(trace)

    def test_dynamics_summary_surfaces_drop_counter(self):
        trace = EventTrace(max_events=2)
        trace.record(0.0, 0, "churn", (1,))
        trace.record(1.0, 0, "churn", (2,))
        trace.record(2.0, 1, "churn", (3,))  # dropped at capacity
        rendered = format_dynamics_summary(trace)
        assert "1 trace events dropped" in rendered
        no_drops = EventTrace()
        no_drops.record(0.0, 0, "churn", (1,))
        assert "dropped by capacity" not in format_dynamics_summary(no_drops)
        # The trace's cap drops two events, but the summary's sink got all
        # three, so its tallies are complete.
        summary = StreamingTraceSummary()
        capped = EventTrace(max_events=1, sinks=(summary.sink(),))
        for agent_id in (1, 2, 3):
            capped.record(0.0, 0, "churn", (agent_id,))
        assert capped.dropped_events == 2
        assert summary.dropped_events == 0
        rendered = format_dynamics_summary(summary)
        assert "dropped by capacity" not in rendered
        assert summary.per_round[0]["churn"] == 3
