"""Tests for the discrete-event engine."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.events import Event


class TestSimulationEngine:
    def test_step_advances_clock(self):
        engine = SimulationEngine()
        engine.schedule_at(3.0, kind="tick")
        event = engine.step()
        assert event.kind == "tick"
        assert engine.now == 3.0

    def test_step_empty_returns_none(self):
        assert SimulationEngine().step() is None

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0)
        engine.step()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0)

    def test_schedule_after(self):
        engine = SimulationEngine()
        engine.schedule_after(2.0, kind="later")
        engine.step()
        assert engine.now == 2.0

    def test_schedule_after_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_after(-1.0)

    def test_callbacks_invoked(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(1.0, kind="x", callback=lambda event: seen.append(event.kind))
        engine.step()
        assert seen == ["x"]

    def test_kind_handlers_invoked(self):
        engine = SimulationEngine()
        seen = []
        engine.on("churn", lambda event: seen.append(event.timestamp))
        engine.schedule_at(1.0, kind="churn")
        engine.schedule_at(2.0, kind="other")
        engine.run()
        assert seen == [1.0]

    def test_run_until_processes_only_due_events(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0)
        engine.schedule_at(10.0)
        processed = engine.run_until(5.0)
        assert processed == 1
        assert engine.now == 5.0
        assert len(engine.queue) == 1

    def test_run_drains_queue(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t)
        assert engine.run() == 3
        assert engine.processed_events == 3

    def test_run_with_max_events(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t)
        assert engine.run(max_events=2) == 2
        assert len(engine.queue) == 1


# ----------------------------------------------------------------------
# Event batches
# ----------------------------------------------------------------------
# Few distinct instants, so ties between rows, and between rows and plain
# events, are common.
instants = st.integers(min_value=0, max_value=6).map(float)
plain_events = st.lists(
    st.tuples(instants, st.integers(min_value=0, max_value=2)), max_size=5
)


@st.composite
def batch_scenarios(draw):
    """Plain events around two overlapping batches, and ``run_until`` cuts."""
    return {
        "before": draw(plain_events),
        "first": draw(st.lists(instants, max_size=8)),
        "between": draw(plain_events),
        "second": draw(st.lists(instants, max_size=8)),
        "after": draw(plain_events),
        # Rows whose callback schedules a follow-up event (as a unit's
        # completion schedules its gossip step).
        "follow_up": draw(st.sets(st.integers(min_value=0, max_value=7))),
        "cuts": sorted(draw(st.lists(instants, max_size=3))),
        "observe": draw(st.booleans()),
        "handle": draw(st.booleans()),
    }


def play(scenario, batched):
    """Run a scenario; ``batched`` picks ``schedule_batch`` over per-row calls."""
    engine = SimulationEngine()
    processed, observed, handled, counts = [], [], [], []
    if scenario["observe"]:
        engine.subscribe(
            lambda event: observed.append(
                (event.timestamp, event.priority, event.sequence, event.kind)
            )
        )
    if scenario["handle"]:
        engine.on("first", lambda event: handled.append(event.timestamp))

    def plain(event):
        processed.append((event.timestamp, event.kind, event.payload))

    def schedule_plain(events, label):
        for index, (timestamp, priority) in enumerate(events):
            engine.schedule_at(
                timestamp, kind=label, payload=index, priority=priority, callback=plain
            )

    def schedule_rows(timestamps, kind):
        def fire(timestamp, row):
            processed.append((timestamp, kind, row))
            if row in scenario["follow_up"]:
                engine.schedule_after(
                    0.5, kind="follow_up", payload=row, callback=plain
                )

        if batched:
            engine.schedule_batch(np.array(timestamps, dtype=np.float64), kind, fire)
        else:
            for row, timestamp in enumerate(timestamps):
                engine.schedule_at(
                    timestamp,
                    kind=kind,
                    payload=row,
                    callback=lambda event: fire(event.timestamp, event.payload),
                )

    schedule_plain(scenario["before"], "before")
    schedule_rows(scenario["first"], "first")
    schedule_plain(scenario["between"], "between")
    schedule_rows(scenario["second"], "second")
    schedule_plain(scenario["after"], "after")
    for cut in scenario["cuts"]:
        counts.append((engine.run_until(cut), engine.processed_events, engine.now))
    counts.append((engine.run(), engine.processed_events, engine.now))
    assert engine.step() is None
    return processed, observed, handled, counts


class TestEventBatch:
    @seed(20261018)
    @given(scenario=batch_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_a_batch_fires_like_one_schedule_at_per_row(self, scenario):
        assert play(scenario, batched=True) == play(scenario, batched=False)

    def test_rows_fire_by_time_then_row_under_reserved_sequences(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, kind="before")
        fired = []
        engine.schedule_batch(
            [2.0, 1.0, 2.0], "row", lambda t, row: fired.append((t, row))
        )
        engine.schedule_at(1.0, kind="after")
        events = []
        engine.subscribe(events.append)
        engine.run()
        assert fired == [(1.0, 1), (2.0, 0), (2.0, 2)]
        assert [(e.timestamp, e.sequence, e.kind) for e in events] == [
            (1.0, 0, "before"),
            (1.0, 2, "row"),
            (1.0, 4, "after"),
            (2.0, 1, "row"),
            (2.0, 3, "row"),
        ]
        assert engine.processed_events == 5

    def test_unobserved_rows_build_no_event(self):
        engine = SimulationEngine()
        engine.schedule_batch([1.0, 2.0], "row", lambda t, row: None)
        batch = engine.step()
        assert not isinstance(batch, Event) and len(batch) == 1
        assert engine.queue.peek() is batch and batch.timestamp == 2.0
        assert engine.step() is batch and len(batch) == 0
        assert engine.step() is None
        assert engine.processed_events == 2

    def test_empty_batch_reserves_no_sequence(self):
        engine = SimulationEngine()
        engine.schedule_batch([], "row", lambda t, row: None)
        assert engine.schedule_at(1.0).sequence == 0
        assert len(engine.queue) == 1

    def test_batch_in_the_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0)
        engine.step()
        with pytest.raises(ValueError, match="past"):
            engine.schedule_batch([6.0, 4.0], "row", lambda t, row: None)
