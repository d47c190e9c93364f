"""Tests for the discrete-event engine."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.runtime.dynamics import DynamicsSchedule
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
# events, are common; priorities on both sides of the rows' 0.
instants = st.integers(min_value=0, max_value=6).map(float)
plain_events = st.lists(
    st.tuples(instants, st.integers(min_value=-1, max_value=2)), max_size=5
)
# A few rows at most, so most runs hold several rows.
batch_rows = st.sets(st.integers(min_value=0, max_value=7), max_size=2)


def fire_all(times, rows, lo, hi):
    """A batch callback that fires its whole run and does nothing."""
    return hi - lo


@st.composite
def batch_scenarios(draw):
    """Plain events around two overlapping batches, and ``run_until`` / ``run`` cuts."""
    return {
        "before": draw(plain_events),
        "first": draw(st.lists(instants, max_size=8)),
        "between": draw(plain_events),
        "second": draw(st.lists(instants, max_size=8)),
        "after": draw(plain_events),
        # Rows whose callback schedules a follow-up event (as a unit's
        # completion schedules its gossip step).
        "follow_up": draw(batch_rows),
        # Rows after which the batched side ends its run with nothing
        # scheduled (as a round's closing completion does).
        "stop": draw(batch_rows),
        # ``run_until(cut)`` then ``run(budget)`` for each pair.
        "cuts": sorted(draw(st.lists(instants, max_size=3))),
        "budgets": draw(st.lists(st.integers(min_value=0, max_value=4), max_size=3)),
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
                engine.schedule_at(
                    timestamp + 0.5, kind="follow_up", payload=row, callback=plain
                )

        def fire_run(times, rows, lo, hi):
            for index in range(lo, hi):
                row = rows[index]
                fire(times[index], row)
                if row in scenario["follow_up"] or row in scenario["stop"]:
                    return index - lo + 1
            return hi - lo

        if batched:
            engine.schedule_batch(
                np.array(timestamps, dtype=np.float64), kind, fire_run
            )
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
    for index, cut in enumerate(scenario["cuts"]):
        counts.append((engine.run_until(cut), engine.processed_events, engine.now))
        if index < len(scenario["budgets"]):
            budget = scenario["budgets"][index]
            counts.append((engine.run(budget), engine.processed_events, engine.now))
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

        def fire_run(times, rows, lo, hi):
            fired.extend(zip(times[lo:hi], rows[lo:hi]))
            return hi - lo

        engine.schedule_batch([2.0, 1.0, 2.0], "row", fire_run)
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
        # An observer makes every run one row.
        assert engine.batch_runs == 3

    def test_unobserved_rows_build_no_event(self):
        # Both rows are due before anything else: one step fires them as
        # one run, with the clock at the first row's time during the call.
        engine = SimulationEngine()
        runs = []

        def fire_run(times, rows, lo, hi):
            runs.append((times[lo:hi], rows[lo:hi], engine.now))
            return hi - lo

        engine.schedule_batch([2.0, 1.0], "row", fire_run)
        batch = engine.step()
        assert not isinstance(batch, Event) and len(batch) == 0
        assert runs == [([1.0, 2.0], [1, 0], 1.0)]
        assert engine.now == 2.0 and not engine.queue
        assert engine.step() is None
        assert engine.processed_events == engine.batch_rows == 2
        assert engine.batch_runs == 1

    def test_a_run_stops_where_its_callback_stops(self):
        engine = SimulationEngine()
        engine.schedule_batch([1.0, 2.0, 3.0], "row", lambda times, rows, lo, hi: 1)
        engine.schedule_at(2.5, kind="plain")
        assert engine.step() is not None and engine.now == 1.0
        assert engine.queue.peek().timestamp == 2.0
        assert engine.run() == 3 and engine.now == 3.0
        assert engine.batch_runs == 3 and engine.batch_rows == 3

    def test_a_callback_must_fire_a_row_of_its_run(self):
        engine = SimulationEngine()
        engine.schedule_batch([1.0, 2.0], "row", lambda times, rows, lo, hi: 0)
        with pytest.raises(ValueError, match="fired 0 of its 2 due rows"):
            engine.step()

    def test_empty_batch_reserves_no_sequence(self):
        engine = SimulationEngine()
        engine.schedule_batch([], "row", fire_all)
        assert engine.schedule_at(1.0).sequence == 0
        assert len(engine.queue) == 1

    def test_batch_in_the_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0)
        engine.step()
        with pytest.raises(ValueError, match="past"):
            engine.schedule_batch([6.0, 4.0], "row", fire_all)


class TestFiniteTimes:
    """NaN has no place in the event order, and an infinite time never fires."""

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_schedule_at_rejects_non_finite_times(self, timestamp):
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="finite"):
            engine.schedule_at(timestamp)
        assert not engine.queue

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_schedule_batch_rejects_non_finite_times(self, timestamp):
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="finite"):
            engine.schedule_batch([1.0, timestamp], "row", fire_all)
        assert not engine.queue

    def test_schedule_after_rejects_a_nan_delay(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_after(math.nan)

    def test_a_schedule_event_at_infinity_fails_at_register(self):
        schedule = DynamicsSchedule()
        schedule.churn(math.inf, fraction=0.5)
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="finite"):
            schedule.register(engine, lambda event: None)
