"""Tests for the ComDML orchestrator."""

import gc

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.pairing import PairingDecision
from repro.core.planner import PrunedPlanner
from repro.core.workload import OffloadEstimate
from repro.models.resnet import resnet56_spec
from repro.network.topology import ring_topology
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.strategy import WorkUnit
from repro.runtime.trace import TraceEvent
from repro.sim.events import Event
from repro.training.accuracy import CurveAccuracyTracker
from repro.training.curves import LearningCurveModel, curve_preset_for


def make_comdml(small_registry, **config_kwargs):
    defaults = dict(max_rounds=20, offload_granularity=9, seed=1)
    defaults.update(config_kwargs)
    config = ComDMLConfig(**defaults)
    return ComDML(registry=small_registry, spec=resnet56_spec(), config=config)


class TestComDMLRound:
    def test_run_round_produces_record(self, small_registry):
        comdml = make_comdml(small_registry)
        record = comdml.run_round(0)
        assert record.duration_seconds > 0
        assert record.cumulative_seconds == pytest.approx(record.duration_seconds)
        assert 0.0 <= record.accuracy <= 1.0

    def test_cumulative_time_monotone(self, small_registry):
        comdml = make_comdml(small_registry)
        history = comdml.run()
        times = history.times()
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_accuracy_improves_over_run(self, small_registry):
        comdml = make_comdml(small_registry, max_rounds=40)
        history = comdml.run()
        assert history.final_accuracy > history.records[0].accuracy

    def test_pairs_are_formed(self, small_registry):
        comdml = make_comdml(small_registry)
        record = comdml.run_round(0)
        assert record.num_pairs >= 1

    def test_pruned_plan_round_builds_no_per_unit_objects(self, small_registry):
        """At or above ``planner_threshold`` a round plan is columns only.

        No ``PairingDecision``, ``OffloadEstimate`` or ``WorkUnit`` is built
        until a consumer asks for unit views.
        """
        comdml = make_comdml(small_registry, planner_threshold=1)
        per_unit = (PairingDecision, OffloadEstimate, WorkUnit)

        def live_per_unit_objects():
            gc.collect()
            return [obj for obj in gc.get_objects() if type(obj) in per_unit]

        # Holding the pre-existing objects keeps their ids from being reused.
        before = live_per_unit_objects()
        before_ids = {id(obj) for obj in before}
        plan = comdml.plan_round(0, small_registry.agents)
        assert plan.num_pairs >= 1
        assert [
            obj for obj in live_per_unit_objects() if id(obj) not in before_ids
        ] == []
        units = [plan.unit(row) for row in range(len(plan.durations))]
        assert len(units) == len(plan.decisions) == len(plan.durations)
        assert [obj for obj in live_per_unit_objects() if id(obj) not in before_ids]

    def test_sync_round_trace_builds_no_per_unit_events(self, small_registry):
        """A sync round keeps its unit completions in the trace as columns.

        Running a steady round builds only the round-level ``TraceEvent``s;
        reading the trace then builds one event per unit completion, so the
        trace holds exactly ``len(trace)`` events.
        """
        comdml = make_comdml(small_registry)
        comdml.run_round(0)

        def live_events():
            gc.collect()
            return [obj for obj in gc.get_objects() if type(obj) is TraceEvent]

        # Holding the pre-existing events keeps their ids from being reused.
        before = live_events()
        seen = {id(event) for event in before}
        comdml.run_round(1)
        built = [event for event in live_events() if id(event) not in seen]
        assert {event.kind for event in built} <= {
            "round_start",
            "churn",
            "aggregation",
            "round_end",
        }
        assert [event.kind for event in built].count("round_start") == 1
        seen.update(id(event) for event in built)

        events = comdml.trace.events
        read = [event for event in live_events() if id(event) not in seen]
        units = comdml.trace.kind_counts()["unit_complete"]
        assert units >= 2
        assert len(read) == units
        assert {event.kind for event in read} == {"unit_complete"}
        assert len(events) == len({id(event) for event in events}) == len(comdml.trace)
        assert comdml.trace.events is events

    def test_dynamic_round_builds_no_per_unit_objects(self):
        """A dynamics-aware round keeps its units as flight-table columns.

        In a steady semi-sync round with mid-round churn, a departure and an
        arrival, the unit completions are one engine batch (plus one event
        per re-cost), the plan's decision views are never built, a
        ``WorkUnit`` exists only for each re-cost, and the completions and
        the quorum's dropped stragglers reach the trace as columns, built
        when it is read.
        """

        def build(schedule: DynamicsSchedule) -> ComDML:
            return ComDML(
                registry=AgentRegistry.build(
                    num_agents=40,
                    rng=np.random.default_rng(3),
                    samples_per_agent=400,
                    batch_size=100,
                ),
                spec=resnet56_spec(),
                config=ComDMLConfig(
                    max_rounds=3,
                    offload_granularity=9,
                    seed=1,
                    execution_mode="semi-sync",
                    planner_threshold=1,
                ),
                dynamics=schedule,
            )

        probe_schedule = DynamicsSchedule()
        probe_schedule.churn(1e9, fraction=0.5)
        probe = build(probe_schedule)
        first = probe.run_round(0)
        # The slowest agents' units are still in flight early in round 1.
        slowest = sorted(probe.registry, key=lambda agent: agent.profile.cpu_share)
        schedule = DynamicsSchedule()
        at = first.cumulative_seconds + 0.1 * first.duration_seconds
        schedule.churn(at, agent_ids=[agent.agent_id for agent in slowest[:4]])
        schedule.departure(at * 1.01, agent_id=slowest[4].agent_id)
        schedule.arrival(
            at * 1.02,
            Agent(agent_id=99, profile=ResourceProfile(2.0, 50.0), num_samples=300),
        )
        comdml = build(schedule)
        comdml.run_round(0)

        runtime = comdml.runtime
        scheduled = []
        schedule_at = runtime.engine.schedule_at
        runtime.engine.schedule_at = lambda *args, **kwargs: scheduled.append(
            schedule_at(*args, **kwargs)
        )
        repriced = []
        reprice_unit = comdml.reprice_unit

        def keep_repriced(plan, unit):
            repriced.append(unit)
            return reprice_unit(plan, unit)

        comdml.reprice_unit = keep_repriced
        plans = []
        plan_round = comdml.plan_round
        comdml.plan_round = lambda *args: plans.append(plan_round(*args)) or plans[-1]

        per_unit = (PairingDecision, OffloadEstimate, WorkUnit, TraceEvent)

        def live_objects():
            gc.collect()
            return [obj for obj in gc.get_objects() if type(obj) in per_unit]

        # Holding the pre-existing objects keeps their ids from being reused.
        before = live_objects()
        seen = {id(obj) for obj in before}
        comdml.run_round(1)
        built = [obj for obj in live_objects() if id(obj) not in seen]

        kinds = comdml.trace.kind_counts()
        round_kinds = {event.kind for event in comdml.trace.for_round(1)}
        dynamics = {"unit_repriced", "unit_abandoned", "arrival", "departure"}
        assert dynamics <= round_kinds
        (plan,) = plans
        assert len(plan.durations) >= 15
        assert 1 <= len(repriced) <= 4
        assert len(scheduled) <= len(repriced) + 3
        assert "views" not in vars(plan.decisions)
        units = {id(obj) for obj in built if type(obj) is WorkUnit}
        assert units == {id(unit) for unit in repriced}
        decisions = (PairingDecision, OffloadEstimate)
        assert [obj for obj in built if type(obj) in decisions] == []
        events = [obj for obj in built if type(obj) is TraceEvent]
        columnar = {"unit_complete", "straggler_dropped"}
        assert not columnar & {event.kind for event in events}
        seen.update(id(obj) for obj in built)

        comdml.trace.events
        read = [
            obj
            for obj in live_objects()
            if type(obj) is TraceEvent and id(obj) not in seen
        ]
        assert kinds["unit_complete"] >= len(plan.durations)
        assert kinds["straggler_dropped"] >= 1
        assert len(read) == kinds["unit_complete"] + kinds["straggler_dropped"]
        assert {event.kind for event in read} == columnar

    @pytest.mark.parametrize("scheduled_churn", (False, True))
    def test_async_round_builds_no_per_unit_objects(
        self, scheduled_churn, monkeypatch
    ):
        """An async round prices, schedules, learns and traces as columns.

        Without a schedule, a steady round schedules no ``Event`` of its
        own, builds no ``WorkUnit``, decision view or per-unit
        ``TraceEvent`` (reading the trace builds one per completion and one
        per aggregation), and calls neither ``participation_fraction`` nor
        the tracker's ``after_round``.  With mid-round churn, each re-cost
        builds one ``Event`` and one ``WorkUnit``, and each re-costed unit
        one aggregation ``Event``.
        """
        import repro.runtime.runtime as runtime_module

        def build(schedule=None) -> ComDML:
            return ComDML(
                registry=AgentRegistry.build(
                    num_agents=40,
                    rng=np.random.default_rng(3),
                    samples_per_agent=400,
                    batch_size=100,
                ),
                spec=resnet56_spec(),
                config=ComDMLConfig(
                    max_rounds=3,
                    offload_granularity=9,
                    seed=1,
                    execution_mode="async",
                    planner_threshold=1,
                ),
                dynamics=schedule,
            )

        schedule = None
        if scheduled_churn:
            # Churn every fifth agent a tenth into round 1.
            first = build().run_round(0)
            schedule = DynamicsSchedule()
            at = first.cumulative_seconds + 0.1 * first.duration_seconds
            schedule.churn(at, agent_ids=list(range(0, 40, 5)))
        comdml = build(schedule)
        comdml.run_round(0)
        comdml.trace.events

        runtime = comdml.runtime
        scheduled = []
        schedule_at = runtime.engine.schedule_at
        runtime.engine.schedule_at = lambda *args, **kwargs: scheduled.append(
            schedule_at(*args, **kwargs)
        ) or scheduled[-1]
        repriced = []
        reprice_unit = comdml.reprice_unit

        def keep_repriced(plan, unit):
            repriced.append(unit)
            return reprice_unit(plan, unit)

        comdml.reprice_unit = keep_repriced
        plans = []
        plan_round = comdml.plan_round
        comdml.plan_round = lambda *args: plans.append(plan_round(*args)) or plans[-1]
        calls = []
        monkeypatch.setattr(
            runtime_module,
            "participation_fraction",
            lambda *args: calls.append("participation_fraction"),
        )
        comdml.accuracy_tracker.after_round = lambda *args: calls.append("after_round")

        per_unit = (PairingDecision, OffloadEstimate, WorkUnit, TraceEvent, Event)

        def live_objects():
            gc.collect()
            return [obj for obj in gc.get_objects() if type(obj) in per_unit]

        # Holding the pre-existing objects keeps their ids from being reused.
        before = live_objects()
        seen = {id(obj) for obj in before}
        comdml.run_round(1)
        built = [obj for obj in live_objects() if id(obj) not in seen]

        (plan,) = plans
        assert len(plan.durations) >= 15
        assert calls == []
        assert "views" not in vars(plan.decisions)
        decisions = (PairingDecision, OffloadEstimate)
        assert [obj for obj in built if type(obj) in decisions] == []
        units = {id(obj) for obj in built if type(obj) is WorkUnit}
        assert units == {id(unit) for unit in repriced}
        events = [obj for obj in built if type(obj) is Event]
        assert sorted(map(id, events)) == sorted(map(id, scheduled))
        completions = [event for event in scheduled if event.kind == "unit_complete"]
        aggregations = [event for event in scheduled if event.kind == "aggregation"]
        assert len(completions) == len(repriced) == len(scheduled) - len(aggregations)
        assert sorted(event.payload for event in aggregations) == sorted(
            {unit.index for unit in repriced}
        )
        if scheduled_churn:
            assert 2 <= len(repriced) <= 8
        else:
            assert repriced == []
        traced = [obj for obj in built if type(obj) is TraceEvent]
        assert {event.kind for event in traced} <= {
            "round_start",
            "churn",
            "unit_repriced",
            "round_end",
        }
        seen.update(id(obj) for obj in built)

        counts = {
            kind: len([e for e in comdml.trace.for_round(1) if e.kind == kind])
            for kind in ("unit_complete", "aggregation")
        }
        read = [
            obj
            for obj in live_objects()
            if type(obj) is TraceEvent and id(obj) not in seen
        ]
        assert counts["unit_complete"] == counts["aggregation"] == len(plan.durations)
        assert len(read) == 2 * len(plan.durations)
        assert {event.kind for event in read} == set(counts)

    def test_target_accuracy_stops_early(self, small_registry):
        comdml = make_comdml(small_registry, max_rounds=500, target_accuracy=0.5)
        history = comdml.run()
        assert len(history) < 500
        assert history.final_accuracy >= 0.5

    def test_max_rounds_respected(self, small_registry):
        comdml = make_comdml(small_registry, max_rounds=7)
        assert len(comdml.run()) == 7

    def test_churn_changes_profiles(self, small_registry):
        comdml = make_comdml(
            small_registry, max_rounds=4, churn_fraction=1.0, churn_interval_rounds=2
        )
        before = {agent.agent_id: agent.profile for agent in small_registry}
        comdml.run()
        after = {agent.agent_id: agent.profile for agent in small_registry}
        assert any(before[i] != after[i] for i in before)

    def test_participation_fraction_limits_round(self, small_registry):
        comdml = make_comdml(small_registry, participation_fraction=0.5)
        decisions = comdml.scheduler.plan_round(comdml.scheduler.select_participants())
        involved = {d.slow_id for d in decisions} | {
            d.fast_id for d in decisions if d.fast_id is not None
        }
        assert len(involved) <= 3

    def test_custom_tracker_is_used(self, small_registry):
        tracker = CurveAccuracyTracker(
            LearningCurveModel(
                preset=curve_preset_for("cifar100", "resnet56"),
                method="comdml",
                rng=np.random.default_rng(0),
            )
        )
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(num_classes=100),
            config=ComDMLConfig(max_rounds=5, offload_granularity=9),
            accuracy_tracker=tracker,
        )
        history = comdml.run()
        assert len(history) == 5

    def test_history_method_name(self, small_registry):
        comdml = make_comdml(small_registry, max_rounds=2)
        assert comdml.run().method == "ComDML"

    def test_faster_than_no_balancing_baseline(self, small_registry):
        """ComDML's per-round time must beat the straggler-bound baseline."""
        from repro.baselines.allreduce_dml import AllReduceDML

        comdml = make_comdml(small_registry, max_rounds=3)
        comdml_history = comdml.run()
        baseline = AllReduceDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=3, offload_granularity=9, seed=1),
        )
        baseline_history = baseline.run()
        comdml_round = comdml_history.records[0].duration_seconds
        baseline_round = baseline_history.records[0].duration_seconds
        assert comdml_round < baseline_round


class TestDynamicsReachThePlanner:
    """Arrivals and departures reach the planner through the topology's stamps."""

    def test_burst_between_plans_matches_a_fresh_plan(self, small_registry):
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                offload_granularity=9, seed=1, planner_threshold=1, planner_top_k=2
            ),
            topology=ring_topology(small_registry.ids),
        )
        agents = [small_registry.get(agent_id) for agent_id in small_registry.ids]
        comdml.plan_round(0, agents)

        calls = []
        for name in ("invalidate", "invalidate_topology"):
            original = getattr(comdml.planner, name)

            def recording(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            setattr(comdml.planner, name, recording)

        departed_one, departed_two = agents[-1], agents[-2]
        comdml.on_agent_departure(departed_one)
        arriving = Agent(
            agent_id=99,
            profile=ResourceProfile(1.0, 50.0),
            num_samples=600,
            batch_size=100,
        )
        small_registry.add(arriving)
        comdml.on_agent_arrival(arriving, neighbors=[agents[0].agent_id])
        comdml.on_agent_departure(departed_two)
        assert calls == []

        # The next plan reads the burst from the topology's stamps: it
        # re-costs the arrival and the two rows the burst touched, the ring
        # neighbours of the departures (agents[0], which also links to the
        # arrival, and agents[-3]), and no other row.
        participants = agents[:-2] + [arriving]
        plan = comdml.plan_round(1, participants)
        assert comdml.planner.stats.last_rows_recomputed == 3
        fresh = PrunedPlanner(comdml.profile, comdml.link_model, top_k=2)
        assert list(plan.decisions) == list(fresh.plan(participants))
