"""Tests for DynamicsSchedule: staggered arrivals, departures, in-flight churn."""

import dataclasses

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.baselines import AllReduceDML, FedAvg
from repro.models.resnet import resnet56_spec
from repro.runtime.dynamics import DynamicsEvent, DynamicsSchedule

MODES = ("sync", "semi-sync", "async")


def fresh_registry(num_agents: int = 6, seed: int = 12345) -> AgentRegistry:
    profiles = [
        ResourceProfile(4.0, 100.0),
        ResourceProfile(2.0, 50.0),
        ResourceProfile(1.0, 50.0),
        ResourceProfile(1.0, 20.0),
        ResourceProfile(0.5, 20.0),
        ResourceProfile(0.2, 10.0),
    ][:num_agents]
    return AgentRegistry.build(
        num_agents=num_agents,
        rng=np.random.default_rng(seed),
        samples_per_agent=600,
        batch_size=100,
        profiles=profiles,
    )


def make_comdml(registry, dynamics=None, **config_kwargs):
    defaults = dict(max_rounds=3, offload_granularity=9, seed=3)
    defaults.update(config_kwargs)
    return ComDML(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(**defaults),
        dynamics=dynamics,
    )


def new_agent(agent_id: int, cpu: float = 4.0, bandwidth: float = 100.0) -> Agent:
    return Agent(
        agent_id=agent_id,
        profile=ResourceProfile(cpu, bandwidth),
        num_samples=500,
        batch_size=100,
    )


def first_unit_completion(mode: str = "sync") -> float:
    """Earliest unit completion of round 0 in a dynamics-free run."""
    trainer = make_comdml(fresh_registry(), execution_mode=mode, max_rounds=1)
    trainer.run()
    return min(e.timestamp for e in trainer.trace.of_kind("unit_complete"))


class TestScheduleConstruction:
    def test_events_sorted_by_time(self):
        schedule = DynamicsSchedule()
        schedule.departure(30.0, agent_id=1)
        schedule.churn(10.0, fraction=0.5)
        assert [event.time for event in schedule] == [10.0, 30.0]

    def test_arrival_wave_staggers(self):
        schedule = DynamicsSchedule()
        agents = [new_agent(10 + i) for i in range(3)]
        schedule.arrival_wave(start=100.0, interval=50.0, agents=agents)
        assert [event.time for event in schedule] == [100.0, 150.0, 200.0]
        assert all(event.kind == "arrival" for event in schedule)

    def test_churn_requires_exactly_one_target_spec(self):
        with pytest.raises(ValueError):
            DynamicsEvent(time=1.0, kind="churn")
        with pytest.raises(ValueError):
            DynamicsEvent(time=1.0, kind="churn", fraction=0.5, agent_ids=(1,))

    def test_arrival_requires_agent(self):
        with pytest.raises(ValueError):
            DynamicsEvent(time=1.0, kind="arrival")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DynamicsEvent(time=1.0, kind="earthquake")

    def test_schedule_cannot_be_registered_twice(self):
        """Reusing a schedule across runs would leak mutated Agent state."""
        schedule = DynamicsSchedule()
        schedule.arrival(10.0, new_agent(6))
        make_comdml(fresh_registry(), dynamics=schedule, max_rounds=1)
        with pytest.raises(RuntimeError, match="fresh schedule"):
            make_comdml(fresh_registry(), dynamics=schedule, max_rounds=1)


class TestEmptyScheduleEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_schedule_is_identical_to_none(self, mode):
        """An empty DynamicsSchedule must change nothing, in any mode."""
        baseline = make_comdml(fresh_registry(), execution_mode=mode).run()
        with_empty = make_comdml(
            fresh_registry(), dynamics=DynamicsSchedule(), execution_mode=mode
        ).run()
        assert baseline.records == with_empty.records


class TestArrivals:
    def test_arrival_at_time_zero_joins_first_plan(self):
        schedule = DynamicsSchedule()
        schedule.arrival(0.0, new_agent(6))
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=1)
        trainer.run()
        assert 6 in trainer.registry
        arrivals = trainer.trace.of_kind("arrival")
        assert arrivals and arrivals[0].agent_ids == (6,)
        # The newcomer took part in round 0's work.
        assert any(
            6 in e.agent_ids for e in trainer.trace.of_kind("unit_complete")
        )

    def test_mid_round_arrival_waits_for_next_plan(self):
        cutoff = first_unit_completion()
        schedule = DynamicsSchedule()
        schedule.arrival(0.5 * cutoff, new_agent(6))
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=2)
        trainer.run()
        round0_units = [
            e
            for e in trainer.trace.of_kind("unit_complete")
            if e.round_index == 0
        ]
        later_units = [
            e
            for e in trainer.trace.of_kind("unit_complete")
            if e.round_index == 1
        ]
        assert all(6 not in e.agent_ids for e in round0_units)
        assert any(6 in e.agent_ids for e in later_units)

    def test_duplicate_arrival_ignored(self):
        schedule = DynamicsSchedule()
        schedule.arrival(0.0, new_agent(0))  # id 0 already exists
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=1)
        trainer.run()
        assert not trainer.trace.of_kind("arrival")
        assert len(trainer.registry) == 6


class TestDepartures:
    @pytest.mark.parametrize("mode", MODES)
    def test_mid_round_departure_survived_by_every_mode(self, mode):
        cutoff = first_unit_completion()
        schedule = DynamicsSchedule()
        schedule.departure(0.25 * cutoff, agent_id=5)
        trainer = make_comdml(
            fresh_registry(), dynamics=schedule, execution_mode=mode, max_rounds=3
        )
        history = trainer.run()
        assert len(history) == 3
        assert 5 not in trainer.registry
        departures = trainer.trace.of_kind("departure")
        assert departures and departures[0].agent_ids == (5,)
        # The departed agent's in-flight unit was abandoned, and it never
        # works again after the departure time.
        abandoned = trainer.trace.of_kind("unit_abandoned")
        assert any(5 in e.agent_ids for e in abandoned)
        after = [
            e
            for e in trainer.trace.of_kind("unit_complete")
            if 5 in e.agent_ids and e.timestamp > departures[0].timestamp
        ]
        assert not after

    @pytest.mark.parametrize("mode", MODES)
    def test_emptied_population_runs_empty_rounds(self, mode):
        """Once every agent has left, ComDML runs empty rounds like AllReduce."""

        def run(trainer_cls):
            schedule = DynamicsSchedule()
            for agent_id in range(4):
                schedule.departure(0.0, agent_id=agent_id)
            trainer = trainer_cls(
                registry=fresh_registry(4),
                spec=resnet56_spec(),
                config=ComDMLConfig(
                    max_rounds=3, offload_granularity=9, seed=3, execution_mode=mode
                ),
                dynamics=schedule,
            )
            history = trainer.run()
            rounds = [
                (r.duration_seconds, r.accuracy, r.num_pairs, r.aggregation_seconds)
                for r in history.records
            ]
            return rounds, trainer.trace.kind_counts()

        rounds, kinds = run(ComDML)
        assert rounds == [(0.0, 0.0, 0, 0.0)] * 3
        assert kinds == {"departure": 4, "round_start": 3, "round_end": 3}
        assert (rounds, kinds) == run(AllReduceDML)

    def test_departure_of_unknown_agent_is_noop(self):
        schedule = DynamicsSchedule()
        schedule.departure(1.0, agent_id=99)
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=1)
        trainer.run()
        assert not trainer.trace.of_kind("departure")


class TestMidRoundChurn:
    @pytest.mark.parametrize("mode", MODES)
    def test_in_flight_units_are_repriced(self, mode):
        cutoff = first_unit_completion()
        schedule = DynamicsSchedule()
        schedule.churn(0.5 * cutoff, agent_ids=range(6))
        trainer = make_comdml(
            fresh_registry(), dynamics=schedule, execution_mode=mode, max_rounds=2
        )
        trainer.run()
        churn_events = [
            e
            for e in trainer.trace.of_kind("churn")
            if e.detail and e.detail.get("source") == "schedule"
        ]
        assert churn_events
        repriced = trainer.trace.of_kind("unit_repriced")
        assert repriced, f"churn landed but nothing was re-costed in mode {mode}"
        for event in repriced:
            assert event.detail["new_completion"] >= event.timestamp - 1e-9

    def test_repricing_moves_completions(self):
        """With every CPU churned, at least one completion time must move."""
        cutoff = first_unit_completion()
        schedule = DynamicsSchedule()
        schedule.churn(0.5 * cutoff, agent_ids=range(6))
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=1)
        trainer.run()
        repriced = trainer.trace.of_kind("unit_repriced")
        assert any(
            abs(e.detail["new_completion"] - e.detail["old_completion"]) > 1e-6
            for e in repriced
        )

    def test_churn_in_aggregation_window_keeps_trace_chronological(self):
        """Churn landing after the barrier but before round end re-costs
        nothing (no unit is in flight) and must not scramble the trace."""
        probe = make_comdml(fresh_registry(), max_rounds=1)
        probe.run()
        last_unit = max(e.timestamp for e in probe.trace.of_kind("unit_complete"))
        round_end = probe.trace.of_kind("round_end")[0].timestamp
        assert round_end > last_unit  # the aggregation window exists
        schedule = DynamicsSchedule()
        schedule.churn(0.5 * (last_unit + round_end), fraction=0.5)
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=2)
        trainer.run()
        timestamps = [event.timestamp for event in trainer.trace]
        assert timestamps == sorted(timestamps)
        assert not trainer.trace.of_kind("unit_repriced")

    def test_fraction_churn_between_rounds_only_touches_registry(self):
        """Churn dated after round 0's end re-costs nothing in flight."""
        trainer_probe = make_comdml(fresh_registry(), max_rounds=1)
        round_end = trainer_probe.run().records[0].cumulative_seconds
        schedule = DynamicsSchedule()
        schedule.churn(round_end, fraction=0.5)
        trainer = make_comdml(fresh_registry(), dynamics=schedule, max_rounds=2)
        trainer.run()
        churned = [
            e
            for e in trainer.trace.of_kind("churn")
            if e.detail and e.detail.get("source") == "schedule"
        ]
        assert churned
        # Round 1's plan was built after the churn fired, so nothing was in
        # flight: no unit may have been re-costed.
        assert not trainer.trace.of_kind("unit_repriced")


class TestDynamicRunsStayCoherent:
    def full_schedule(self, cutoff: float) -> DynamicsSchedule:
        schedule = DynamicsSchedule()
        schedule.churn(0.5 * cutoff, agent_ids=range(6))
        schedule.arrival_wave(
            start=1.5 * cutoff, interval=cutoff, agents=[new_agent(6), new_agent(7)]
        )
        schedule.departure(2.5 * cutoff, agent_id=4)
        return schedule

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_chronological_and_rounds_complete(self, mode):
        cutoff = first_unit_completion()
        trainer = make_comdml(
            fresh_registry(),
            dynamics=self.full_schedule(cutoff),
            execution_mode=mode,
            max_rounds=4,
        )
        history = trainer.run()
        assert len(history) == 4
        timestamps = [event.timestamp for event in trainer.trace]
        assert timestamps == sorted(timestamps)
        times = history.times()
        assert all(a < b for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("mode", MODES)
    def test_engine_feed_follows_each_buffered_completion(self, mode):
        """The opt-in engine feed still comes right after each completion.

        Completions wait in the flight table and reach the trace as blocks;
        the feed's record of a completion's engine event must follow that
        completion, and the feed counts every processed engine event, the
        stale rows of a round's batch included.
        """
        cutoff = first_unit_completion()
        trainer = make_comdml(
            fresh_registry(),
            dynamics=self.full_schedule(cutoff),
            execution_mode=mode,
            max_rounds=4,
            trace_engine_events=True,
        )
        trainer.run()
        events = list(trainer.trace)
        timestamps = [event.timestamp for event in events]
        assert timestamps == sorted(timestamps)
        feed = [event for event in events if event.kind == "engine_event"]
        assert len(feed) == trainer.runtime.engine.processed_events
        completed = None
        for event in events:
            if event.kind == "unit_complete":
                assert completed is None
                completed = event
            elif event.kind == "engine_event" and completed is not None:
                assert event.detail == {"engine_kind": "unit_complete"}
                assert event.timestamp == completed.timestamp
                completed = None
        assert completed is None

    def test_plan_with_an_agent_in_two_units_is_rejected(self):
        schedule = DynamicsSchedule()
        schedule.churn(1e9, fraction=0.5)
        trainer = make_comdml(fresh_registry(), dynamics=schedule)
        plan_round = trainer.plan_round

        def first_unit_twice(round_index, participants):
            plan = plan_round(round_index, participants)
            rows = np.arange(-1, len(plan.durations)).clip(0)
            return dataclasses.replace(
                plan,
                decisions=plan.decisions.take(rows),
                durations=plan.durations[rows],
            )

        trainer.plan_round = first_unit_twice
        with pytest.raises(ValueError, match="more than one unit"):
            trainer.run_round(0)

    @pytest.mark.parametrize("mode", MODES)
    def test_deterministic_under_fixed_seed(self, mode):
        cutoff = first_unit_completion()

        def run_once():
            trainer = make_comdml(
                fresh_registry(),
                dynamics=self.full_schedule(cutoff),
                execution_mode=mode,
                max_rounds=3,
            )
            return trainer.run()

        assert run_once().records == run_once().records

    @pytest.mark.parametrize("mode", MODES)
    def test_inert_schedule_matches_no_schedule_for_fedavg(self, mode):
        """A schedule whose only event never fires must not change records.

        Guards the flight table's pricing against divergence from the
        closed-form sync round — e.g. FedAvg bills communication inside its
        unit chains and must not be charged round-level aggregation again.
        """

        def run(dynamics):
            trainer = FedAvg(
                registry=fresh_registry(),
                spec=resnet56_spec(),
                config=ComDMLConfig(
                    max_rounds=2, offload_granularity=9, execution_mode=mode
                ),
                dynamics=dynamics,
            )
            return trainer.run()

        inert = DynamicsSchedule()
        inert.departure(1e12, agent_id=0)  # far beyond the run's horizon
        baseline = run(None)
        dynamic = run(inert)
        for base, dyn in zip(baseline.records, dynamic.records):
            assert dyn.duration_seconds == pytest.approx(base.duration_seconds)
            assert dyn.accuracy == pytest.approx(base.accuracy)

    def test_semi_sync_records_untruncated_makespans(self):
        """Quorum statistics must see what the round *would* have taken.

        Recording the truncated close offset would let a deadline policy
        ratchet its own deadline down on its own drops.
        """
        trainer = make_comdml(
            fresh_registry(),
            dynamics=DynamicsSchedule([DynamicsEvent(1e12, "departure", agent_id=0)]),
            execution_mode="semi-sync",
            quorum_fraction=0.5,
            max_rounds=1,
        )
        record = trainer.run().records[0]
        observed = trainer.runtime.stats.average_makespan
        # The quorum closed the round early, but the recorded makespan is
        # the slowest unit's projected completion — strictly beyond it.
        assert record.compute_seconds < observed
        dropped = trainer.trace.of_kind("straggler_dropped")
        assert observed == pytest.approx(
            max(e.detail["projected_completion"] for e in dropped)
        )

    def test_baseline_trainer_supports_dynamics(self):
        """FedAvg's chain-priced units re-cost and survive departures too."""
        cutoff = first_unit_completion()
        registry = fresh_registry()
        trainer = FedAvg(
            registry=registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=3, offload_granularity=9, execution_mode="semi-sync"
            ),
            dynamics=self.full_schedule(cutoff),
        )
        history = trainer.run()
        assert len(history) == 3
        assert trainer.trace.of_kind("arrival")
        assert trainer.trace.of_kind("departure")
