"""Tests for the ComDML orchestrator."""

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.models.resnet import resnet56_spec
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


class TestInvalidationBatching:
    """Dynamics events coalesce into ONE planner invalidation per plan."""

    def test_dynamics_burst_flushes_once_at_plan_time(self, small_registry):
        comdml = make_comdml(small_registry, planner_threshold=1)
        agents = [small_registry.get(agent_id) for agent_id in small_registry.ids]
        comdml.plan_round(0, agents)

        calls = []
        original = comdml.planner.invalidate_topology

        def recording_invalidate(ids):
            calls.append(list(ids))
            return original(ids)

        comdml.planner.invalidate_topology = recording_invalidate

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

        # A burst of three events touches the planner zero times...
        assert calls == []
        expected_ids = sorted(
            {departed_one.agent_id, departed_two.agent_id, arriving.agent_id}
        )
        assert comdml._pending_invalidations == set(expected_ids)

        # ...and flushes as exactly one coalesced invalidation at plan time.
        participants = agents[:-2] + [arriving]
        plan = comdml.plan_round(1, participants)
        assert calls == [expected_ids]
        assert comdml._pending_invalidations == set()
        assert plan.num_pairs >= 0
