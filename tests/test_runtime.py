"""Tests for the event-driven TrainingRuntime (sync mode + traces).

The golden file ``tests/data/runtime_sync_golden.json`` was captured from
the pre-runtime per-method round loops; ``sync`` mode must reproduce those
RunHistory values bit-for-bit for ComDML and all five baselines.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import AllReduceDML, FedAvg
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.pairing import PairingPlan
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.models.resnet import resnet56_spec
from repro.runtime import EventTrace, TrainingRuntime, participation_fraction
from repro.runtime.strategy import RoundPlan, solo_decisions

GOLDEN_PATH = Path(__file__).parent / "data" / "runtime_sync_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

RECORD_FIELDS = (
    "duration_seconds",
    "cumulative_seconds",
    "accuracy",
    "compute_seconds",
    "communication_seconds",
    "aggregation_seconds",
)


def golden_runner() -> ExperimentRunner:
    return ExperimentRunner(ScenarioConfig(**GOLDEN["scenario"]))


class TestSyncGoldenRegression:
    @pytest.mark.parametrize("method", sorted(GOLDEN["histories"]))
    def test_sync_reproduces_seed_history_exactly(self, method):
        history = golden_runner().run_method(method)
        rows = GOLDEN["histories"][method]
        assert len(history) == len(rows)
        for row, record in zip(rows, history.records):
            assert record.round_index == row["round_index"]
            assert record.num_pairs == row["num_pairs"]
            for field in RECORD_FIELDS:
                assert getattr(record, field) == float(row[field]), (
                    f"{method} round {row['round_index']}: {field} diverged"
                )

    def test_sync_histories_deterministic_across_runs(self):
        first = golden_runner().run_method("ComDML")
        second = golden_runner().run_method("ComDML")
        assert first.records == second.records


class TestRuntimeWiring:
    def test_comdml_exposes_runtime(self, small_registry):
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=3, offload_granularity=9),
        )
        assert isinstance(comdml.runtime, TrainingRuntime)
        history = comdml.run()
        assert comdml.history is history
        assert comdml.clock.now == pytest.approx(history.total_time)

    def test_baseline_exposes_runtime(self, small_registry):
        trainer = AllReduceDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=3, offload_granularity=9),
        )
        assert isinstance(trainer.runtime, TrainingRuntime)
        assert len(trainer.run()) == 3

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ComDMLConfig(execution_mode="turbo")

    def test_mode_aliases_normalised(self):
        assert ComDMLConfig(execution_mode="semi_sync").execution_mode == "semi-sync"
        assert ComDMLConfig(execution_mode="SYNC").execution_mode == "sync"


class TestSyncTrace:
    def test_trace_covers_every_round(self, small_registry):
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=4, offload_granularity=9),
        )
        comdml.run()
        counts = comdml.trace.kind_counts()
        assert counts["round_start"] == 4
        assert counts["round_end"] == 4
        assert counts["unit_complete"] >= 4

    def test_every_agent_appears_in_trace(self, small_registry):
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=2, offload_granularity=9),
        )
        comdml.run()
        for agent_id in small_registry.ids:
            assert comdml.trace.for_agent(agent_id), f"agent {agent_id} untraced"

    def test_unit_completions_bounded_by_round_end(self, small_registry):
        trainer = FedAvg(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=1, offload_granularity=9),
        )
        trainer.run()
        round_end = trainer.trace.of_kind("round_end")[0].timestamp
        for event in trainer.trace.of_kind("unit_complete"):
            assert event.timestamp <= round_end + 1e-9

    def test_churn_recorded_in_trace(self, small_registry):
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=4,
                offload_granularity=9,
                churn_fraction=1.0,
                churn_interval_rounds=2,
            ),
        )
        comdml.run()
        churn_events = comdml.trace.of_kind("churn")
        assert churn_events and churn_events[0].round_index == 2

    def test_trace_cap_drops_not_grows(self):
        trace = EventTrace(max_events=3)
        for i in range(10):
            trace.record(float(i), 0, "unit_complete")
        assert len(trace) == 3
        assert trace.dropped_events == 7

    def test_trace_cap_wired_from_config(self, small_registry):
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=5, offload_granularity=9, trace_max_events=4
            ),
        )
        comdml.run()
        assert len(comdml.trace) == 4
        assert comdml.trace.dropped_events > 0

    def test_sync_trace_chronological_with_disconnected_agent(self):
        """A skipped (bandwidth-0) agent must not push trace events past round end."""
        import numpy as np

        from repro.agents.registry import AgentRegistry
        from repro.agents.resources import ResourceProfile

        registry = AgentRegistry.build(
            num_agents=3,
            rng=np.random.default_rng(0),
            samples_per_agent=500,
            batch_size=100,
            profiles=[
                ResourceProfile(0.1, 0.0),   # slow AND disconnected
                ResourceProfile(4.0, 100.0),
                ResourceProfile(2.0, 50.0),
            ],
        )
        trainer = FedAvg(
            registry=registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=2, offload_granularity=9),
        )
        trainer.run()
        timestamps = [event.timestamp for event in trainer.trace]
        assert timestamps == sorted(timestamps)


class TestSharedHelpers:
    def test_participation_fraction_full(self, small_registry):
        decisions = solo_decisions(small_registry.agents, _profile())
        assert participation_fraction(small_registry, decisions) == pytest.approx(1.0)

    def test_participation_fraction_partial(self, small_registry):
        decisions = solo_decisions(small_registry.agents[:3], _profile())
        fraction = participation_fraction(small_registry, decisions)
        assert 0.0 < fraction < 1.0
        expected = sum(a.num_samples for a in small_registry.agents[:3])
        assert fraction == pytest.approx(expected / small_registry.total_samples)

    def test_kept_traffic_adds_left_to_right(self, small_registry):
        """Kept offload traffic adds in the kept order, one addition at a time.

        Builtin ``sum`` is compensated from Python 3.12 on and gives
        ``1.0000000000000002e16`` here; round timing's left-to-right
        order gives ``1e16`` on every version.
        """
        traffic = np.array([1e16, 1.0, 1.0])
        decisions = PairingPlan(
            slow_id=np.array([0, 1, 2]),
            fast_id=np.array([3, 4, 5]),
            offloaded_layers=np.full(3, 9),
            slow_time=np.ones(3),
            fast_own_time=np.ones(3),
            communication_time=traffic,
            fast_offload_time=np.ones(3),
            pair_time=np.ones(3),
        )
        plan = RoundPlan(
            round_index=0,
            decisions=decisions,
            durations=decisions.pair_time,
            aggregation_seconds=0.0,
            duration_seconds=1.0,
            compute_seconds=1.0,
            communication_seconds=decisions.total_communication(),
            num_pairs=3,
        )
        runtime = ComDML(
            small_registry, resnet56_spec(), ComDMLConfig(offload_granularity=9)
        ).runtime
        kept = runtime._communication_for(plan, decisions)
        assert kept == 1e16
        assert type(kept) is float
        assert runtime._communication_for(plan, decisions.take(np.array([2, 1]))) == 2.0
        assert plan.communication_seconds == 1e16

    def test_solo_decisions_cover_everyone_once(self, small_registry):
        decisions = solo_decisions(small_registry.agents, _profile())
        assert [d.slow_id for d in decisions] == list(small_registry.ids)
        assert all(d.fast_id is None and d.offloaded_layers == 0 for d in decisions)
        assert all(d.estimate.pair_time > 0 for d in decisions)


def _profile():
    from repro.core.profiling import profile_architecture

    return profile_architecture(resnet56_spec(), granularity=9)
