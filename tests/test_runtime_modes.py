"""Tests for the semi-sync and async runtime execution modes."""

import gc
import weakref

import pytest

from repro.baselines import AllReduceDML, FedAvg
from repro.cli import main
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.experiments.runner import PAPER_COMPARISON_METHODS, ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.models.resnet import resnet56_spec
from repro.runtime.audit import ChainState
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.quorum import resolve_quorum


def make_comdml(registry, **config_kwargs):
    defaults = dict(max_rounds=5, offload_granularity=9, seed=3)
    defaults.update(config_kwargs)
    return ComDML(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(**defaults),
    )


class TestSemiSync:
    def test_round_never_slower_than_sync(self, small_registry, rng):
        from repro.agents.registry import AgentRegistry

        def fresh():
            import numpy as np

            return AgentRegistry.build(
                num_agents=6,
                rng=np.random.default_rng(12345),
                samples_per_agent=600,
                batch_size=100,
            )

        sync = make_comdml(fresh(), execution_mode="sync").run_round(0)
        semi = make_comdml(
            fresh(), execution_mode="semi-sync", quorum_fraction=0.5
        ).run_round(0)
        assert semi.compute_seconds <= sync.compute_seconds + 1e-9

    def test_stragglers_dropped_and_traced(self, small_registry):
        comdml = make_comdml(
            small_registry, execution_mode="semi-sync", quorum_fraction=0.5, max_rounds=2
        )
        comdml.run()
        dropped = comdml.trace.of_kind("straggler_dropped")
        quorums = comdml.trace.of_kind("quorum_reached")
        assert quorums and all(e.detail["kept"] >= 1 for e in quorums)
        # With quorum 0.5 over >=2 units, at least one straggler per round
        # whenever a round forms more than one unit.
        if any(e.detail["dropped"] > 0 for e in quorums):
            assert dropped
        for event in dropped:
            assert event.agent_ids
            assert event.detail["projected_completion"] >= event.timestamp

    def test_dropped_stragglers_shrink_participation(self, small_registry):
        trainer = AllReduceDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=1,
                offload_granularity=9,
                execution_mode="semi-sync",
                quorum_fraction=0.5,
            ),
        )
        record = trainer.run_round(0)
        quorum = trainer.trace.of_kind("quorum_reached")[0]
        assert quorum.detail["kept"] == 3
        assert quorum.detail["dropped"] == 3
        assert record.num_pairs == 0

    def test_fedavg_full_quorum_not_slower_than_sync(self):
        """FedAvg's chain-priced units must not double-count communication."""
        import numpy as np

        from repro.agents.registry import AgentRegistry

        def total(mode):
            registry = AgentRegistry.build(
                num_agents=6,
                rng=np.random.default_rng(1),
                samples_per_agent=500,
                batch_size=100,
            )
            trainer = FedAvg(
                registry=registry,
                spec=resnet56_spec(),
                config=ComDMLConfig(
                    max_rounds=2,
                    offload_granularity=9,
                    execution_mode=mode,
                    quorum_fraction=1.0,
                ),
            )
            return trainer.run().total_time

        sync_total = total("sync")
        assert total("semi-sync") <= sync_total + 1e-9
        assert total("async") <= sync_total + 1e-9

    def test_quorum_one_keeps_everything(self, small_registry):
        comdml = make_comdml(
            small_registry, execution_mode="semi-sync", quorum_fraction=1.0, max_rounds=1
        )
        comdml.run()
        assert not comdml.trace.of_kind("straggler_dropped")

    def test_deterministic_under_fixed_seed(self, rng):
        import numpy as np

        from repro.agents.registry import AgentRegistry

        def run_once():
            registry = AgentRegistry.build(
                num_agents=6,
                rng=np.random.default_rng(7),
                samples_per_agent=500,
                batch_size=100,
            )
            comdml = make_comdml(
                registry,
                execution_mode="semi-sync",
                quorum_fraction=0.6,
                churn_fraction=0.5,
                churn_interval_rounds=2,
                max_rounds=4,
            )
            return comdml.run()

        assert run_once().records == run_once().records


class TestSemiSyncEdgeCases:
    def test_trace_stays_chronological(self, small_registry):
        comdml = make_comdml(
            small_registry, execution_mode="semi-sync", quorum_fraction=0.5, max_rounds=3
        )
        comdml.run()
        timestamps = [event.timestamp for event in comdml.trace]
        assert timestamps == sorted(timestamps)

    def test_disconnected_agents_do_not_fill_quorum(self):
        """Idle (bandwidth-0) FedAvg agents must not crowd out training agents."""
        import numpy as np

        from repro.agents.registry import AgentRegistry
        from repro.agents.resources import ResourceProfile

        profiles = [
            ResourceProfile(4.0, 0.0),   # disconnected: server skips it
            ResourceProfile(4.0, 0.0),   # disconnected: server skips it
            ResourceProfile(2.0, 50.0),
            ResourceProfile(1.0, 50.0),
        ]
        registry = AgentRegistry.build(
            num_agents=4,
            rng=np.random.default_rng(0),
            samples_per_agent=500,
            batch_size=100,
            profiles=profiles,
        )
        trainer = FedAvg(
            registry=registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=1,
                offload_granularity=9,
                execution_mode="semi-sync",
                quorum_fraction=0.5,
            ),
        )
        trainer.run()
        # The fast disconnected agents still rank by their training time, so
        # the quorum is not trivially two zero-duration idle units.
        for event in trainer.trace.of_kind("unit_complete"):
            assert event.detail["duration"] > 0


class TestAsync:
    def test_per_unit_aggregation_events(self, small_registry):
        comdml = make_comdml(small_registry, execution_mode="async", max_rounds=1)
        comdml.run()
        units = comdml.trace.of_kind("unit_complete")
        aggregations = comdml.trace.of_kind("aggregation")
        assert len(aggregations) == len(units) >= 1
        # Gossip aggregation fires at or after its unit's completion.
        for unit, agg in zip(units, aggregations):
            assert agg.timestamp >= unit.timestamp

    def test_accuracy_advances_per_unit(self, small_registry):
        comdml = make_comdml(small_registry, execution_mode="async", max_rounds=1)
        comdml.run()
        accuracies = [
            e.detail["accuracy"] for e in comdml.trace.of_kind("aggregation")
        ]
        assert accuracies == sorted(accuracies)
        assert comdml.history.final_accuracy == pytest.approx(accuracies[-1])

    def test_round_end_after_last_aggregation(self, small_registry):
        trainer = FedAvg(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=1, offload_granularity=9, execution_mode="async"
            ),
        )
        trainer.run()
        round_end = trainer.trace.of_kind("round_end")[0].timestamp
        for event in trainer.trace.of_kind("aggregation"):
            assert event.timestamp <= round_end + 1e-9

    def test_deterministic_under_fixed_seed(self):
        import numpy as np

        from repro.agents.registry import AgentRegistry

        def run_once():
            registry = AgentRegistry.build(
                num_agents=5,
                rng=np.random.default_rng(11),
                samples_per_agent=400,
                batch_size=100,
            )
            return make_comdml(
                registry, execution_mode="async", max_rounds=3
            ).run()

        assert run_once().records == run_once().records

    def test_history_still_monotone(self, small_registry):
        comdml = make_comdml(small_registry, execution_mode="async", max_rounds=4)
        history = comdml.run()
        times = history.times()
        assert all(a < b for a, b in zip(times, times[1:]))


class TestModesEndToEnd:
    @pytest.mark.parametrize("mode", ["semi-sync", "async"])
    def test_experiment_runner_supports_mode(self, mode):
        config = ScenarioConfig(
            num_agents=5,
            max_rounds=4,
            offload_granularity=9,
            execution_mode=mode,
            quorum_fraction=0.6,
            seed=5,
        )
        history, trace = ExperimentRunner(config).run_method_with_trace("ComDML")
        assert len(history) == 4
        assert trace.kind_counts()["round_end"] == 4

    @pytest.mark.parametrize("mode", ["semi-sync", "async"])
    def test_cli_runs_mode(self, mode, capsys):
        exit_code = main(
            [
                "compare",
                "--agents",
                "4",
                "--target",
                "0",
                "--max-rounds",
                "3",
                "--mode",
                mode,
                "--quorum",
                "0.6",
                "--methods",
                "ComDML",
                "AllReduce",
                "--granularity",
                "9",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ComDML" in captured and "AllReduce" in captured


#: A scenario whose semi-sync rounds drop stragglers under every quorum
#: policy: churn between rounds, a 0.6 quorum, and a deadline below the
#: running makespan mean.
ONE_PATH_SCENARIO = dict(
    num_agents=10,
    max_rounds=6,
    offload_granularity=9,
    samples_per_agent=500,
    churn_fraction=0.3,
    churn_interval_rounds=2,
    quorum_fraction=0.6,
    quorum_deadline_factor=0.9,
    seed=3,
)

#: The semi-sync quorum policies and async, as scenario overrides.
EVENT_DRIVEN_MODES = {
    "semi-sync-fixed": dict(execution_mode="semi-sync", quorum_policy="fixed"),
    "semi-sync-deadline": dict(execution_mode="semi-sync", quorum_policy="deadline"),
    "semi-sync-adaptive": dict(execution_mode="semi-sync", quorum_policy="adaptive"),
    "async": dict(execution_mode="async"),
}


def digest_and_chain_head(history, trace) -> tuple[str, str]:
    chain = ChainState()
    for payload in trace.to_dicts():
        chain.update(payload)
    return history.digest(), chain.head


class TestOnePathPerMode:
    """Semi-sync and async rounds run one path, with or without a schedule."""

    @pytest.mark.parametrize("participation", (1.0, 0.5))
    @pytest.mark.parametrize("method", PAPER_COMPARISON_METHODS)
    @pytest.mark.parametrize("mode", sorted(EVENT_DRIVEN_MODES))
    def test_a_schedule_that_never_fires_changes_nothing(
        self, mode, method, participation
    ):
        """An event due after the run leaves the history and the trace alone."""
        runner = ExperimentRunner(
            ScenarioConfig(
                **ONE_PATH_SCENARIO,
                **EVENT_DRIVEN_MODES[mode],
                participation_fraction=participation,
            )
        )
        schedule = DynamicsSchedule()
        schedule.churn(1e12, fraction=0.5)
        plain = runner.run_method_with_trace(method)
        scheduled = runner.run_method_with_trace(method, dynamics=schedule)
        assert scheduled[0].total_time < 1e12
        assert digest_and_chain_head(*scheduled) == digest_and_chain_head(*plain)

    @pytest.mark.parametrize("method", PAPER_COMPARISON_METHODS)
    @pytest.mark.parametrize("policy", ("fixed", "deadline", "adaptive"))
    def test_resolve_quorum_predicts_each_unperturbed_round(self, policy, method):
        """Without a schedule a quorum round closes where ``resolve_quorum`` says.

        Over the round's plan durations, sorted, the policy's decision
        resolves to exactly the count the round's ``quorum_reached`` event
        keeps and the offset its record reports as ``compute_seconds``.
        """
        runner = ExperimentRunner(
            ScenarioConfig(
                **ONE_PATH_SCENARIO, execution_mode="semi-sync", quorum_policy=policy
            )
        )
        trainer = runner.build_method(method)
        plans, decisions = [], []
        plan_round = trainer.plan_round

        def recording_plan_round(round_index, participants):
            plans.append(plan_round(round_index, participants))
            return plans[-1]

        policy_object = trainer.runtime.quorum_policy
        decide = policy_object.decide

        def recording_decide(durations, stats):
            decisions.append(decide(durations, stats))
            return decisions[-1]

        trainer.plan_round = recording_plan_round
        policy_object.decide = recording_decide
        history = trainer.run()
        quorums = trainer.trace.of_kind("quorum_reached")
        assert len(plans) == len(decisions) == len(quorums) == len(history)
        closes = []
        for plan, decision, quorum, record in zip(
            plans, decisions, quorums, history.records
        ):
            kept, close = resolve_quorum(decision, sorted(plan.durations.tolist()))
            assert quorum.detail["kept"] == kept
            assert record.compute_seconds == close
            closes.append(close == decision.deadline_seconds)
        # The deadline policy closes some rounds at its deadline.
        assert any(closes) == (policy == "deadline")

    def test_identical_rounds_tighten_the_adaptive_quorum_to_its_floor(self):
        """Rounds that repeat one plan observe one makespan, exactly.

        Without churn every AllReduce round plans the same ten units, so
        the observed makespans are equal, their CV is zero, and from the
        third round on the adaptive quorum keeps its floor of 6.  A CV
        that is off by rounding (``E[x²] - mean²``, or offsets re-derived
        as ``(start + d) - start``) keeps 7.
        """
        scenario = dict(ONE_PATH_SCENARIO, churn_fraction=0.0, max_rounds=12)
        runner = ExperimentRunner(
            ScenarioConfig(
                **scenario, execution_mode="semi-sync", quorum_policy="adaptive"
            )
        )
        _, trace = runner.run_method_with_trace("AllReduce")
        kept = [event.detail["kept"] for event in trace.of_kind("quorum_reached")]
        assert kept == [10, 10] + [6] * 10

    @pytest.mark.parametrize("mode", ("async", "sync"))
    def test_a_finished_round_frees_its_plan_without_the_collector(
        self, small_registry, mode
    ):
        """A flight's hooks close over it; ending the round unhooks them.

        Every unit of these rounds completes, so no stale batch row keeps
        the flight queued, and the round's plan (with its decision views)
        is freed by reference counting alone.  The sync run carries a
        schedule that never fires, so it runs on the flight table too.
        """
        schedule = DynamicsSchedule()
        schedule.churn(1e12, fraction=0.5)
        comdml = ComDML(
            registry=small_registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(
                max_rounds=2, offload_granularity=9, seed=3, execution_mode=mode
            ),
            dynamics=schedule if mode == "sync" else None,
        )
        plans = []
        plan_round = comdml.plan_round

        def recording_plan_round(round_index, participants):
            plan = plan_round(round_index, participants)
            plans.append(weakref.ref(plan))
            return plan

        comdml.plan_round = recording_plan_round
        gc.disable()
        try:
            comdml.run_round(0)
            assert plans[0]() is None
        finally:
            gc.enable()
