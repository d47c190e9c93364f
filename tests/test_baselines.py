"""Tests for the baseline training methods."""

import numpy as np
import pytest

from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.baselines import (
    AllReduceDML,
    BrainTorrent,
    FedAvg,
    FedProx,
    GossipLearning,
    baseline_by_name,
)
from repro.core.config import ComDMLConfig
from repro.core.timing import FALLBACK_BANDWIDTH_MBPS, bottleneck_bandwidth
from repro.models.resnet import resnet56_spec
from repro.network.allreduce import halving_doubling_allreduce
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.units import mbps_to_bytes_per_second

ALL_BASELINES = [FedAvg, FedProx, AllReduceDML, GossipLearning, BrainTorrent]


def build(cls, registry, **config_kwargs):
    defaults = dict(max_rounds=5, offload_granularity=9, seed=2)
    defaults.update(config_kwargs)
    return cls(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(**defaults),
    )


class TestBaselineRegistry:
    def test_lookup_by_name(self):
        assert baseline_by_name("FedAvg") is FedAvg
        assert baseline_by_name("gossip learning") is GossipLearning
        assert baseline_by_name("BrainTorrent") is BrainTorrent

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            baseline_by_name("magic")


class TestBaselineRuns:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_runs_produce_history(self, cls, small_registry):
        history = build(cls, small_registry).run()
        assert len(history) == 5
        assert history.total_time > 0
        assert history.method == cls.method_name

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_round_time_bounded_below_by_straggler(self, cls, small_registry, resnet56_profile):
        from repro.core.workload import individual_training_time

        trainer = build(cls, small_registry)
        total, compute, _ = trainer.round_timing(small_registry.agents)
        straggler = max(
            individual_training_time(agent, trainer.profile, 100)
            for agent in small_registry.agents
        )
        assert compute == pytest.approx(straggler)
        assert total >= straggler

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_accuracy_improves(self, cls, small_registry):
        history = build(cls, small_registry, max_rounds=30).run()
        assert history.final_accuracy > history.records[0].accuracy

    def test_empty_participant_round_is_free(self, small_registry):
        trainer = build(AllReduceDML, small_registry)
        assert trainer.round_timing([]) == (0.0, 0.0, 0.0)


class TestBaselineSpecifics:
    def test_fedavg_counts_model_exchange(self, small_registry):
        trainer = build(FedAvg, small_registry)
        agent = small_registry.agents[0]
        total, compute, communication = trainer.agent_round_time(agent)
        assert communication > 0
        assert total == pytest.approx(compute + communication)

    def test_fedprox_has_proximal_parameter(self, small_registry):
        trainer = build(FedProx, small_registry)
        assert trainer.proximal_mu > 0
        with pytest.raises(ValueError):
            FedProx(
                registry=small_registry,
                spec=resnet56_spec(),
                config=ComDMLConfig(max_rounds=2),
                proximal_mu=-1.0,
            )

    def test_braintorrent_aggregation_scales_with_population(self, small_registry, rng):
        from repro.agents.registry import AgentRegistry

        trainer = build(BrainTorrent, small_registry)
        few = trainer.round_timing(small_registry.agents[:2])
        many = trainer.round_timing(small_registry.agents)
        # Aggregation through one aggregator grows with the number of peers.
        assert many[0] - many[1] >= few[0] - few[1]

    def test_gossip_exchange_bounded_by_one_model(self, small_registry):
        trainer = build(GossipLearning, small_registry)
        total, compute, communication = trainer.round_timing(small_registry.agents)
        # One model push over the slowest participating link at most.
        slowest_bandwidth = min(
            agent.profile.bandwidth_bytes_per_second
            for agent in small_registry.agents
            if agent.is_connected
        )
        assert communication <= trainer.model_bytes() / slowest_bandwidth * 1.1 + 1.0

    def test_allreduce_prices_halving_doubling(self, small_registry):
        trainer = build(AllReduceDML, small_registry)
        agents = small_registry.agents
        _, _, communication = trainer.round_timing(agents)
        assert communication == halving_doubling_allreduce(
            trainer.model_bytes(), len(agents), bottleneck_bandwidth(agents)
        ).time_seconds

    def test_disconnected_rounds_price_at_the_fallback_bandwidth(self):
        """With no participant connected, AllReduce and BrainTorrent both
        aggregate at ``FALLBACK_BANDWIDTH_MBPS``."""
        registry = AgentRegistry.build(
            num_agents=4,
            rng=np.random.default_rng(0),
            profiles=[ResourceProfile(cpu, 0.0) for cpu in (2.0, 1.0, 0.5, 0.2)],
        )
        agents = registry.agents
        fallback = mbps_to_bytes_per_second(FALLBACK_BANDWIDTH_MBPS)

        allreduce = build(AllReduceDML, registry)
        _, _, communication = allreduce.round_timing(agents)
        assert communication == halving_doubling_allreduce(
            allreduce.model_bytes(), len(agents), fallback
        ).time_seconds

        braintorrent = build(BrainTorrent, registry)
        _, _, communication = braintorrent.round_timing(agents)
        per_transfer = DEFAULT_LINK_LATENCY_SECONDS + braintorrent.model_bytes() / fallback
        assert communication == 2.0 * (len(agents) - 1) * per_transfer

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_no_pairs_reported(self, cls, small_registry):
        history = build(cls, small_registry, max_rounds=2).run()
        assert all(record.num_pairs == 0 for record in history.records)
