"""Tests for dynamic resource churn."""

import numpy as np
import pytest

from repro.agents.dynamics import ResourceChurn, churn_agent_profiles
from repro.agents.registry import AgentRegistry
from repro.agents.resources import (
    CONNECTED_BANDWIDTH_PROFILES_MBPS,
    CPU_PROFILES,
    ResourceProfile,
)


def churn_with_choice(
    registry,
    agent_ids,
    rng,
    cpu_profiles=CPU_PROFILES,
    bandwidth_profiles=CONNECTED_BANDWIDTH_PROFILES_MBPS,
):
    """``churn_agent_profiles`` as it drew through ``rng.choice``: the oracle."""
    changed = []
    for agent_id in agent_ids:
        if agent_id not in registry:
            continue
        agent = registry.get(agent_id)
        new_profile = ResourceProfile(
            cpu_share=float(rng.choice(cpu_profiles)),
            bandwidth_mbps=float(rng.choice(bandwidth_profiles)),
        )
        agent.update_profile(new_profile)
        changed.append(agent_id)
    return changed


class TestChurnTrigger:
    def test_does_not_trigger_at_round_zero(self):
        assert not ResourceChurn(interval_rounds=100).should_trigger(0)

    def test_triggers_on_interval(self):
        churn = ResourceChurn(interval_rounds=100)
        assert churn.should_trigger(100)
        assert churn.should_trigger(200)
        assert not churn.should_trigger(150)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            ResourceChurn(fraction=1.5)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ResourceChurn(interval_rounds=0)


class TestChurnApplication:
    def test_apply_changes_requested_fraction(self, rng):
        registry = AgentRegistry.build(num_agents=20, rng=rng)
        churn = ResourceChurn(fraction=0.2, interval_rounds=100)
        changed = churn.apply(registry, np.random.default_rng(0))
        assert len(changed) == 4

    def test_apply_changes_profiles(self, rng):
        registry = AgentRegistry.build(num_agents=10, rng=rng)
        before = {agent.agent_id: agent.profile for agent in registry}
        churn = ResourceChurn(fraction=1.0, interval_rounds=100)
        changed = churn.apply(registry, np.random.default_rng(1))
        assert len(changed) == 10
        after = {agent.agent_id: agent.profile for agent in registry}
        # At least some profiles must differ (all re-drawn from the grid).
        assert any(before[i] != after[i] for i in before)

    def test_zero_fraction_changes_nothing(self, rng):
        registry = AgentRegistry.build(num_agents=10, rng=rng)
        churn = ResourceChurn(fraction=0.0, interval_rounds=100)
        assert churn.apply(registry, np.random.default_rng(2)) == []

    def test_maybe_apply_respects_interval(self, rng):
        registry = AgentRegistry.build(num_agents=10, rng=rng)
        churn = ResourceChurn(fraction=0.5, interval_rounds=10)
        assert churn.maybe_apply(5, registry, np.random.default_rng(3)) == []
        assert len(churn.maybe_apply(10, registry, np.random.default_rng(3))) == 5

    def test_new_profiles_remain_connected(self, rng):
        registry = AgentRegistry.build(num_agents=10, rng=rng)
        churn = ResourceChurn(fraction=1.0, interval_rounds=1)
        churn.apply(registry, np.random.default_rng(4))
        assert all(agent.is_connected for agent in registry)


class TestChurnDraws:
    @pytest.mark.parametrize(
        "pools",
        [
            (CPU_PROFILES, CONNECTED_BANDWIDTH_PROFILES_MBPS),
            ((1.0,), (10.0, 20.0)),
            ((4.0, 0.5, 0.2), (0.0, 100.0, 10.0)),
        ],
        ids=["paper", "one-cpu", "custom"],
    )
    def test_draws_what_rng_choice_drew(self, pools):
        cpu_profiles, bandwidth_profiles = pools
        for seed in range(50):
            ids = [3, 17, 0, 3, -1, 11, 5]
            registries, generators, changed = [], [], []
            for churn in (churn_agent_profiles, churn_with_choice):
                registry = AgentRegistry.build(12, np.random.default_rng(seed))
                rng = np.random.default_rng(seed + 1_000)
                changed.append(
                    churn(registry, ids, rng, cpu_profiles, bandwidth_profiles)
                )
                registries.append(registry)
                generators.append(rng)
            assert changed[0] == changed[1] == [3, 0, 3, 11, 5]
            assert [agent.profile for agent in registries[0]] == [
                agent.profile for agent in registries[1]
            ]
            assert (
                generators[0].bit_generator.state == generators[1].bit_generator.state
            )
