"""Tests for the greedy decentralized pairing scheduler (Algorithm 1)."""

import pytest

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.pairing import greedy_pairing, pairing_makespan
from repro.core.workload import individual_training_time
from repro.network.link import LinkModel
from repro.network.topology import full_topology, ring_topology


class TestGreedyPairing:
    def test_each_agent_used_at_most_once(self, small_registry, small_link_model, resnet56_profile):
        decisions = greedy_pairing(
            small_registry.agents, small_link_model, resnet56_profile
        )
        used = []
        for decision in decisions:
            used.append(decision.slow_id)
            if decision.fast_id is not None:
                used.append(decision.fast_id)
        assert len(used) == len(set(used))
        assert sorted(used) == sorted(small_registry.ids)

    def test_pairing_never_worse_than_solo(self, small_registry, small_link_model, resnet56_profile):
        decisions = greedy_pairing(
            small_registry.agents, small_link_model, resnet56_profile
        )
        for decision in decisions:
            solo = individual_training_time(
                small_registry.get(decision.slow_id), resnet56_profile, 100
            )
            assert decision.estimate.pair_time <= solo + 1e-9

    def test_makespan_not_worse_than_unbalanced(self, small_registry, small_link_model, resnet56_profile):
        decisions = greedy_pairing(
            small_registry.agents, small_link_model, resnet56_profile
        )
        unbalanced = max(
            individual_training_time(agent, resnet56_profile, 100)
            for agent in small_registry.agents
        )
        assert pairing_makespan(decisions) <= unbalanced + 1e-9

    def test_heterogeneous_population_forms_pairs(self, small_registry, small_link_model, resnet56_profile):
        decisions = greedy_pairing(
            small_registry.agents, small_link_model, resnet56_profile
        )
        assert any(decision.is_offloading for decision in decisions)

    def test_slowest_agent_is_paired_first(self, small_registry, small_link_model, resnet56_profile):
        decisions = greedy_pairing(
            small_registry.agents, small_link_model, resnet56_profile
        )
        slowest = max(
            small_registry.agents,
            key=lambda agent: individual_training_time(agent, resnet56_profile, 100),
        )
        slowest_decision = next(d for d in decisions if d.slow_id == slowest.agent_id)
        assert slowest_decision.is_offloading

    def test_homogeneous_population_trains_solo(self, resnet56_profile):
        agents = [
            Agent(i, ResourceProfile(1.0, 10.0), num_samples=500, batch_size=100)
            for i in range(4)
        ]
        link_model = LinkModel(full_topology(range(4)))
        decisions = greedy_pairing(agents, link_model, resnet56_profile)
        assert all(not decision.is_offloading for decision in decisions)

    def test_disconnected_agents_cannot_pair(self, resnet56_profile):
        agents = [
            Agent(0, ResourceProfile(0.2, 0.0), num_samples=500, batch_size=100),
            Agent(1, ResourceProfile(4.0, 100.0), num_samples=500, batch_size=100),
        ]
        link_model = LinkModel(full_topology(range(2)))
        decisions = greedy_pairing(agents, link_model, resnet56_profile)
        assert all(not decision.is_offloading for decision in decisions)

    def test_topology_restricts_pairing(self, resnet56_profile):
        # Slow agent 0 is only connected to the equally slow agent 1 in a
        # ring, so it cannot reach the fast agent 2.
        agents = [
            Agent(0, ResourceProfile(0.2, 50.0), num_samples=500, batch_size=100),
            Agent(1, ResourceProfile(0.2, 50.0), num_samples=500, batch_size=100),
            Agent(2, ResourceProfile(4.0, 100.0), num_samples=500, batch_size=100),
            Agent(3, ResourceProfile(4.0, 100.0), num_samples=500, batch_size=100),
        ]
        ring = LinkModel(ring_topology([0, 1, 2, 3]))
        full = LinkModel(full_topology([0, 1, 2, 3]))
        ring_decisions = greedy_pairing(agents, ring, resnet56_profile)
        full_decisions = greedy_pairing(agents, full, resnet56_profile)
        assert pairing_makespan(full_decisions) <= pairing_makespan(ring_decisions) + 1e-9

    def test_empty_participant_list(self, small_link_model, resnet56_profile):
        assert greedy_pairing([], small_link_model, resnet56_profile) == []
        assert pairing_makespan([]) == 0.0
