"""Tests for the pairwise link model."""

import pytest

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile
from repro.network.link import LinkModel, pairwise_bandwidth
from repro.network.topology import full_topology, ring_topology


def make_agent(agent_id, bandwidth):
    return Agent(
        agent_id=agent_id,
        profile=ResourceProfile(cpu_share=1.0, bandwidth_mbps=bandwidth),
        num_samples=100,
    )


class TestPairwiseBandwidth:
    def test_limited_by_slower_endpoint(self):
        a, b = make_agent(0, 100.0), make_agent(1, 10.0)
        assert pairwise_bandwidth(a, b) == b.profile.bandwidth_bytes_per_second


class TestLinkModel:
    def test_can_communicate_with_edge(self):
        agents = [make_agent(i, 50.0) for i in range(3)]
        model = LinkModel(full_topology([0, 1, 2]))
        assert model.can_communicate(agents[0], agents[1])

    def test_cannot_communicate_without_edge(self):
        agents = [make_agent(i, 50.0) for i in range(4)]
        model = LinkModel(ring_topology([0, 1, 2, 3]))
        assert not model.can_communicate(agents[0], agents[2])

    def test_cannot_communicate_with_self(self):
        agent = make_agent(0, 50.0)
        model = LinkModel(full_topology([0, 1]))
        assert not model.can_communicate(agent, agent)

    def test_disconnected_agent_cannot_communicate(self):
        a, b = make_agent(0, 0.0), make_agent(1, 50.0)
        model = LinkModel(full_topology([0, 1]))
        assert not model.can_communicate(a, b)
        assert model.bandwidth(a, b) == 0.0

    def test_link_model_cannot_be_subclassed(self):
        """Link semantics are fixed: an override would be priced nowhere."""
        with pytest.raises(TypeError, match="cannot subclass LinkModel"):

            class HalvedLinks(LinkModel):
                def bandwidth(self, agent_a, agent_b):
                    return 0.5 * super().bandwidth(agent_a, agent_b)
