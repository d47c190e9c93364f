"""Pairwise link model.

The effective bandwidth between two agents is limited by the slower of the
two endpoints' access links (a standard access-limited model that matches
the paper's per-agent Mbps profiles), and only exists if the topology has an
edge between them and both agents are connected.  Every message over a link
costs :data:`~repro.sim.costs.DEFAULT_LINK_LATENCY_SECONDS` on top of its
transfer time.

These semantics are fixed.  The planner, the dense kernel
(:func:`~repro.core.fastpath.bandwidth_matrix`) and the baselines compute
them from the topology and the access links without asking
:class:`LinkModel`, so a subclass could not change what a run prices:
subclassing raises :class:`TypeError`.
"""

from __future__ import annotations

from repro.agents.agent import Agent
from repro.network.topology import Topology


def pairwise_bandwidth(agent_a: Agent, agent_b: Agent) -> float:
    """Effective bandwidth (bytes/s) between two agents: min of their access links."""
    return min(
        agent_a.profile.bandwidth_bytes_per_second,
        agent_b.profile.bandwidth_bytes_per_second,
    )


class LinkModel:
    """Answers "can i talk to j, and how fast?" for a given topology."""

    def __init_subclass__(cls, **kwargs) -> None:
        raise TypeError(
            f"{cls.__name__} cannot subclass LinkModel: link semantics are "
            "fixed, and the planner, the dense kernel and the baselines "
            "price links without calling it"
        )

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def can_communicate(self, agent_a: Agent, agent_b: Agent) -> bool:
        """Whether a usable link exists between the two agents."""
        if agent_a.agent_id == agent_b.agent_id:
            return False
        if not (agent_a.is_connected and agent_b.is_connected):
            return False
        return self.topology.are_connected(agent_a.agent_id, agent_b.agent_id)

    def bandwidth(self, agent_a: Agent, agent_b: Agent) -> float:
        """Effective bandwidth in bytes/s (0.0 if no usable link)."""
        if not self.can_communicate(agent_a, agent_b):
            return 0.0
        return pairwise_bandwidth(agent_a, agent_b)
