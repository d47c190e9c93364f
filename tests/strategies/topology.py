"""Strategies for topology edit sequences.

A sequence is drawn as plain ``(kind, seed)`` tuples and replayed with
:func:`apply_event` against anything with a topology's ``nodes``,
``add_agent`` and ``remove_agent``: a
:class:`~repro.network.topology.Topology`, or the networkx oracle in
``tests/topology_oracle.py``.  The choices depend only on the sorted node
ids and the seed, so both replay the same edits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile

#: Resource palette arriving agents are drawn from.
AGENT_PALETTE = (
    (4.0, 50.0, 1_200, 100),
    (2.0, 20.0, 900, 100),
    (1.0, 100.0, 1_500, 50),
    (0.5, 10.0, 600, 128),
)

EVENT_SEQUENCES = st.lists(
    st.tuples(
        st.sampled_from(["arrive", "depart", "rewire", "splice"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=8,
)


def make_agent(agent_id: int, rng: np.random.Generator) -> Agent:
    """An agent with a palette profile drawn from ``rng``."""
    cpu, bandwidth, samples, batch = AGENT_PALETTE[
        int(rng.integers(len(AGENT_PALETTE)))
    ]
    return Agent(
        agent_id=agent_id,
        profile=ResourceProfile(cpu, bandwidth),
        num_samples=samples,
        batch_size=batch,
    )


def apply_event(
    topology,
    agents: dict[int, Agent],
    next_id: int,
    event: tuple[str, int],
) -> int:
    """Edit the topology as real dynamics do; returns the next free id.

    Rewires are expressed as the runtime expresses them — departure plus
    re-arrival under the same id with a fresh neighbour set — so the
    topology sees node removals, node additions and edge additions
    interleaved, not just clean arrivals.  A splice is a ``"ring"``
    attachment, the one edit that removes a single link.  ``agents``
    gains arrivals and loses departures (rewires keep their agent).
    """
    kind, seed = event
    rng = np.random.default_rng(seed)
    nodes = sorted(topology.nodes)
    if kind == "arrive":
        count = int(rng.integers(1, min(3, len(nodes)) + 1))
        chosen = rng.choice(len(nodes), size=count, replace=False)
        topology.add_agent(next_id, [nodes[int(index)] for index in chosen])
        agents[next_id] = make_agent(next_id, rng)
        return next_id + 1
    if kind == "splice":
        topology.attach_agent(next_id, policy="ring")
        agents[next_id] = make_agent(next_id, rng)
        return next_id + 1
    if kind == "depart" and len(nodes) > 3:
        victim = nodes[int(rng.integers(len(nodes)))]
        topology.remove_agent(victim)
        agents.pop(victim, None)
        return next_id
    # Rewire (also the fallback when the graph is too small to shrink).
    target = nodes[int(rng.integers(len(nodes)))]
    others = [node for node in nodes if node != target]
    count = int(rng.integers(1, min(3, len(others)) + 1))
    chosen = rng.choice(len(others), size=count, replace=False)
    topology.remove_agent(target)
    topology.add_agent(target, [others[int(index)] for index in chosen])
    return next_id
