"""Gossip Learning's exchange against its per-pair reference.

``tests/gossip_reference.py`` keeps the round as it ran when every
participant asked ``can_communicate`` of every other one, priced by the
scalar oracle in ``tests/baseline_reference.py``.  The property prices the
same rounds both ways on two trainers with equal seeds, the trainer
through its ``round_timing`` hook over the participants' columns: the
timing triples and the ``_method_rng`` states must match exactly.  The
count test pins how many link checks a round makes.
"""

from __future__ import annotations

import hypothesis
import numpy as np
from hypothesis import given, strategies as st

from gossip_reference import round_timing_reference
from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import (
    BANDWIDTH_PROFILES_MBPS,
    CPU_PROFILES,
    ResourceProfile,
)
from repro.baselines.gossip import GossipLearning
from repro.core.config import ComDMLConfig
from repro.core.fastpath import agent_attrs, agent_vectors_from_attrs
from repro.models.resnet import resnet56_spec
from repro.network.link import LinkModel
from repro.network.topology import (
    full_topology,
    random_k_topology,
    random_topology,
    ring_topology,
)
from strategies import DETERMINISM_SETTINGS


def _topology(kind: str, ids: list[int], seed: int):
    rng = np.random.default_rng(seed)
    if kind == "ring":
        return ring_topology(ids)
    if kind == "random-k":
        return random_k_topology(ids, 3, rng)
    if kind == "random":
        return random_topology(ids, 0.4, rng)
    return full_topology(ids)


def _round_timing(trainer, participants) -> tuple[float, float, float]:
    """The trainer's ``round_timing`` hook over the participants' columns."""
    attrs = agent_attrs(participants)
    times = agent_vectors_from_attrs(attrs, trainer.profile).individual_times
    return trainer.round_timing(attrs, times)


def _trainer(registry, topology, seed: int) -> GossipLearning:
    return GossipLearning(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(offload_granularity=9, seed=seed),
        topology=topology,
    )


@hypothesis.seed(20261018)
@DETERMINISM_SETTINGS
@given(
    population=st.lists(
        st.tuples(st.sampled_from(CPU_PROFILES), st.sampled_from(BANDWIDTH_PROFILES_MBPS)),
        min_size=1,
        max_size=16,
    ),
    topology_kind=st.sampled_from(["full", "ring", "random-k", "random"]),
    participation=st.sampled_from([1.0, 0.6, 0.3]),
    absent=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_round_timing_matches_the_per_pair_reference(
    population, topology_kind, participation, absent, seed
):
    """Equal triples and equal ``_method_rng`` states over three rounds,
    with disconnected agents (0 Mbps) and participants the topology lacks.

    Agent ids are random and unordered, so participant order is not id
    order and a set of ids does not iterate in participant order.
    """
    sampler = np.random.default_rng(seed)
    ids = sampler.choice(10**6, size=len(population), replace=False).tolist()
    registry = AgentRegistry(
        [
            Agent(agent_id, ResourceProfile(cpu, bandwidth), num_samples=300, batch_size=50)
            for agent_id, (cpu, bandwidth) in zip(ids, population)
        ]
    )
    wired = registry.ids[: max(len(registry) - absent, 0)]
    topology = _topology(topology_kind, wired, seed)
    fast = _trainer(registry, topology, seed)
    reference = _trainer(registry, topology, seed)
    for _ in range(3):
        participants = registry.sample_participants(participation, sampler)
        assert _round_timing(fast, participants) == round_timing_reference(
            reference, participants
        )
        assert (
            fast._method_rng.bit_generator.state
            == reference._method_rng.bit_generator.state
        )


RING_AGENTS = 2_000


def test_default_links_round_on_a_ring_makes_no_pairwise_calls(monkeypatch):
    """The link semantics are read from the adjacency and the access
    links: no ``can_communicate``, ``bandwidth`` or edge query per pair
    (the all-pairs scan made n·(n−1) ≈ 4M calls here)."""
    calls = {"link": 0}
    registry = AgentRegistry.build(
        num_agents=RING_AGENTS, rng=np.random.default_rng(0), samples_per_agent=100
    )
    trainer = _trainer(registry, ring_topology(registry.ids), 1)
    originals = {
        (LinkModel, "can_communicate"): LinkModel.can_communicate,
        (LinkModel, "bandwidth"): LinkModel.bandwidth,
    }
    for (owner, name), original in originals.items():

        def counting(*args, _original=original, **kwargs):
            calls["link"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    total, _, communication = _round_timing(trainer, trainer.registry.agents)
    assert calls["link"] <= RING_AGENTS
    assert communication > 0 and total > communication
