"""Gossip Learning's exchange against its per-pair reference.

``tests/gossip_reference.py`` keeps the round as it ran when every
participant asked ``can_communicate`` of every other one.  The property
prices the same rounds both ways on two trainers with equal seeds: the
timing triples and the ``_method_rng`` states must match exactly.  The
count tests pin how many link checks a round makes.
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
from repro.models.resnet import resnet56_spec
from repro.network.link import LinkModel
from repro.network.topology import (
    full_topology,
    random_k_topology,
    random_topology,
    ring_topology,
)
from strategies import DETERMINISM_SETTINGS


class SparseHalvedLinks(LinkModel):
    """Custom link semantics: a third of the linked pairs never talk, and
    the others get half the default bandwidth."""

    def can_communicate(self, agent_a, agent_b):
        return (agent_a.agent_id + agent_b.agent_id) % 3 != 0 and super().can_communicate(
            agent_a, agent_b
        )

    def bandwidth(self, agent_a, agent_b):
        return 0.5 * super().bandwidth(agent_a, agent_b)


def _topology(kind: str, ids: list[int], seed: int):
    rng = np.random.default_rng(seed)
    if kind == "ring":
        return ring_topology(ids)
    if kind == "random-k":
        return random_k_topology(ids, 3, rng)
    if kind == "random":
        return random_topology(ids, 0.4, rng)
    return full_topology(ids)


def _trainer(registry, topology, seed: int, custom_links: bool) -> GossipLearning:
    trainer = GossipLearning(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(offload_granularity=9, seed=seed),
        topology=topology,
    )
    if custom_links:
        trainer.link_model = SparseHalvedLinks(topology)
    return trainer


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
    custom_links=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_round_timing_matches_the_per_pair_reference(
    population, topology_kind, participation, absent, custom_links, seed
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
    fast = _trainer(registry, topology, seed, custom_links)
    reference = _trainer(registry, topology, seed, custom_links)
    for _ in range(3):
        participants = registry.sample_participants(participation, sampler)
        assert fast.round_timing(participants) == round_timing_reference(
            reference, participants
        )
        assert (
            fast._method_rng.bit_generator.state
            == reference._method_rng.bit_generator.state
        )


RING_AGENTS = 2_000


def _ring_trainer(link_model_class=None) -> GossipLearning:
    registry = AgentRegistry.build(
        num_agents=RING_AGENTS, rng=np.random.default_rng(0), samples_per_agent=100
    )
    trainer = GossipLearning(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(offload_granularity=9, seed=1),
        topology=ring_topology(registry.ids),
    )
    if link_model_class is not None:
        trainer.link_model = link_model_class(trainer.topology)
    return trainer


def test_default_links_round_on_a_ring_makes_no_pairwise_calls(monkeypatch):
    """The default link semantics are read from the adjacency and the
    access links: no ``can_communicate``, ``bandwidth`` or edge query per
    pair (the all-pairs scan made n·(n−1) ≈ 4M calls here)."""
    calls = {"link": 0}
    trainer = _ring_trainer()
    originals = {
        (LinkModel, "can_communicate"): LinkModel.can_communicate,
        (LinkModel, "bandwidth"): LinkModel.bandwidth,
    }
    for (owner, name), original in originals.items():

        def counting(*args, _original=original, **kwargs):
            calls["link"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    total, _, communication = trainer.round_timing(trainer.registry.agents)
    assert calls["link"] <= RING_AGENTS
    assert communication > 0 and total > communication


def test_custom_links_round_on_a_ring_checks_only_linked_pairs():
    """A link model that overrides ``can_communicate`` is asked only about
    the pairs the ring links (two per participant), plus once inside
    ``bandwidth`` for each participant's chosen peer."""
    calls = {"can_communicate": 0}

    class CountingLinks(LinkModel):
        def can_communicate(self, agent_a, agent_b):
            calls["can_communicate"] += 1
            return super().can_communicate(agent_a, agent_b)

    trainer = _ring_trainer(CountingLinks)
    trainer.round_timing(trainer.registry.agents)
    assert calls["can_communicate"] <= 3 * RING_AGENTS
