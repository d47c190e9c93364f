"""Tests for the scalable round planner (`repro.core.planner`).

Two contracts are enforced.  First, *exactness under full candidate
budget*: with ``k ≥ n − 1`` the pruned planner must be decision-identical
to the dense kernel and the scalar oracle for any population and topology.
Second, *incremental soundness*: replaying dynamics events against a
persistent planner must yield the same plan a from-scratch planner would
produce, while recomputing only the dirtied rows (the O(d·k·s) bound,
checked through the planner's operation counters).
"""

from __future__ import annotations

import dataclasses

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.fastpath import agent_attrs, agent_vectors_from_attrs
from repro.core.pairing import PairingPlan, greedy_pairing, greedy_pairing_reference
from repro.core.planner import PrunedPlanner
from repro.core.profiling import profile_architecture
from repro.core.scheduler import DecentralizedPairingScheduler
from repro.core.workload import individual_training_time
from repro.models.resnet import resnet56_spec
from repro.network.link import LinkModel
from repro.network.topology import (
    full_topology,
    random_k_topology,
    random_topology,
    ring_topology,
)
from strategies import DETERMINISM_SETTINGS

PROFILE = profile_architecture(resnet56_spec(), granularity=9)

AGENT_STRATEGY = st.tuples(
    st.sampled_from([4.0, 2.0, 1.0, 0.5, 0.2, 0.7]),          # cpu share
    st.sampled_from([0.0, 10.0, 20.0, 50.0, 100.0]),          # bandwidth (0 = offline)
    st.integers(min_value=0, max_value=3_000),                # samples
    st.sampled_from([50, 100, 128]),                          # batch size
)

TOPOLOGY_KINDS = ("full", "ring", "random", "random-k")


def _build_agents(population) -> list[Agent]:
    return [
        Agent(
            agent_id=index,
            profile=ResourceProfile(cpu, bandwidth),
            num_samples=samples,
            batch_size=batch,
        )
        for index, (cpu, bandwidth, samples, batch) in enumerate(population)
    ]


def _link_model(agents, topology_kind: str, seed: int) -> LinkModel:
    ids = [agent.agent_id for agent in agents]
    if topology_kind == "ring":
        return LinkModel(ring_topology(ids))
    if topology_kind == "random":
        return LinkModel(random_topology(ids, 0.4, np.random.default_rng(seed)))
    if topology_kind == "random-k":
        return LinkModel(random_k_topology(ids, 3, np.random.default_rng(seed)))
    return LinkModel(full_topology(ids))


def _full_budget_planner(agents, link_model, **kwargs) -> PrunedPlanner:
    """A planner whose candidate budget covers every possible peer."""
    return PrunedPlanner(
        PROFILE, link_model, top_k=max(len(agents) - 1, 1), **kwargs
    )


# ----------------------------------------------------------------------
# Exactness: pruned ≡ dense ≡ scalar at full budget
# ----------------------------------------------------------------------
class TestPrunedDenseEquivalence:
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=1, max_size=12),
        topology_kind=st.sampled_from(TOPOLOGY_KINDS),
        threshold=st.sampled_from([0.0, 0.2, 0.95]),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_three_way_decision_identity(
        self, population, topology_kind, threshold, seed
    ):
        agents = _build_agents(population)
        link_model = _link_model(agents, topology_kind, seed)
        planner = _full_budget_planner(
            agents, link_model, improvement_threshold=threshold
        )
        pruned = list(planner.plan(agents))
        dense = greedy_pairing(
            agents, link_model, PROFILE, improvement_threshold=threshold
        )
        scalar = greedy_pairing_reference(
            agents, link_model, PROFILE, improvement_threshold=threshold
        )
        assert pruned == dense == scalar

    @given(
        population=st.lists(AGENT_STRATEGY, min_size=2, max_size=10),
        batch_size=st.sampled_from([25, 100, 200]),
    )
    @settings(max_examples=30, deadline=None)
    def test_identity_with_batch_override(self, population, batch_size):
        agents = _build_agents(population)
        link_model = _link_model(agents, "full", 0)
        planner = _full_budget_planner(agents, link_model, batch_size=batch_size)
        pruned = list(planner.plan(agents))
        assert pruned == greedy_pairing(
            agents, link_model, PROFILE, batch_size=batch_size
        )

    def test_broadcast_times_match_scalar_oracle(self):
        """The τ̂ list the planner orders and prices by is the scalar one."""
        agents = _build_agents([(0.5, 50.0, 1_000, 100), (2.0, 50.0, 500, 100)])
        vectors = agent_vectors_from_attrs(agent_attrs(agents), PROFILE)
        for agent, tau in zip(agents, vectors.individual_times.tolist()):
            assert tau == individual_training_time(agent, PROFILE, agent.batch_size)

    @given(
        population=st.lists(AGENT_STRATEGY, min_size=6, max_size=14),
        topology_kind=st.sampled_from(TOPOLOGY_KINDS),
        top_k=st.sampled_from([1, 2, 3]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_budget_plans_are_well_formed(
        self, population, topology_kind, top_k, seed
    ):
        """Pruning may change pairings but never the plan's invariants."""
        agents = _build_agents(population)
        link_model = _link_model(agents, topology_kind, seed)
        planner = PrunedPlanner(PROFILE, link_model, top_k=top_k)
        decisions = planner.plan(agents)
        covered: list[int] = []
        for decision in decisions:
            covered.append(decision.slow_id)
            if decision.fast_id is not None:
                covered.append(decision.fast_id)
                # A formed pair must beat the slow agent training alone.
                slow = agents[decision.slow_id]
                assert decision.estimate.pair_time < individual_training_time(
                    slow, PROFILE, slow.batch_size
                )
                assert decision.offloaded_layers > 0
        assert sorted(covered) == [agent.agent_id for agent in agents]

    def test_complete_graph_pool_restricts_candidates(self):
        """On a complete graph the planner prunes through a shared global
        top-(k+1) τ̂ pool: every helper it picks must come from it."""
        rng = np.random.default_rng(3)
        population = [
            (
                float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                50.0,
                int(rng.integers(200, 3_000)),
                100,
            )
            for _ in range(30)
        ]
        agents = _build_agents(population)
        full = LinkModel(full_topology([a.agent_id for a in agents]))
        top_k = 5
        planner = PrunedPlanner(PROFILE, full, top_k=top_k)
        decisions = planner.plan(agents)
        tau_of = {
            agent.agent_id: individual_training_time(agent, PROFILE, agent.batch_size)
            for agent in agents
        }
        pool_cutoff = sorted(tau_of.values())[top_k]
        paired = [d for d in decisions if d.fast_id is not None]
        assert paired  # heterogeneous speeds must produce offloading
        for decision in paired:
            assert tau_of[decision.fast_id] <= pool_cutoff


# ----------------------------------------------------------------------
# Incremental replanning
# ----------------------------------------------------------------------
EVENT_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from(["churn", "arrive", "depart", "none"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=6,
)


class TestIncrementalReplanning:
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=5, max_size=14),
        events=EVENT_STRATEGY,
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_replayed_dynamics_match_from_scratch_plans(
        self, population, events, seed
    ):
        agents = _build_agents(population)
        link_model = _link_model(agents, "random", seed)
        planner = _full_budget_planner(agents, link_model)
        planner.plan(agents)
        rng = np.random.default_rng(seed)
        next_id = len(agents)
        for kind, value in events:
            if kind == "churn" and agents:
                victim = agents[value % len(agents)]
                victim.update_profile(
                    ResourceProfile(
                        float(rng.choice([4.0, 2.0, 1.0, 0.5, 0.2])),
                        float(rng.choice([0.0, 10.0, 50.0, 100.0])),
                    )
                )
            elif kind == "arrive":
                newcomer = Agent(
                    agent_id=next_id,
                    profile=ResourceProfile(2.0, 50.0),
                    num_samples=1_000,
                    batch_size=100,
                )
                next_id += 1
                agents.append(newcomer)
                link_model.topology.add_agent(newcomer.agent_id)
                planner.invalidate_topology([newcomer.agent_id])
            elif kind == "depart" and len(agents) > 2:
                gone = agents.pop(value % len(agents))
                link_model.topology.remove_agent(gone.agent_id)
                planner.invalidate_topology([gone.agent_id])
            # Full budget must follow the population as it grows.
            planner.top_k = max(len(agents) - 1, 1)
            incremental = list(planner.plan(agents))
            fresh = list(_full_budget_planner(agents, link_model).plan(agents))
            assert incremental == fresh

    def test_unchanged_round_recomputes_nothing(self):
        agents = _build_agents([(0.5, 50.0, 1_000, 100)] * 4 + [(4.0, 100.0, 500, 50)])
        link_model = _link_model(agents, "random", 1)
        planner = _full_budget_planner(agents, link_model)
        first = list(planner.plan(agents))
        second = list(planner.plan(agents))
        assert second == first
        assert planner.stats.last_rows_recomputed == 0
        assert planner.stats.last_pairs_evaluated == 0
        assert planner.stats.last_rows_reused == len(agents)

    def test_operation_count_is_bounded_by_dirty_rows(self):
        """A round with d changed agents costs O(d·k·s), not O(n·k·s)."""
        rng = np.random.default_rng(7)
        population = [
            (
                float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                float(rng.choice([10.0, 50.0, 100.0])),
                int(rng.integers(200, 3_000)),
                100,
            )
            for _ in range(40)
        ]
        agents = _build_agents(population)
        link_model = _link_model(agents, "random-k", 11)
        top_k = 4
        planner = PrunedPlanner(PROFILE, link_model, top_k=top_k)
        planner.plan(agents)

        changed = [agents[3], agents[21], agents[33]]
        for victim in changed:
            victim.update_profile(
                ResourceProfile(
                    victim.profile.cpu_share * 2.0, victim.profile.bandwidth_mbps
                )
            )
        planner.plan(agents)

        # Dirty closure: each changed agent's own row and its topology
        # neighborhood (its profile feeds their candidate blocks).
        dirty_ids = {victim.agent_id for victim in changed}
        affected = set(dirty_ids)
        for agent_id in dirty_ids:
            affected.update(link_model.topology.neighbors(agent_id))
        assert planner.stats.last_rows_recomputed == len(affected)
        assert planner.stats.last_rows_recomputed < len(agents)
        assert (
            planner.stats.last_pairs_evaluated
            <= planner.stats.last_rows_recomputed * top_k * PROFILE.num_options
        )

    def test_complete_graph_replan_skips_neighbor_walk(self):
        """A new participant subset on a complete graph dirties every row at
        once instead of walking n neighbours per dirty or departed agent."""
        rng = np.random.default_rng(5)
        population = [
            (
                float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                float(rng.choice([10.0, 50.0, 100.0])),
                int(rng.integers(200, 3_000)),
                100,
            )
            for _ in range(450)
        ]
        agents = _build_agents(population)
        link_model = _link_model(agents, "full", 0)
        graph = link_model.topology.graph
        order = rng.permutation(len(agents))
        planner = PrunedPlanner(PROFILE, link_model, top_k=8)
        planner.plan([agents[i] for i in sorted(order[:300])])

        participants = [agents[i] for i in sorted(order[150:])]
        walked = []
        original_neighbors = graph.neighbors

        def counting_neighbors(node):
            walked.append(node)
            return original_neighbors(node)

        graph.neighbors = counting_neighbors
        try:
            decisions = planner.plan(participants)
        finally:
            del graph.neighbors
        assert walked == []
        assert planner.stats.last_rows_recomputed == len(participants)
        fresh = PrunedPlanner(PROFILE, link_model, top_k=8)
        assert list(decisions) == list(fresh.plan(participants))

    def test_complete_graph_departure_matches_fresh_plan(self):
        """A departure can change the shared candidate pool of a complete
        graph even for rows whose cached candidates never named it."""
        cpu_shares = [0.5, 2.0, 0.5, 0.5, 0.5, 4.0, 0.5, 4.0, 0.5, 4.0]
        agents = _build_agents([(cpu, 50.0, 1_000, 100) for cpu in cpu_shares])
        link_model = _link_model(agents, "full", 0)
        planner = PrunedPlanner(PROFILE, link_model, top_k=2)
        planner.plan(agents)
        gone = agents.pop(9)
        link_model.topology.remove_agent(gone.agent_id)
        planner.invalidate_topology([gone.agent_id])
        fresh = PrunedPlanner(PROFILE, link_model, top_k=2)
        assert list(planner.plan(agents)) == list(fresh.plan(agents))

    def test_invalidate_all_forces_full_rebuild(self):
        agents = _build_agents([(0.5, 50.0, 1_000, 100)] * 5)
        link_model = _link_model(agents, "full", 0)
        planner = _full_budget_planner(agents, link_model)
        planner.plan(agents)
        rebuilds = planner.stats.full_rebuilds
        planner.invalidate_all()
        planner.plan(agents)
        assert planner.stats.full_rebuilds == rebuilds + 1

    def test_departure_without_invalidate_still_matches(self):
        """Membership diffing alone (no explicit event) must stay sound."""
        agents = _build_agents(
            [(0.5, 50.0, 1_000, 100), (4.0, 100.0, 500, 50), (1.0, 20.0, 800, 100)]
        )
        link_model = _link_model(agents, "full", 0)
        planner = _full_budget_planner(agents, link_model)
        planner.plan(agents)
        agents.pop(1)
        incremental = list(planner.plan(agents))
        fresh = list(_full_budget_planner(agents, link_model).plan(agents))
        assert incremental == fresh

    def test_reordered_participants_match_fresh_plan(self):
        """Candidate order follows participant positions, so a new order of
        the same participants re-costs every row."""
        cpu_shares = [0.5, 4.0, 0.5, 4.0, 0.5, 4.0, 0.5, 4.0]
        agents = _build_agents([(cpu, 50.0, 1_000, 100) for cpu in cpu_shares])
        link_model = _link_model(agents, "ring", 0)
        planner = PrunedPlanner(PROFILE, link_model, top_k=2)
        planner.plan(agents)
        reordered = agents[::-1]
        fresh = PrunedPlanner(PROFILE, link_model, top_k=2)
        assert list(planner.plan(reordered)) == list(fresh.plan(reordered))
        assert planner.stats.last_rows_recomputed == len(agents)


# ----------------------------------------------------------------------
# Invalidation by cause: incremental ≡ fresh at a fixed candidate budget
# ----------------------------------------------------------------------
class HalvedLinks(LinkModel):
    """A custom link model (half the default bandwidth): the per-pair path."""

    def bandwidth(self, agent_a, agent_b):
        return 0.5 * super().bandwidth(agent_a, agent_b)


DYNAMICS_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(
            ["churn", "arrive", "arrive-full", "ring-splice", "depart", "rewire"]
        ),
        st.integers(min_value=0, max_value=2**31 - 1),  # event seed
        st.booleans(),  # call invalidate_topology with the touched id
        st.booleans(),  # plan a random subset instead of every agent
    ),
    min_size=1,
    max_size=8,
)


def _random_agent(agent_id: int, rng: np.random.Generator) -> Agent:
    return Agent(
        agent_id=agent_id,
        profile=ResourceProfile(
            float(rng.choice([4.0, 2.0, 1.0, 0.5, 0.2])),
            float(rng.choice([0.0, 10.0, 50.0, 100.0])),
        ),
        num_samples=int(rng.integers(0, 3_000)),
        batch_size=int(rng.choice([50, 100, 128])),
    )


def _apply_dynamics(topology, agents: dict, next_id: int, kind: str, rng) -> tuple:
    """One dynamics event; returns ``(next_id, touched id)``."""
    nodes = sorted(topology.nodes)
    if kind == "churn":
        victim = agents[int(rng.choice(sorted(agents)))]
        victim.update_profile(
            ResourceProfile(
                float(rng.choice([4.0, 2.0, 1.0, 0.5, 0.2])),
                float(rng.choice([0.0, 10.0, 50.0, 100.0])),
            )
        )
        return next_id, victim.agent_id
    if kind in ("arrive", "arrive-full", "ring-splice"):
        if kind == "arrive":
            count = int(rng.integers(1, min(3, len(nodes)) + 1))
            chosen = rng.choice(len(nodes), size=count, replace=False)
            topology.add_agent(next_id, [nodes[int(index)] for index in chosen])
        elif kind == "arrive-full":
            topology.add_agent(next_id, None)
        else:
            topology.attach_agent(next_id, policy="ring")
        agents[next_id] = _random_agent(next_id, rng)
        return next_id + 1, next_id
    target = nodes[int(rng.integers(len(nodes)))]
    if kind == "depart" and len(agents) > 2:
        topology.remove_agent(target)
        del agents[target]
        return next_id, target
    # Rewire: remove and re-add the same id with fresh neighbours.
    others = [node for node in nodes if node != target]
    count = int(rng.integers(1, min(3, len(others)) + 1))
    chosen = rng.choice(len(others), size=count, replace=False)
    topology.remove_agent(target)
    topology.add_agent(target, [others[int(index)] for index in chosen])
    return next_id, target


def _assert_same_plan(plan, expected) -> None:
    for field in dataclasses.fields(PairingPlan):
        np.testing.assert_array_equal(
            getattr(plan, field.name), getattr(expected, field.name), field.name
        )


class TestInvalidationByCause:
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=4, max_size=12),
        topology_kind=st.sampled_from(["full", "ring", "random-k"]),
        top_k=st.sampled_from([2, 3, 5, 64]),
        custom_links=st.booleans(),
        events=DYNAMICS_EVENTS,
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=300, deadline=None)
    def test_incremental_plans_match_fresh_plans_at_a_fixed_top_k(
        self, population, topology_kind, top_k, custom_links, events, seed
    ):
        """Every event, with or without ``invalidate_topology``, over every
        participants or a random subset: all eight plan columns equal a
        fresh planner's."""
        initial = _build_agents(population)
        link_model = _link_model(initial, topology_kind, seed)
        if custom_links:
            link_model = HalvedLinks(link_model.topology)
        topology = link_model.topology
        agents = {agent.agent_id: agent for agent in initial}
        planner = PrunedPlanner(PROFILE, link_model, top_k=top_k)
        planner.plan(initial)
        next_id = len(initial)
        for kind, event_seed, invalidate, subset in events:
            rng = np.random.default_rng(event_seed)
            next_id, touched = _apply_dynamics(topology, agents, next_id, kind, rng)
            if invalidate:
                planner.invalidate_topology([touched])
            participants = list(agents.values())
            if subset:
                keep = rng.random(len(participants)) < 0.6
                participants = [a for a, kept in zip(participants, keep) if kept]
            fresh = PrunedPlanner(PROFILE, link_model, top_k=top_k)
            _assert_same_plan(planner.plan(participants), fresh.plan(participants))

    def test_complete_graph_pool_is_every_rows_top_k(self):
        """Pool rows cached on a complete graph stay exact once an arrival
        makes the graph incomplete."""
        agents = _build_agents(
            [(cpu, 50.0, 1_000, 100) for cpu in (4.0, 0.5, 4.0, 0.5)]
        )
        link_model = _link_model(agents, "full", 0)
        planner = PrunedPlanner(PROFILE, link_model, top_k=2)
        planner.plan(agents)
        agents += _build_agents([(1.0, 50.0, 1_000, 100)] * 5)[4:]
        link_model.topology.add_agent(4, [0])
        planner.invalidate_topology([4])
        incremental = planner.plan(agents)
        fresh = PrunedPlanner(PROFILE, link_model, top_k=2).plan(agents)
        _assert_same_plan(incremental, fresh)
        pairs = {(d.slow_id, d.fast_id) for d in incremental if d.fast_id is not None}
        assert pairs == {(1, 0), (3, 2)}

    def test_custom_links_drop_a_link_removed_next_to_an_unsampled_agent(self):
        """A ring splice removes edge 0–5; the newcomer is not sampled, but
        the journal still re-costs rows 0 and 5."""
        cpu_shares = [0.5, 0.5, 0.5, 0.5, 0.5, 4.0]
        agents = _build_agents([(cpu, 50.0, 1_000, 100) for cpu in cpu_shares])
        link_model = HalvedLinks(ring_topology([agent.agent_id for agent in agents]))
        planner = PrunedPlanner(PROFILE, link_model, top_k=3)
        planner.plan(agents)
        link_model.topology.attach_agent(6, policy="ring")
        planner.invalidate_topology([6])
        incremental = planner.plan(agents)
        fresh = PrunedPlanner(PROFILE, link_model, top_k=3).plan(agents)
        _assert_same_plan(incremental, fresh)
        helpers = {d.slow_id: d.fast_id for d in incremental}
        assert helpers[0] is None
        assert helpers[4] == 5

    def test_churn_in_a_round_with_a_departure_matches_fresh_plan(self):
        """A retained participant's changed signature still seeds its row
        when the participant set changed too."""
        agents = _build_agents([(cpu, 50.0, 1_000, 100) for cpu in [0.5, 4.0] * 5])
        link_model = _link_model(agents, "ring", 0)
        planner = PrunedPlanner(PROFILE, link_model, top_k=2)
        planner.plan(agents)
        agents[3].update_profile(ResourceProfile(0.2, 50.0))
        participants = agents[:-1]
        fresh = PrunedPlanner(PROFILE, link_model, top_k=2)
        _assert_same_plan(planner.plan(participants), fresh.plan(participants))

    def test_tombstones_compact_and_rows_grow_exactly(self):
        """A third of a ring leaves (the tombstones compact, moving the
        clean rows' candidate references), then it comes back (the rows
        grow): both plans equal fresh ones."""
        rng = np.random.default_rng(4)
        agents = [_random_agent(agent_id, rng) for agent_id in range(300)]
        link_model = _link_model(agents, "ring", 0)
        planner = PrunedPlanner(PROFILE, link_model, top_k=4)
        planner.plan(agents)
        for participants in (agents[100:], agents):
            before = planner.state.scan_times
            fresh = PrunedPlanner(PROFILE, link_model, top_k=4)
            _assert_same_plan(planner.plan(participants), fresh.plan(participants))
            assert planner.state.scan_times is not before
            assert planner.state.dead == 0
        assert planner.stats.last_rows_recomputed < len(agents)


class TestCarriedExactBudget:
    """One planner carried through resampled rounds, as a Table III cell
    runs it: every round below the threshold plans at ``k = n − 1``."""

    @hypothesis.seed(20261019)
    @DETERMINISM_SETTINGS
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=8, max_size=16),
        topology_kind=st.sampled_from(["full", "ring"]),
        custom_links=st.booleans(),
        small_first=st.booleans(),
        later=st.lists(st.sampled_from([0.3, 1.0]), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_carried_planner_equals_greedy_pairing(
        self, population, topology_kind, custom_links, small_first, later, seed
    ):
        """Each round equals ``greedy_pairing`` on the same participants.

        Participants are resampled every round in the order
        ``sample_participants`` gives, profiles churn between rounds, one
        agent arrives and one departs after the second round, and the
        participant count crosses the threshold (``N − 1`` of ``N``
        agents) in the first two rounds.  On the ring every agent has at
        most two neighbours, so ``top_k = 2`` prunes nothing and a round
        at or above the threshold still equals the dense kernel, while
        its ``k`` differs from the rounds below; on the complete graph
        ``top_k`` covers every peer.
        """
        agents = _build_agents(population)
        registry = AgentRegistry(agents)
        link_model = _link_model(agents, topology_kind, seed)
        if custom_links:
            link_model = HalvedLinks(link_model.topology)
        threshold = len(agents) - 1
        top_k = 2 if topology_kind == "ring" else 64
        planner = PrunedPlanner(
            PROFILE, link_model, top_k=top_k, prune_threshold=threshold
        )
        rng = np.random.default_rng(seed)
        fractions = ([0.3, 1.0] if small_first else [1.0, 0.3]) + later
        sides = set()
        for round_index, fraction in enumerate(fractions):
            if round_index == 2:
                newcomer = _random_agent(len(population), rng)
                registry.add(newcomer)
                link_model.topology.attach_agent(
                    newcomer.agent_id,
                    policy="ring" if topology_kind == "ring" else "full",
                )
                gone = registry.agents[int(rng.integers(len(registry)))]
                registry.remove(gone.agent_id)
                link_model.topology.remove_agent(gone.agent_id)
            for victim in rng.choice(len(registry), size=2, replace=False):
                agent = registry.agents[int(victim)]
                agent.update_profile(
                    ResourceProfile(
                        float(rng.choice([4.0, 2.0, 1.0, 0.5, 0.2])),
                        float(rng.choice([0.0, 10.0, 50.0, 100.0])),
                    )
                )
            participants = registry.sample_participants(fraction, rng)
            n = len(participants)
            plan = planner.plan(participants)
            below = n < threshold
            sides.add(below)
            assert planner.state.k == (n - 1 if below else min(top_k, n - 1))
            assert list(plan) == greedy_pairing(participants, link_model, PROFILE)
        assert sides == {True, False}


class TestRecostCounts:
    """Exact re-cost counts per cause (``top_k`` covers every neighbourhood)."""

    @pytest.fixture
    def planned(self):
        rng = np.random.default_rng(0)
        agents = [_random_agent(agent_id, rng) for agent_id in range(300)]
        for agent in agents:
            agent.update_profile(ResourceProfile(agent.profile.cpu_share, 50.0))
        topology = random_k_topology(list(range(300)), 3, np.random.default_rng(0))
        planner = PrunedPlanner(PROFILE, LinkModel(topology), top_k=32)
        planner.plan(agents)
        return planner, topology, agents

    def test_arrival_recosts_itself_and_its_neighbours(self, planned):
        planner, topology, agents = planned
        topology.add_agent(300, [3, 141, 277])
        agents.append(_random_agent(300, np.random.default_rng(1)))
        planner.plan(agents)
        assert planner.stats.last_rows_recomputed == 4

    def test_departure_recosts_the_rows_that_listed_it(self, planned):
        planner, topology, agents = planned
        gone = next(a for a in agents if topology.degree(a.agent_id) == 8)
        topology.remove_agent(gone.agent_id)
        agents.remove(gone)
        planner.plan(agents)
        assert planner.stats.last_rows_recomputed == 8

    def test_churn_recosts_its_row_and_its_neighbours(self, planned):
        planner, topology, agents = planned
        victim = next(a for a in agents if topology.degree(a.agent_id) == 5)
        victim.update_profile(ResourceProfile(victim.profile.cpu_share * 2.0, 50.0))
        planner.plan(agents)
        assert planner.stats.last_rows_recomputed == 6

    def test_rows_stay_in_place_across_an_arrival_and_a_departure(self, planned):
        planner, topology, agents = planned
        state = planner.state
        arrays = (state.scan_times, state.scan_rows, state.scan_split, state.scan_bw)
        topology.add_agent(300, [3, 141, 277])
        agents.append(_random_agent(300, np.random.default_rng(1)))
        planner.plan(agents)
        gone = agents.pop(17)
        topology.remove_agent(gone.agent_id)
        planner.plan(agents)
        assert planner.state is state
        assert all(
            now is before
            for now, before in zip(
                (state.scan_times, state.scan_rows, state.scan_split, state.scan_bw),
                arrays,
            )
        )
        fresh = PrunedPlanner(PROFILE, planner.link_model, top_k=32)
        _assert_same_plan(planner.plan(agents), fresh.plan(agents))


# ----------------------------------------------------------------------
# Selection, configuration, and validation
# ----------------------------------------------------------------------
class TestPlannerSelection:
    def test_small_round_keeps_every_candidate(self, small_registry):
        """Below ``planner_threshold`` the planner plans at the exact budget,
        decision-identical to the scalar oracle."""
        comdml = ComDML(
            small_registry, resnet56_spec(), ComDMLConfig(offload_granularity=9)
        )
        participants = small_registry.agents
        plan = comdml.plan_round(0, participants)
        assert comdml.planner.state.k == len(participants) - 1
        assert list(plan.decisions) == greedy_pairing_reference(
            participants, comdml.link_model, comdml.profile
        )

    def test_round_at_threshold_keeps_top_k(self, small_registry):
        """At or above the threshold a round keeps ``planner_top_k``
        candidates; a round that drops below it starts a fresh state at
        ``k = n − 1``."""
        population = len(small_registry)
        comdml = ComDML(
            small_registry,
            resnet56_spec(),
            ComDMLConfig(
                planner_threshold=population, planner_top_k=2, offload_granularity=9
            ),
        )
        comdml.plan_round(0, small_registry.agents)
        assert comdml.planner.state.k == 2
        rebuilds = comdml.planner.stats.full_rebuilds
        comdml.plan_round(1, small_registry.agents[1:])
        assert comdml.planner.state.k == population - 2
        assert comdml.planner.stats.full_rebuilds == rebuilds + 1

    def test_threshold_one_prunes_at_every_size(self, small_registry):
        comdml = ComDML(
            small_registry,
            resnet56_spec(),
            ComDMLConfig(planner_threshold=1, planner_top_k=2, offload_granularity=9),
        )
        for round_index, count in enumerate((3, len(small_registry))):
            comdml.plan_round(round_index, small_registry.agents[:count])
            assert comdml.planner.state.k == 2
        assert comdml.planner.stats.rounds == 2

    @pytest.mark.parametrize("population", [2, 40, 256])
    def test_comdml_round_builds_no_dense_cost_model(self, population, monkeypatch):
        """Every ComDML round, below the threshold too, plans through the
        pruned planner: the dense ``PairCostModel`` is never built."""
        import repro.core.fastpath as fastpath

        def refuse(*args, **kwargs):
            raise AssertionError("a ComDML round built the dense PairCostModel")

        monkeypatch.setattr(fastpath.PairCostModel, "__init__", refuse)
        registry = AgentRegistry.build(
            num_agents=population, rng=np.random.default_rng(3), samples_per_agent=200
        )
        comdml = ComDML(
            registry, resnet56_spec(), ComDMLConfig(offload_granularity=9, seed=1)
        )
        comdml.plan_round(0, registry.agents)
        assert comdml.planner.stats.rounds == 1

    def test_scheduler_plans_like_greedy_pairing(
        self, small_registry, small_link_model, resnet56_profile
    ):
        """The scheduler's plan equals a direct ``greedy_pairing`` call, with
        the planner it builds for itself and with a full-budget one."""
        expected = greedy_pairing(
            small_registry.agents, small_link_model, resnet56_profile
        )
        planner = PrunedPlanner(
            resnet56_profile,
            small_link_model,
            top_k=len(small_registry.ids) - 1,
        )
        for given_planner in (None, planner):
            scheduler = DecentralizedPairingScheduler(
                registry=small_registry,
                link_model=small_link_model,
                profile=resnet56_profile,
                rng=np.random.default_rng(0),
                planner=given_planner,
            )
            assert list(scheduler.plan_round()) == expected
            assert scheduler.planner.stats.rounds == 1

    @pytest.mark.parametrize(
        "field, value",
        [("planner_top_k", 0), ("planner_top_k", -3), ("planner_threshold", 0)],
    )
    def test_config_rejects_non_positive_planner_sizes(self, field, value):
        with pytest.raises(ValueError):
            ComDMLConfig(**{field: value})

    def test_planner_rejects_invalid_arguments(self):
        agents = _build_agents([(0.5, 50.0, 1_000, 100)] * 2)
        link_model = _link_model(agents, "full", 0)
        with pytest.raises(ValueError):
            PrunedPlanner(PROFILE, link_model, top_k=0)
        with pytest.raises(ValueError):
            PrunedPlanner(PROFILE, link_model, prune_threshold=0)
        with pytest.raises(ValueError):
            PrunedPlanner(PROFILE, link_model, batch_size=0)

    def test_empty_round_plans_empty(self):
        agents = _build_agents([(0.5, 50.0, 1_000, 100)] * 2)
        link_model = _link_model(agents, "full", 0)
        planner = _full_budget_planner(agents, link_model)
        assert list(planner.plan([])) == []


class TestFastDecisionPaths:
    """The ``__dict__``-filled decision views (``PairingPlan``'s and the dense
    kernel's solo decisions) match the dataclasses."""

    def test_fast_decision_paths_match(self):
        import dataclasses

        from repro.core.pairing import PairingDecision, PairingPlan, _solo_decision
        from repro.core.workload import OffloadEstimate

        plain = PairingDecision(
            slow_id=7,
            fast_id=3,
            offloaded_layers=25,
            estimate=OffloadEstimate(
                offloaded_layers=25,
                slow_time=1.5,
                fast_own_time=0.25,
                communication_time=0.125,
                fast_offload_time=0.75,
                pair_time=2.0,
            ),
        )
        plain_solo = PairingDecision(
            slow_id=11,
            fast_id=None,
            offloaded_layers=0,
            estimate=OffloadEstimate(
                offloaded_layers=0,
                slow_time=4.5,
                fast_own_time=0.0,
                communication_time=0.0,
                fast_offload_time=0.0,
                pair_time=4.5,
            ),
        )
        plan = PairingPlan.from_decisions([plain, plain_solo])
        built = (
            list(plan),
            [plan[0], plan[-1]],
            [plan[0], _solo_decision(11, 4.5)],
        )
        for views in built:
            fast, fast_solo = views
            assert fast == plain
            assert hash(fast) == hash(plain)
            assert fast.estimate.fast_chain_time == plain.estimate.fast_chain_time
            assert vars(fast) == vars(plain)
            assert vars(fast.estimate) == vars(plain.estimate)
            assert fast_solo == plain_solo
            assert vars(fast_solo) == vars(plain_solo)
            assert vars(fast_solo.estimate) == vars(plain_solo.estimate)
        # The views cannot silently diverge if the dataclasses grow fields:
        # the wholesale __dict__ fill must cover every field.
        assert set(vars(fast)) == {f.name for f in dataclasses.fields(PairingDecision)}
        assert set(vars(fast.estimate)) == {
            f.name for f in dataclasses.fields(OffloadEstimate)
        }
        with pytest.raises(IndexError):
            plan[2]
