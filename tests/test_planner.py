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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.fastpath import agent_attrs, agent_vectors_from_attrs
from repro.core.pairing import greedy_pairing, greedy_pairing_reference
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
        previous_cand_ids = planner.state.cand_ids.copy()

        changed = [agents[3], agents[21], agents[33]]
        for victim in changed:
            victim.update_profile(
                ResourceProfile(
                    victim.profile.cpu_share * 2.0, victim.profile.bandwidth_mbps
                )
            )
        planner.plan(agents)

        # Dirty closure: each changed agent's own row, its topology
        # neighborhood (its τ̂ feeds their candidate selection), and any
        # row whose cached block still references it.
        dirty_ids = {victim.agent_id for victim in changed}
        affected = set(dirty_ids)
        for agent_id in dirty_ids:
            affected.update(link_model.topology.neighbors(agent_id))
        referencing = int(
            np.isin(previous_cand_ids, np.array(sorted(dirty_ids))).any(axis=1).sum()
        )
        bound = len(affected) + referencing
        assert 0 < planner.stats.last_rows_recomputed <= bound
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


# ----------------------------------------------------------------------
# Selection, configuration, and validation
# ----------------------------------------------------------------------
class TestPlannerSelection:
    def test_pruned_mode_engages_at_any_size(self, small_registry):
        """``planner_threshold=1`` plans every round with the pruned planner."""
        comdml = ComDML(
            small_registry,
            resnet56_spec(),
            ComDMLConfig(planner_threshold=1, offload_granularity=9),
        )
        assert comdml.planner.engages(1)
        assert comdml.planner.engages(10_000)
        comdml.plan_round(0, small_registry.agents)
        assert comdml.planner.stats.rounds == 1

    def test_auto_mode_engages_at_threshold(self, small_registry):
        """The default threshold keeps small rounds on the dense kernel."""
        comdml = ComDML(
            small_registry, resnet56_spec(), ComDMLConfig(offload_granularity=9)
        )
        assert not comdml.planner.engages(255)
        assert comdml.planner.engages(256)
        comdml.plan_round(0, small_registry.agents)
        assert comdml.planner.stats.rounds == 0

    def test_scheduler_dense_and_engaged_planner_agree(
        self, small_registry, small_link_model, resnet56_profile
    ):
        """The scheduler's planner branch returns the same decisions as its
        dense branch when k covers every peer."""
        dense_scheduler = DecentralizedPairingScheduler(
            registry=small_registry,
            link_model=small_link_model,
            profile=resnet56_profile,
            rng=np.random.default_rng(0),
        )
        planner = PrunedPlanner(
            resnet56_profile,
            small_link_model,
            top_k=len(small_registry.ids) - 1,
        )
        planner_scheduler = DecentralizedPairingScheduler(
            registry=small_registry,
            link_model=small_link_model,
            profile=resnet56_profile,
            rng=np.random.default_rng(0),
            planner=planner,
        )
        assert list(planner_scheduler.plan_round()) == list(dense_scheduler.plan_round())
        assert planner.stats.rounds == 1

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
            PrunedPlanner(PROFILE, link_model, engage_threshold=0)
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
