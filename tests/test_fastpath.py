"""Tests for the vectorized round-planning kernel (`repro.core.fastpath`).

The contract under test is *exact* equality with the scalar oracle: the
kernel must return bit-identical ``PairingDecision`` lists (split index,
helper id, and every float of the backing estimate) for any population,
profile, and bandwidth structure.
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
from repro.core.fastpath import PairCostModel, bandwidth_matrix
from repro.core.pairing import greedy_pairing, greedy_pairing_reference
from repro.core.planner import PrunedPlanner
from repro.core.profiling import profile_architecture
from repro.core.workload import (
    _pair_partitions,
    best_offload,
    exact_min_makespan,
    individual_training_time,
)
from repro.models.resnet import resnet56_spec
from repro.models.spec import ArchitectureSpec, LayerCost
from repro.network.link import LinkModel, pairwise_bandwidth
from repro.network.topology import full_topology, random_topology, ring_topology
from strategies import DETERMINISM_SETTINGS

RESNET56 = resnet56_spec()
PROFILE = profile_architecture(RESNET56, granularity=9)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
AGENT_STRATEGY = st.tuples(
    st.sampled_from([4.0, 2.0, 1.0, 0.5, 0.2, 0.7]),          # cpu share
    st.sampled_from([0.0, 10.0, 20.0, 50.0, 100.0]),          # bandwidth (0 = offline)
    st.integers(min_value=0, max_value=3_000),                # samples
    st.sampled_from([50, 100, 128]),                          # batch size
)


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
        return LinkModel(
            random_topology(ids, 0.4, np.random.default_rng(seed))
        )
    return LinkModel(full_topology(ids))


def _assert_builtin_decision(decision) -> None:
    """Every field of a decision view is a builtin int/float (or None)."""
    assert type(decision.slow_id) is int
    assert decision.fast_id is None or type(decision.fast_id) is int
    assert type(decision.offloaded_layers) is int
    for field in dataclasses.fields(decision.estimate):
        value = getattr(decision.estimate, field.name)
        expected = int if field.name == "offloaded_layers" else float
        assert type(value) is expected, (field.name, value)


LAYER_STRATEGY = st.tuples(
    st.integers(min_value=1, max_value=100_000),   # forward flops
    st.integers(min_value=1, max_value=5_000),     # parameters
    st.integers(min_value=1, max_value=4_096),     # output elements
)


@st.composite
def synthetic_profiles(draw):
    """A random small architecture profiled at a random granularity."""
    layers = draw(st.lists(LAYER_STRATEGY, min_size=2, max_size=8))
    spec = ArchitectureSpec(
        name="hypothesis",
        layers=tuple(
            LayerCost(f"l{i}", float(flops), params, outputs)
            for i, (flops, params, outputs) in enumerate(layers)
        ),
        input_elements=draw(st.integers(min_value=1, max_value=3_072)),
        num_classes=10,
        head_flops=float(draw(st.integers(min_value=0, max_value=10_000))),
        head_parameter_count=draw(st.integers(min_value=0, max_value=1_000)),
    )
    granularity = draw(st.integers(min_value=1, max_value=len(layers)))
    return profile_architecture(spec, granularity=granularity)


# ----------------------------------------------------------------------
# Tentpole property: vectorized greedy == scalar greedy, exactly
# ----------------------------------------------------------------------
class TestGreedyEquivalence:
    @hypothesis.seed(20261025)
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=1, max_size=12),
        topology_kind=st.sampled_from(["full", "ring", "random"]),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_identical_decisions_on_resnet_profile(
        self, population, topology_kind, seed
    ):
        agents = _build_agents(population)
        link_model = _link_model(agents, topology_kind, seed)
        reference = greedy_pairing_reference(agents, link_model, PROFILE)
        assert greedy_pairing(agents, link_model, PROFILE) == reference

    @hypothesis.seed(20261026)
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=2, max_size=8),
        profile=synthetic_profiles(),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_decisions_on_random_profiles(self, population, profile):
        agents = _build_agents(population)
        link_model = _link_model(agents, "full", 0)
        assert greedy_pairing(agents, link_model, profile) == (
            greedy_pairing_reference(agents, link_model, profile)
        )

    def test_zero_bandwidth_population_is_solo_only(self):
        """All-offline populations never pair — in both implementations."""
        agents = [
            Agent(i, ResourceProfile(0.2 + i, 0.0), num_samples=500)
            for i in range(4)
        ]
        link_model = LinkModel(full_topology(range(4)))
        vectorized = greedy_pairing(agents, link_model, PROFILE)
        assert vectorized == greedy_pairing_reference(agents, link_model, PROFILE)
        assert all(decision.fast_id is None for decision in vectorized)

    def test_homogeneous_population_is_solo_only(self):
        agents = [
            Agent(i, ResourceProfile(1.0, 50.0), num_samples=500) for i in range(5)
        ]
        link_model = LinkModel(full_topology(range(5)))
        vectorized = greedy_pairing(agents, link_model, PROFILE)
        assert vectorized == greedy_pairing_reference(agents, link_model, PROFILE)
        assert all(not decision.is_offloading for decision in vectorized)

    def test_empty_and_single_participant(self):
        link_model = LinkModel(full_topology(range(1)))
        assert greedy_pairing([], link_model, PROFILE) == []
        solo = [Agent(0, ResourceProfile(1.0, 50.0), num_samples=500)]
        assert greedy_pairing(solo, link_model, PROFILE) == (
            greedy_pairing_reference(solo, link_model, PROFILE)
        )

    def test_estimates_are_python_floats(self):
        """Decisions, unit views and trace payloads carry builtin scalars.

        An ``np.int64`` is not JSON-serialisable (it breaks the sealed
        trace sink and ``RunHistory.digest``); an ``np.float64`` would pass
        unnoticed.  Checked on kernel-built decisions, a pruned plan's
        views, a round plan's unit views, and the trace events and records
        of runtime rounds in every mode.
        """
        agents = _build_agents([(0.2, 50.0, 2_000, 100), (4.0, 100.0, 1_000, 100)])
        link_model = _link_model(agents, "full", 0)
        (decision,) = [
            d for d in greedy_pairing(agents, link_model, PROFILE) if d.is_offloading
        ]
        for value in (
            decision.estimate.pair_time,
            decision.estimate.slow_time,
            decision.estimate.communication_time,
        ):
            assert type(value) is float

        population = [
            (cpu, bandwidth, 1_000, 100)
            for cpu in (0.2, 0.5, 1.0, 2.0, 4.0)
            for bandwidth in (10.0, 50.0, 100.0)
        ]
        agents = _build_agents(population)
        link_model = _link_model(agents, "ring", 0)
        plan = PrunedPlanner(PROFILE, link_model, top_k=4).plan(agents)
        views = list(plan) + [plan[row] for row in range(len(plan))]
        assert any(view.is_offloading for view in views)
        assert any(view.fast_id is None for view in views)
        for view in views:
            _assert_builtin_decision(view)

        for mode in ("sync", "semi-sync", "async"):
            comdml = ComDML(
                AgentRegistry(_build_agents(population)),
                RESNET56,
                ComDMLConfig(
                    planner_threshold=1,
                    planner_top_k=4,
                    offload_granularity=9,
                    execution_mode=mode,
                    max_rounds=2,
                    target_accuracy=None,
                ),
                topology=ring_topology(list(range(len(population)))),
                profile=PROFILE,
            )
            round_plan = comdml.plan_round(0, comdml.registry.agents)
            assert len(round_plan.durations)
            for row in range(len(round_plan.durations)):
                unit = round_plan.unit(row)
                assert type(unit.index) is int
                assert type(unit.duration) is float
                assert all(type(agent_id) is int for agent_id in unit.agent_ids)
                for unit_decision in unit.decisions:
                    _assert_builtin_decision(unit_decision)
            history = comdml.run()
            for event in comdml.trace:
                assert all(type(agent_id) is int for agent_id in event.agent_ids)
                for value in (event.detail or {}).values():
                    assert type(value) in (int, float, str), (event.kind, value)
            for record in history.records:
                for value in dataclasses.asdict(record).values():
                    assert type(value) in (int, float), value


# ----------------------------------------------------------------------
# Kernel internals against the scalar oracle
# ----------------------------------------------------------------------
class TestPairCostModel:
    def test_individual_times_match_scalar(self, small_registry, small_link_model):
        model = PairCostModel(
            small_registry.agents, PROFILE, link_model=small_link_model
        )
        for agent, time in zip(small_registry.agents, model.individual_times):
            assert time == individual_training_time(agent, PROFILE, agent.batch_size)

    def test_bandwidth_matrix_matches_link_model(self, small_registry):
        for kind in ("full", "ring", "random"):
            link_model = _link_model(small_registry.agents, kind, 3)
            matrix = bandwidth_matrix(small_registry.agents, link_model)
            for i, a in enumerate(small_registry.agents):
                for j, b in enumerate(small_registry.agents):
                    expected = link_model.bandwidth(a, b) if i != j else 0.0
                    assert matrix[i, j] == expected

    def test_best_times_match_best_offload(self, small_registry, small_link_model):
        agents = small_registry.agents
        model = PairCostModel(agents, PROFILE, link_model=small_link_model)
        for i, slow in enumerate(agents):
            for j, fast in enumerate(agents):
                if i == j:
                    assert model.best_pair_times[i, j] == np.inf
                    continue
                bandwidth = small_link_model.bandwidth(slow, fast)
                if bandwidth <= 0:
                    assert model.best_pair_times[i, j] == np.inf
                    continue
                oracle = best_offload(
                    slow_agent=slow,
                    fast_agent=fast,
                    profile=PROFILE,
                    bandwidth_bytes_per_second=bandwidth,
                    fast_agent_busy_time=float(model.individual_times[j]),
                )
                assert model.best_pair_times[i, j] == oracle.pair_time
                assert model.best_offloaded_layers(i, j) == oracle.offloaded_layers
                assert model.estimate(i, j) == oracle

    def test_requires_exactly_one_bandwidth_source(self, small_registry, small_link_model):
        with pytest.raises(ValueError):
            PairCostModel(small_registry.agents, PROFILE)
        with pytest.raises(ValueError):
            PairCostModel(
                small_registry.agents,
                PROFILE,
                link_model=small_link_model,
                bandwidths=np.zeros((6, 6)),
            )

    def test_rejects_misshapen_bandwidths(self, small_registry):
        with pytest.raises(ValueError):
            PairCostModel(
                small_registry.agents, PROFILE, bandwidths=np.zeros((2, 2))
            )

    def test_pairable_excludes_useless_splits(self):
        """Equal agents' best 'split' is m=0, so they are not pairable."""
        agents = [
            Agent(0, ResourceProfile(1.0, 10.0), num_samples=1_000),
            Agent(1, ResourceProfile(1.0, 10.0), num_samples=1_000),
        ]
        model = PairCostModel(
            agents, PROFILE, link_model=LinkModel(full_topology(range(2)))
        )
        assert not model.pairable.any()


# ----------------------------------------------------------------------
# Exact solver: branch-and-bound == exhaustive enumeration
# ----------------------------------------------------------------------
def _exact_reference(agents, profile, bandwidth_lookup):
    """The pre-kernel exhaustive solver, kept verbatim as the oracle."""
    agent_by_id = {agent.agent_id: agent for agent in agents}
    ids = [agent.agent_id for agent in agents]
    best_makespan = float("inf")
    best_assignment = []
    for partition in _pair_partitions(ids):
        makespan = 0.0
        assignment = []
        for group in partition:
            if len(group) == 1:
                agent = agent_by_id[group[0]]
                time = individual_training_time(agent, profile, agent.batch_size)
                assignment.append((agent.agent_id, None, 0))
                makespan = max(makespan, time)
                continue
            first, second = agent_by_id[group[0]], agent_by_id[group[1]]
            time_first = individual_training_time(first, profile, first.batch_size)
            time_second = individual_training_time(second, profile, second.batch_size)
            slow, fast = (
                (first, second) if time_first >= time_second else (second, first)
            )
            bandwidth = bandwidth_lookup(slow, fast)
            if bandwidth <= 0:
                assignment.append((first.agent_id, None, 0))
                assignment.append((second.agent_id, None, 0))
                makespan = max(makespan, time_first, time_second)
                continue
            estimate = best_offload(
                slow_agent=slow,
                fast_agent=fast,
                profile=profile,
                bandwidth_bytes_per_second=bandwidth,
            )
            assignment.append(
                (slow.agent_id, fast.agent_id, estimate.offloaded_layers)
            )
            makespan = max(makespan, estimate.pair_time)
        if makespan < best_makespan:
            best_makespan = makespan
            best_assignment = assignment
    return best_makespan, best_assignment


class TestExactSolverEquivalence:
    @hypothesis.seed(20261028)
    @DETERMINISM_SETTINGS
    @given(
        population=st.lists(AGENT_STRATEGY, min_size=1, max_size=6),
    )
    def test_identical_to_exhaustive_enumeration(self, population):
        agents = _build_agents(population)
        result = exact_min_makespan(agents, PROFILE, pairwise_bandwidth)
        assert result == _exact_reference(agents, PROFILE, pairwise_bandwidth)

    def test_identical_with_zero_bandwidth_members(self):
        agents = [
            Agent(0, ResourceProfile(0.2, 0.0), num_samples=500),
            Agent(1, ResourceProfile(4.0, 100.0), num_samples=500),
            Agent(2, ResourceProfile(1.0, 0.0), num_samples=500),
            Agent(3, ResourceProfile(2.0, 20.0), num_samples=500),
        ]
        result = exact_min_makespan(agents, PROFILE, pairwise_bandwidth)
        assert result == _exact_reference(agents, PROFILE, pairwise_bandwidth)

    def test_empty_population(self):
        assert exact_min_makespan([], PROFILE, pairwise_bandwidth) == (0.0, [])


class TestBandwidthRepresentations:
    def test_bandwidth_matrix_with_agent_missing_from_topology(
        self, small_registry
    ):
        """A participant the topology does not know resolves to 0 links."""
        agents = list(small_registry.agents)
        for kind in ("full", "ring", "random"):
            link_model = _link_model(agents[:2] + agents[3:], kind, 5)
            matrix = bandwidth_matrix(agents, link_model)
            assert not matrix[2].any() and not matrix[:, 2].any()
            for i, a in enumerate(agents):
                for j, b in enumerate(agents):
                    expected = link_model.bandwidth(a, b) if i != j else 0.0
                    assert matrix[i, j] == expected

