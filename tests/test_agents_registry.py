"""Tests for the agent registry."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile


class TestRegistryConstruction:
    def test_build_creates_requested_population(self, rng):
        registry = AgentRegistry.build(num_agents=8, rng=rng, samples_per_agent=500)
        assert len(registry) == 8
        assert registry.total_samples == 4_000

    def test_build_with_per_agent_sizes(self, rng):
        sizes = [100, 200, 300]
        registry = AgentRegistry.build(num_agents=3, rng=rng, samples_per_agent=sizes)
        assert [agent.num_samples for agent in registry] == sizes

    def test_build_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            AgentRegistry.build(num_agents=3, rng=rng, samples_per_agent=[100, 200])

    def test_build_profile_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            AgentRegistry.build(
                num_agents=3,
                rng=rng,
                profiles=[ResourceProfile(1.0, 10.0)],
            )

    def test_duplicate_ids_rejected(self):
        registry = AgentRegistry()
        agent = Agent(agent_id=1, profile=ResourceProfile(1.0, 10.0), num_samples=10)
        registry.add(agent)
        with pytest.raises(ValueError):
            registry.add(Agent(agent_id=1, profile=ResourceProfile(1.0, 10.0), num_samples=5))


class TestRegistryAccess:
    def test_get_and_contains(self, small_registry):
        assert 0 in small_registry
        assert small_registry.get(0).agent_id == 0
        assert 999 not in small_registry

    def test_get_unknown_raises(self, small_registry):
        with pytest.raises(KeyError):
            small_registry.get(999)

    def test_iteration_order_stable(self, small_registry):
        assert [a.agent_id for a in small_registry] == small_registry.ids

    def test_agents_property(self, small_registry):
        assert len(small_registry.agents) == len(small_registry)


class TestColumns:
    def test_columns_read_each_id_and_a_default_for_unregistered_ones(self):
        registry = AgentRegistry(
            [
                Agent(agent_id=3, profile=ResourceProfile(1.0, 20.0), num_samples=40),
                Agent(agent_id=7, profile=ResourceProfile(0.5, 0.0), num_samples=90),
            ]
        )
        ids = np.array([7, -1, 3, 5, 7])
        samples = registry.samples_column(ids)
        assert samples.dtype == np.int64
        assert samples.tolist() == [90, 0, 40, 0, 90]
        mbps = registry.bandwidth_mbps_column(ids)
        assert mbps.dtype == np.float64
        assert np.array_equal(mbps, [0.0, np.nan, 20.0, np.nan, 0.0], equal_nan=True)
        empty = np.array([], dtype=np.int64)
        assert registry.samples_column(empty).shape == (0,)
        assert registry.bandwidth_mbps_column(empty).shape == (0,)


class TestParticipationSampling:
    def test_sampling_fraction(self, rng):
        registry = AgentRegistry.build(num_agents=50, rng=rng)
        sample = registry.sample_participants(0.2, rng)
        assert len(sample) == 10

    def test_sampling_respects_minimum(self, rng):
        registry = AgentRegistry.build(num_agents=10, rng=rng)
        sample = registry.sample_participants(0.01, rng, minimum=2)
        assert len(sample) >= 2

    def test_sampling_no_duplicates(self, rng):
        registry = AgentRegistry.build(num_agents=30, rng=rng)
        sample = registry.sample_participants(0.5, rng)
        ids = [agent.agent_id for agent in sample]
        assert len(ids) == len(set(ids))

    def test_sampling_full_fraction_returns_everyone(self, rng):
        registry = AgentRegistry.build(num_agents=12, rng=rng)
        assert len(registry.sample_participants(1.0, rng)) == 12

    def test_invalid_fraction_rejected(self, rng):
        registry = AgentRegistry.build(num_agents=5, rng=rng)
        with pytest.raises(ValueError):
            registry.sample_participants(1.5, rng)


#: One registry operation: add an agent with a (possibly zero) sample
#: count, or remove an id that may or may not be registered.
REGISTRY_OPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(min_value=0, max_value=7),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=5_000)),
    ),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
)


class TestRunningSampleTotal:
    @hypothesis.seed(20240713)
    @given(ops=st.lists(REGISTRY_OPS, max_size=40))
    @settings(max_examples=100, deadline=500)
    def test_total_matches_sum_after_any_add_remove_sequence(self, ops):
        registry = AgentRegistry()
        for op in ops:
            before = registry.total_samples
            if op[0] == "add":
                _, agent_id, samples = op
                agent = Agent(agent_id, ResourceProfile(1.0, 10.0), num_samples=samples)
                if agent_id in registry:
                    with pytest.raises(ValueError):
                        registry.add(agent)
                    assert registry.total_samples == before
                else:
                    registry.add(agent)
            else:
                _, agent_id = op
                if agent_id in registry:
                    registry.remove(agent_id)
                else:
                    with pytest.raises(KeyError):
                        registry.remove(agent_id)
                    assert registry.total_samples == before
            assert registry.total_samples == sum(a.num_samples for a in registry)
