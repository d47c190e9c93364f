"""Tests for the agent registry."""

import copy
import pickle
from operator import attrgetter

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from strategies import DETERMINISM_SETTINGS, registry_ops

from repro.agents.agent import Agent
from repro.agents.dynamics import ResourceChurn, churn_agent_profiles
from repro.agents.registry import COLUMNS, AgentRegistry, gather_columns
from repro.agents.resources import ResourceProfile
from repro.core.fastpath import agent_attrs
from repro.core.timing import bottleneck_bandwidth


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

    def test_select_hands_out_the_given_agents_in_order(self, small_registry):
        selection = small_registry.select([4, 0, 2])
        assert [agent.agent_id for agent in selection] == [4, 0, 2]
        assert gather_columns(selection, "agent_id")[0].tolist() == [4, 0, 2]
        assert small_registry.select([]) == []
        with pytest.raises(KeyError):
            small_registry.select([1, 999])


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


class TestRegistryMembership:
    def test_an_agent_another_registry_holds_is_rejected(self):
        agent = Agent(agent_id=1, profile=ResourceProfile(1.0, 10.0), num_samples=10)
        first = AgentRegistry([agent])
        with pytest.raises(ValueError, match="another registry"):
            AgentRegistry([agent])
        with pytest.raises(ValueError, match="another registry"):
            AgentRegistry().add(agent)
        assert first.get(1) is agent
        assert first.total_samples == 10

    def test_a_removed_agent_can_join_another_registry(self):
        agent = Agent(agent_id=1, profile=ResourceProfile(1.0, 10.0), num_samples=10)
        first = AgentRegistry([agent])
        first.remove(1)
        second = AgentRegistry()
        second.add(agent)
        agent.update_profile(ResourceProfile(2.0, 50.0))
        assert second.bandwidth_mbps_column(np.array([1])).tolist() == [50.0]
        assert 1 not in first
        assert first.total_samples == 0

    def test_copies_of_agents_are_unregistered(self, small_registry):
        agent = small_registry.agents[0]
        for duplicate in (copy.copy(agent), copy.deepcopy(agent)):
            assert duplicate == agent
            duplicate.update_profile(ResourceProfile(0.2, 100.0))
            _assert_reads_its_agents(small_registry.agents, list(small_registry))
            AgentRegistry([duplicate])

    def test_a_copied_registry_writes_its_own_columns(self, small_registry):
        profile = small_registry.get(0).profile
        for duplicate in (
            copy.deepcopy(small_registry),
            pickle.loads(pickle.dumps(small_registry)),
        ):
            duplicate.get(0).update_profile(ResourceProfile(0.2, 100.0))
            _assert_reads_its_agents(duplicate.agents, list(duplicate))
            assert duplicate.bandwidth_mbps_column(np.array([0])).tolist() == [100.0]
            assert small_registry.get(0).profile == profile
            _assert_reads_its_agents(small_registry.agents, list(small_registry))


def _agent(agent_id, fields):
    cpu, mbps, samples, batch_size, epochs = fields
    return Agent(
        agent_id,
        ResourceProfile(cpu, mbps),
        num_samples=samples,
        batch_size=batch_size,
        local_epochs=epochs,
    )


def _assert_reads_its_agents(selection, agents):
    """``agent_attrs`` and the bottleneck of ``selection`` are its agents' own."""
    attrs, per_agent = agent_attrs(selection), agent_attrs(list(agents))
    for name, _, path in COLUMNS:
        column = getattr(attrs, name)
        assert column.dtype == getattr(per_agent, name).dtype
        assert column.tolist() == list(map(attrgetter(path), agents))
    assert bottleneck_bandwidth(selection) == bottleneck_bandwidth(list(agents))


def _check_registry(registry, taken):
    agents = list(registry)
    assert registry.ids == [agent.agent_id for agent in agents]
    assert registry.id_column().tolist() == registry.ids
    selection = registry.agents
    columns = gather_columns(selection, *(name for name, _, _ in COLUMNS))
    assert columns is not None
    for (_, _, path), column in zip(COLUMNS, columns):
        assert column.tolist() == list(map(attrgetter(path), agents))
    _assert_reads_its_agents(selection, agents)

    by_id = {agent.agent_id: agent for agent in agents}
    chosen = registry.ids[::-2]
    selected = registry.select(chosen)
    assert gather_columns(selected, "agent_id") is not None
    _assert_reads_its_agents(selected, [by_id[agent_id] for agent_id in chosen])
    assert registry.total_samples == sum(agent.num_samples for agent in agents)
    queries = registry.ids + [-1, 16, 10**9 + 7, 10**12] + registry.ids[:2]
    assert registry.samples_of(queries) == sum(
        by_id[agent_id].num_samples for agent_id in set(queries) if agent_id in by_id
    )
    assert registry.samples_column(np.array(queries)).tolist() == [
        by_id[agent_id].num_samples if agent_id in by_id else 0 for agent_id in queries
    ]
    assert np.array_equal(
        registry.bandwidth_mbps_column(np.array(queries)),
        [
            by_id[agent_id].profile.bandwidth_mbps if agent_id in by_id else np.nan
            for agent_id in queries
        ],
        equal_nan=True,
    )
    for earlier in taken:
        _assert_reads_its_agents(earlier, list(earlier))


class TestColumnsProperty:
    @hypothesis.seed(20261101)
    @given(ops=registry_ops())
    @DETERMINISM_SETTINGS
    def test_columns_follow_the_agents_through_any_sequence(self, ops):
        """After every step the columns, the id lookups and every selection
        taken so far read exactly what the agents read one at a time."""
        registry = AgentRegistry(
            _agent(agent_id, fields) for agent_id, fields in ops["start"]
        )
        removed: list[Agent] = []
        taken = []
        for step in ops["steps"]:
            kind = step[0]
            if kind == "add":
                _, agent_id, fields = step
                if agent_id in registry:
                    with pytest.raises(ValueError):
                        registry.add(_agent(agent_id, fields))
                else:
                    registry.add(_agent(agent_id, fields))
            elif kind == "remove":
                if step[1] in registry:
                    removed.append(registry.remove(step[1]))
                else:
                    with pytest.raises(KeyError):
                        registry.remove(step[1])
            elif kind == "readd":
                if step[1] < len(removed):
                    agent = removed[step[1]]
                    if agent.agent_id in registry:
                        with pytest.raises(ValueError):
                            registry.add(agent)
                    else:
                        registry.add(removed.pop(step[1]))
            elif kind == "update":
                _, agent_id, cpu, mbps = step
                holders = [registry.get(agent_id)] if agent_id in registry else []
                holders += [agent for agent in removed if agent.agent_id == agent_id]
                for agent in holders[:1]:
                    agent.update_profile(ResourceProfile(cpu, mbps))
            elif kind == "churn_ids":
                _, agent_ids, seed = step
                changed = churn_agent_profiles(
                    registry, agent_ids, np.random.default_rng(seed)
                )
                assert changed == [i for i in agent_ids if i in registry]
            elif kind == "churn_fraction":
                _, fraction, seed = step
                ResourceChurn(fraction=fraction).apply(
                    registry, np.random.default_rng(seed)
                )
            elif kind == "take":
                _, fraction, seed = step
                taken.append(
                    registry.agents
                    if fraction == 1.0
                    else registry.sample_participants(
                        fraction, np.random.default_rng(seed)
                    )
                )
            elif kind == "reorder_taken":
                if taken and step[1] == "sort":
                    taken[-1].sort(key=lambda agent: -agent.agent_id)
                elif taken and step[1] == "reverse":
                    taken[-1].reverse()
                elif taken and len(taken[-1]) > 1:
                    taken[-1][0], taken[-1][-1] = taken[-1][-1], taken[-1][0]
            else:  # drain
                for agent_id in registry.ids[: max(0, len(registry) - step[1])]:
                    removed.append(registry.remove(agent_id))
            _check_registry(registry, taken)
