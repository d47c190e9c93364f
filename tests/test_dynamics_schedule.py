"""Tests for schedule generation (Poisson), JSON round-trips, and arrival
attachment policies (full / ring / random-k)."""

import math

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.models.resnet import resnet56_spec
from repro.network.topology import full_topology, ring_topology
from repro.runtime.dynamics import (
    ArrivalAttachment,
    DynamicsEvent,
    DynamicsSchedule,
)


def new_agent(agent_id: int, cpu: float = 4.0, bandwidth: float = 100.0) -> Agent:
    return Agent(
        agent_id=agent_id,
        profile=ResourceProfile(cpu, bandwidth),
        num_samples=500,
        batch_size=100,
    )


class TestPoissonGenerator:
    def test_deterministic_for_same_seed(self):
        kwargs = dict(
            horizon=50_000.0,
            arrival_rate=1 / 4_000.0,
            departure_rate=1 / 8_000.0,
            seed=11,
            departure_candidates=(0, 1, 2, 3),
        )
        first = DynamicsSchedule.poisson(**kwargs)
        second = DynamicsSchedule.poisson(**kwargs)
        assert [e.time for e in first] == [e.time for e in second]
        assert [e.kind for e in first] == [e.kind for e in second]

    def test_different_seed_different_schedule(self):
        kwargs = dict(horizon=50_000.0, arrival_rate=1 / 4_000.0)
        first = DynamicsSchedule.poisson(seed=0, **kwargs)
        second = DynamicsSchedule.poisson(seed=1, **kwargs)
        assert [e.time for e in first] != [e.time for e in second]

    def test_events_within_horizon(self):
        schedule = DynamicsSchedule.poisson(
            horizon=10_000.0,
            arrival_rate=1 / 1_000.0,
            departure_rate=1 / 2_000.0,
            seed=5,
            departure_candidates=(0, 1),
        )
        assert all(0.0 <= event.time < 10_000.0 for event in schedule)

    def test_each_agent_departs_at_most_once(self):
        schedule = DynamicsSchedule.poisson(
            horizon=100_000.0,
            departure_rate=1 / 2_000.0,
            seed=2,
            departure_candidates=(0, 1, 2),
        )
        departures = [e.agent_id for e in schedule if e.kind == "departure"]
        assert len(departures) == len(set(departures))
        assert set(departures) <= {0, 1, 2}

    def test_departures_only_target_present_agents(self):
        schedule = DynamicsSchedule.poisson(
            horizon=80_000.0,
            arrival_rate=1 / 5_000.0,
            departure_rate=1 / 5_000.0,
            seed=9,
            id_start=100,
        )
        arrival_times = {
            e.agent.agent_id: e.time for e in schedule if e.kind == "arrival"
        }
        for event in schedule:
            if event.kind == "departure":
                assert event.agent_id in arrival_times
                assert arrival_times[event.agent_id] < event.time

    def test_arrival_ids_and_attachment(self):
        schedule = DynamicsSchedule.poisson(
            horizon=30_000.0,
            arrival_rate=1 / 3_000.0,
            seed=4,
            id_start=500,
            samples_per_agent=250,
            attachment="random-k",
        )
        arrivals = [e for e in schedule if e.kind == "arrival"]
        assert arrivals, "expected at least one arrival at this rate"
        assert [e.agent.agent_id for e in arrivals] == [
            500 + i for i in range(len(arrivals))
        ]
        assert all(e.agent.num_samples == 250 for e in arrivals)
        assert all(e.attachment.policy == "random-k" for e in arrivals)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DynamicsSchedule.poisson(horizon=0.0, arrival_rate=1.0)
        with pytest.raises(ValueError):
            DynamicsSchedule.poisson(horizon=10.0, arrival_rate=-1.0)

    @pytest.mark.parametrize("name", ["horizon", "arrival_rate", "departure_rate"])
    def test_rejects_infinite_parameters(self, name):
        """An infinite horizon or rate would never end a draw loop."""
        kwargs = {"horizon": 10.0, "arrival_rate": 1.0, "departure_rate": 1.0}
        kwargs[name] = math.inf
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            DynamicsSchedule.poisson(departure_candidates=(0, 1), **kwargs)

    @pytest.mark.parametrize("name", ["horizon", "arrival_rate", "departure_rate"])
    def test_rejects_nan_parameters(self, name):
        kwargs = {"horizon": 10.0, name: math.nan}
        with pytest.raises(ValueError, match=f"{name} must be"):
            DynamicsSchedule.poisson(**kwargs)


class TestScheduleJson:
    def build(self) -> DynamicsSchedule:
        schedule = DynamicsSchedule()
        schedule.arrival(100.0, new_agent(7), attachment="ring")
        schedule.arrival(150.0, new_agent(8), neighbors=(0, 1))
        schedule.departure(300.0, agent_id=2)
        schedule.churn(50.0, fraction=0.4)
        schedule.churn(400.0, agent_ids=(1, 3))
        return schedule

    def test_round_trip_preserves_events(self):
        original = self.build()
        restored = DynamicsSchedule.from_json(original.to_json())
        assert len(restored) == len(original)
        for before, after in zip(original, restored):
            assert before.time == after.time
            assert before.kind == after.kind
            assert before.agent_id == after.agent_id
            assert before.fraction == after.fraction
            assert before.agent_ids == after.agent_ids
            assert before.neighbors == after.neighbors
            assert before.attachment == after.attachment
            if before.kind == "arrival":
                assert before.agent.agent_id == after.agent.agent_id
                assert before.agent.profile == after.agent.profile
                assert before.agent.num_samples == after.agent.num_samples

    def test_loaded_agents_are_fresh_objects(self):
        original = self.build()
        restored = DynamicsSchedule.from_json(original.to_json())
        originals = {e.agent.agent_id: e.agent for e in original if e.agent}
        for event in restored:
            if event.agent is not None:
                assert event.agent is not originals[event.agent.agent_id]

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "schedules" / "flash.json"
        original = self.build()
        original.save(path)
        loaded = DynamicsSchedule.load(path)
        assert [e.kind for e in loaded] == [e.kind for e in original]

    def test_poisson_survives_round_trip(self):
        schedule = DynamicsSchedule.poisson(
            horizon=20_000.0,
            arrival_rate=1 / 2_000.0,
            departure_rate=1 / 4_000.0,
            seed=3,
            departure_candidates=(0, 1),
            attachment=ArrivalAttachment(policy="random-k", k=3, seed=3),
        )
        restored = DynamicsSchedule.from_json(schedule.to_json())
        assert [e.time for e in restored] == [e.time for e in schedule]
        assert [e.kind for e in restored] == [e.kind for e in schedule]


class TestAttachmentPolicies:
    def test_full_attaches_to_everyone(self):
        topology = full_topology([0, 1, 2])
        neighbors = topology.attach_agent(9, policy="full")
        assert neighbors == [0, 1, 2]

    def test_ring_splices_wrap_edge(self):
        topology = ring_topology([0, 1, 2, 3])
        assert topology.are_connected(0, 3)
        neighbors = topology.attach_agent(9, policy="ring")
        assert neighbors == [0, 3]
        assert not topology.are_connected(0, 3)
        # Every node keeps ring degree 2.
        assert all(topology.degree(node) == 2 for node in topology.nodes)

    def test_random_k_samples_k_neighbors(self):
        topology = full_topology(list(range(8)))
        neighbors = topology.attach_agent(
            99, policy="random-k", k=3, rng=np.random.default_rng(0)
        )
        assert len(neighbors) == 3
        assert set(neighbors) <= set(range(8))

    def test_random_k_requires_rng(self):
        topology = full_topology([0, 1, 2])
        with pytest.raises(ValueError, match="rng"):
            topology.attach_agent(9, policy="random-k")

    def test_unknown_policy_rejected(self):
        topology = full_topology([0, 1, 2])
        with pytest.raises(ValueError, match="unknown attachment policy"):
            topology.attach_agent(9, policy="star")

    def test_arrivals_draw_from_the_sorted_node_ids(self):
        """Arrivals and departures keep the id order a fresh sort would give."""
        topology = ring_topology([5, 1, 9, 3])
        reference = ring_topology([5, 1, 9, 3])
        draws = np.random.default_rng(11)
        for step in range(40):
            policy = ("ring", "random-k")[step % 2]
            seed = int(draws.integers(1 << 30))
            got = topology.attach_agent(
                100 + step, policy=policy, k=2, rng=np.random.default_rng(seed)
            )
            existing = reference.nodes
            if policy == "ring":
                expected = sorted({existing[0], existing[-1]})
            else:
                rng = np.random.default_rng(seed)
                chosen = rng.choice(len(existing), size=2, replace=False)
                expected = sorted(existing[int(index)] for index in chosen)
            reference.add_agent(100 + step, expected)
            assert got == expected
            if step % 3 == 0:
                victim = existing[int(draws.integers(len(existing)))]
                topology.remove_agent(victim)
                reference.remove_agent(victim)

    def test_explicit_neighbors_override_policy(self):
        topology = full_topology([0, 1, 2])
        neighbors = topology.attach_agent(9, policy="ring", neighbors=(1,))
        assert neighbors == [1]

    def test_attachment_validation(self):
        with pytest.raises(ValueError):
            ArrivalAttachment(policy="star")
        with pytest.raises(ValueError):
            DynamicsEvent(
                time=1.0,
                kind="departure",
                agent_id=1,
                attachment=ArrivalAttachment(),
            )

    def test_rng_for_is_deterministic(self):
        attachment = ArrivalAttachment(policy="random-k", k=2, seed=5)
        a = attachment.rng_for(7).integers(1 << 30)
        b = attachment.rng_for(7).integers(1 << 30)
        assert a == b


class TestArrivalWiringEndToEnd:
    def make_trainer(self, schedule: DynamicsSchedule) -> ComDML:
        registry = AgentRegistry.build(
            num_agents=5,
            rng=np.random.default_rng(1),
            samples_per_agent=400,
            batch_size=100,
        )
        return ComDML(
            registry=registry,
            spec=resnet56_spec(),
            config=ComDMLConfig(max_rounds=3, offload_granularity=9, seed=3),
            dynamics=schedule,
        )

    def test_random_k_arrival_gets_k_links(self):
        schedule = DynamicsSchedule()
        schedule.arrival(
            0.0,
            new_agent(50),
            attachment=ArrivalAttachment(policy="random-k", k=2, seed=0),
        )
        trainer = self.make_trainer(schedule)
        trainer.run()
        assert trainer.topology.degree(50) == 2

    def test_ring_arrival_gets_two_links(self):
        schedule = DynamicsSchedule()
        schedule.arrival(0.0, new_agent(51), attachment="ring")
        trainer = self.make_trainer(schedule)
        trainer.run()
        assert trainer.topology.degree(51) == 2

    def test_default_arrival_still_fully_connected(self):
        schedule = DynamicsSchedule()
        schedule.arrival(0.0, new_agent(52))
        trainer = self.make_trainer(schedule)
        trainer.run()
        assert trainer.topology.degree(52) == 5
