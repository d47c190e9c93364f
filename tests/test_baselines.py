"""Tests for the baseline training methods."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from baseline_reference import (
    allreduce_round_timing,
    braintorrent_round_timing,
    fedavg_round_timing,
    fedavg_unit_duration,
    solo_time,
)
from gossip_reference import round_timing_reference as gossip_round_timing
from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry, gather_columns
from repro.agents.resources import (
    BANDWIDTH_PROFILES_MBPS,
    CPU_PROFILES,
    ResourceProfile,
)
from repro.baselines import (
    AllReduceDML,
    BrainTorrent,
    FedAvg,
    FedProx,
    GossipLearning,
)
from repro.core.config import ComDMLConfig
from repro.core.fastpath import agent_attrs, agent_vectors_from_attrs
from repro.core.pairing import PairingPlan
from repro.core.profiling import profile_architecture
from repro.core.timing import FALLBACK_BANDWIDTH_MBPS, bottleneck_bandwidth
from repro.models.resnet import resnet56_spec
from repro.network.allreduce import halving_doubling_allreduce
from repro.network.topology import full_topology, ring_topology
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.units import mbps_to_bytes_per_second
from strategies import AGENT_FIELDS, DETERMINISM_SETTINGS

ALL_BASELINES = [FedAvg, FedProx, AllReduceDML, GossipLearning, BrainTorrent]


def build(cls, registry, **config_kwargs):
    defaults = dict(max_rounds=5, offload_granularity=9, seed=2)
    defaults.update(config_kwargs)
    return cls(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(**defaults),
    )


def round_timing(trainer, participants) -> tuple[float, float, float]:
    """The trainer's ``round_timing`` hook over the participants' columns."""
    attrs = agent_attrs(participants)
    times = agent_vectors_from_attrs(attrs, trainer.profile).individual_times
    return trainer.round_timing(attrs, times)


class TestBaselineRuns:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_runs_produce_history(self, cls, small_registry):
        history = build(cls, small_registry).run()
        assert len(history) == 5
        assert history.total_time > 0
        assert history.method == cls.method_name

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_round_time_bounded_below_by_straggler(self, cls, small_registry, resnet56_profile):
        from repro.core.workload import individual_training_time

        trainer = build(cls, small_registry)
        total, compute, _ = round_timing(trainer, small_registry.agents)
        straggler = max(
            individual_training_time(agent, trainer.profile, 100)
            for agent in small_registry.agents
        )
        assert compute == pytest.approx(straggler)
        assert total >= straggler

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_accuracy_improves(self, cls, small_registry):
        history = build(cls, small_registry, max_rounds=30).run()
        assert history.final_accuracy > history.records[0].accuracy

    def test_empty_participant_round_is_free(self, small_registry):
        """A round without participants costs nothing and draws nothing."""
        for cls in ALL_BASELINES:
            trainer = build(cls, small_registry)
            state = trainer._method_rng.bit_generator.state
            plan = trainer.plan_round(0, [])
            assert len(plan.decisions) == 0 and len(plan.durations) == 0
            assert (
                plan.duration_seconds,
                plan.compute_seconds,
                plan.communication_seconds,
                plan.aggregation_seconds,
            ) == (0.0, 0.0, 0.0, 0.0)
            assert trainer._method_rng.bit_generator.state == state


class TestBaselineSpecifics:
    def test_fedavg_counts_model_exchange(self, small_registry):
        trainer = build(FedAvg, small_registry)
        agent = small_registry.agents[0]
        total, compute, communication = round_timing(trainer, [agent])
        assert communication > 0
        assert total == pytest.approx(compute + communication)

    def test_fedprox_has_proximal_parameter(self, small_registry):
        trainer = build(FedProx, small_registry)
        assert trainer.proximal_mu > 0
        with pytest.raises(ValueError):
            FedProx(
                registry=small_registry,
                spec=resnet56_spec(),
                config=ComDMLConfig(max_rounds=2),
                proximal_mu=-1.0,
            )

    def test_braintorrent_aggregation_scales_with_population(self, small_registry, rng):
        trainer = build(BrainTorrent, small_registry)
        few = round_timing(trainer, small_registry.agents[:2])
        many = round_timing(trainer, small_registry.agents)
        # Aggregation through one aggregator grows with the number of peers.
        assert many[0] - many[1] >= few[0] - few[1]

    def test_gossip_exchange_bounded_by_one_model(self, small_registry):
        trainer = build(GossipLearning, small_registry)
        total, compute, communication = round_timing(trainer, small_registry.agents)
        # One model push over the slowest participating link at most.
        slowest_bandwidth = min(
            agent.profile.bandwidth_bytes_per_second
            for agent in small_registry.agents
            if agent.is_connected
        )
        assert communication <= trainer.model_bytes() / slowest_bandwidth * 1.1 + 1.0

    def test_allreduce_prices_halving_doubling(self, small_registry):
        trainer = build(AllReduceDML, small_registry)
        agents = small_registry.agents
        _, _, communication = round_timing(trainer, agents)
        assert communication == halving_doubling_allreduce(
            trainer.model_bytes(), len(agents), bottleneck_bandwidth(agents)
        ).time_seconds

    def test_disconnected_rounds_price_at_the_fallback_bandwidth(self):
        """With no participant connected, AllReduce and BrainTorrent both
        aggregate at ``FALLBACK_BANDWIDTH_MBPS``."""
        registry = AgentRegistry.build(
            num_agents=4,
            rng=np.random.default_rng(0),
            profiles=[ResourceProfile(cpu, 0.0) for cpu in (2.0, 1.0, 0.5, 0.2)],
        )
        agents = registry.agents
        fallback = mbps_to_bytes_per_second(FALLBACK_BANDWIDTH_MBPS)

        allreduce = build(AllReduceDML, registry)
        _, _, communication = round_timing(allreduce, agents)
        assert communication == halving_doubling_allreduce(
            allreduce.model_bytes(), len(agents), fallback
        ).time_seconds

        braintorrent = build(BrainTorrent, registry)
        _, _, communication = round_timing(braintorrent, agents)
        per_transfer = DEFAULT_LINK_LATENCY_SECONDS + braintorrent.model_bytes() / fallback
        assert communication == 2.0 * (len(agents) - 1) * per_transfer

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_no_pairs_reported(self, cls, small_registry):
        history = build(cls, small_registry, max_rounds=2).run()
        assert all(record.num_pairs == 0 for record in history.records)


# ----------------------------------------------------------------------
# Column pricing against the scalar oracle
# ----------------------------------------------------------------------
SPEC = resnet56_spec()
PROFILE = profile_architecture(SPEC, granularity=9)

#: The scalar oracle of each method's round, in ``tests/baseline_reference.py``
#: and ``tests/gossip_reference.py``.
ROUND_TIMING_REFERENCE = {
    FedAvg: fedavg_round_timing,
    FedProx: fedavg_round_timing,
    AllReduceDML: allreduce_round_timing,
    BrainTorrent: braintorrent_round_timing,
    GossipLearning: gossip_round_timing,
}
UNIT_DURATION_REFERENCE = {
    FedAvg: fedavg_unit_duration,
    FedProx: fedavg_unit_duration,
    AllReduceDML: solo_time,
    BrainTorrent: solo_time,
    GossipLearning: solo_time,
}


@hypothesis.seed(20261022)
@DETERMINISM_SETTINGS
@given(
    cls=st.sampled_from(ALL_BASELINES),
    population=st.lists(AGENT_FIELDS, min_size=1, max_size=10),
    count=st.sampled_from((0, 1, 2, None)),
    form=st.sampled_from(("selection", "list", "stale")),
    topology_kind=st.sampled_from(("full", "ring")),
    churn=st.tuples(st.sampled_from(CPU_PROFILES), st.sampled_from(BANDWIDTH_PROFILES_MBPS)),
    seed=st.integers(min_value=0, max_value=2**16),
)
@hypothesis.example(
    cls=FedAvg,
    # Disconnected and zero-sample agents, alone and together.
    population=[(1.0, 0.0, 500, 100, 1), (0.5, 20.0, 0, 7, 3), (0.2, 0.0, 0, 50, 2)],
    count=None,
    form="selection",
    topology_kind="full",
    churn=(2.0, 0.0),
    seed=0,
)
def test_column_pricing_equals_the_scalar_oracle(
    cls, population, count, form, topology_kind, churn, seed
):
    """``plan_round`` and ``reprice_unit`` give the scalar oracle's floats.

    The participants are 0, 1, 2 or all of the population in a random
    order, passed as a registry selection, as a plain list or as a
    selection a removal made stale; a registry agent outside the round is
    the one removed.  Both trainers have equal seeds, so BrainTorrent's
    aggregator and Gossip's peers are the same draws, and the generators
    must end in the same state.  After the round one participant churns,
    and every unit is re-priced from the registry as it is then.
    """
    sampler = np.random.default_rng(seed)
    ids = sampler.choice(10**6, size=len(population) + 1, replace=False).tolist()
    registry = AgentRegistry(
        [
            Agent(
                agent_id,
                ResourceProfile(cpu, mbps),
                num_samples=samples,
                batch_size=batch_size,
                local_epochs=epochs,
            )
            for agent_id, (cpu, mbps, samples, batch_size, epochs) in zip(
                ids, [*population, population[0]]
            )
        ]
    )
    *members, outsider = ids
    topology = (full_topology if topology_kind == "full" else ring_topology)(ids)
    fast, reference = (
        cls(
            registry=registry,
            spec=SPEC,
            config=ComDMLConfig(offload_granularity=9, seed=seed),
            topology=topology,
            profile=PROFILE,
        )
        for _ in range(2)
    )
    chosen = sampler.permutation(members)[:count].tolist()
    participants = registry.select(chosen)
    if form == "list":
        participants = list(participants)
    elif form == "stale":
        registry.remove(outsider)
    assert (gather_columns(participants, "agent_id") is None) == (form != "selection")

    plan = fast.plan_round(0, participants)

    times = np.array([solo_time(reference, agent) for agent in participants])
    assert list(plan.decisions) == list(PairingPlan.solo(chosen, times))
    unit_duration = UNIT_DURATION_REFERENCE[cls]
    assert plan.durations.tolist() == [
        unit_duration(reference, agent) for agent in participants
    ]
    total, compute, communication = (
        ROUND_TIMING_REFERENCE[cls](reference, participants)
        if participants
        else (0.0, 0.0, 0.0)
    )
    priced = (
        plan.duration_seconds,
        plan.compute_seconds,
        plan.communication_seconds,
        plan.aggregation_seconds,
    )
    assert priced == (total, compute, communication, max(0.0, total - compute))
    assert all(type(value) is float for value in priced)
    assert fast._method_rng.bit_generator.state == reference._method_rng.bit_generator.state

    if not chosen:
        return
    registry.get(chosen[0]).update_profile(ResourceProfile(*churn))
    for row, agent_id in enumerate(chosen):
        price = fast.reprice_unit(plan, plan.unit(row))
        assert type(price) is float
        assert price == unit_duration(reference, registry.get(agent_id))
    registry.remove(chosen[-1])
    departed = plan.unit(len(chosen) - 1)
    assert fast.reprice_unit(plan, departed) == departed.duration
