"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
from datetime import timedelta

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.resources import CPU_PROFILES, ResourceProfile
from repro.baselines import AllReduceDML, BrainTorrent, FedAvg, GossipLearning
from repro.core.comdml import ComDML
from repro.core.pairing import greedy_pairing, pairing_makespan
from repro.core.profiling import profile_architecture
from repro.core.workload import estimate_offload_time, individual_training_time
from repro.data.partition import dirichlet_partition, iid_partition, partition_sizes
from repro.models.resnet import resnet56_spec
from repro.network.allreduce import (
    allreduce_average,
    halving_doubling_allreduce,
    ring_allreduce,
)
from repro.network.compression import QuantizationCompressor
from repro.network.link import LinkModel
from repro.network.topology import full_topology, random_k_topology, ring_topology
from repro.nn.functional import one_hot, softmax
from repro.privacy.differential_privacy import DifferentialPrivacy
from repro.privacy.patch_shuffle import PatchShuffle
from repro.utils.units import bytes_per_second_to_mbps, mbps_to_bytes_per_second

RESNET56 = resnet56_spec()
PROFILE = profile_architecture(RESNET56, granularity=9)


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
@hypothesis.seed(20261035)
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_bandwidth_roundtrip(mbps):
    assert bytes_per_second_to_mbps(mbps_to_bytes_per_second(mbps)) == pytest.approx(mbps)


# ----------------------------------------------------------------------
# Partitioning invariants
# ----------------------------------------------------------------------
@hypothesis.seed(20261036)
@given(
    total=st.integers(min_value=10, max_value=2_000),
    agents=st.integers(min_value=1, max_value=10),
)
def test_partition_sizes_sum_to_total(total, agents):
    if total < agents:
        return
    sizes = partition_sizes(total, agents)
    assert sum(sizes) == total
    assert all(size >= 1 for size in sizes)


@hypothesis.seed(20261037)
@given(
    num_samples=st.integers(min_value=20, max_value=400),
    num_agents=st.integers(min_value=2, max_value=8),
    num_classes=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=30, deadline=None)
def test_iid_partition_is_a_partition(num_samples, num_agents, num_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=num_samples)
    shards = iid_partition(labels, num_agents, rng)
    combined = np.concatenate(shards)
    assert len(combined) == num_samples
    assert len(np.unique(combined)) == num_samples


@hypothesis.seed(20261038)
@given(
    num_samples=st.integers(min_value=30, max_value=300),
    num_agents=st.integers(min_value=2, max_value=6),
    alpha=st.floats(min_value=0.1, max_value=10.0),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=30, deadline=None)
def test_dirichlet_partition_is_a_partition(num_samples, num_agents, alpha, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=num_samples)
    shards = dirichlet_partition(labels, num_agents, rng, alpha=alpha)
    combined = np.concatenate(shards)
    assert len(combined) == num_samples
    assert len(np.unique(combined)) == num_samples
    assert all(len(shard) >= 1 for shard in shards)


# ----------------------------------------------------------------------
# AllReduce invariants
# ----------------------------------------------------------------------
@hypothesis.seed(20261039)
@given(
    num_vectors=st.integers(min_value=1, max_value=6),
    dimension=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_allreduce_average_bounded_by_extremes(num_vectors, dimension, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=dimension) for _ in range(num_vectors)]
    weights = rng.random(num_vectors) + 0.01
    average = allreduce_average(vectors, weights)
    stacked = np.stack(vectors)
    assert np.all(average >= stacked.min(axis=0) - 1e-9)
    assert np.all(average <= stacked.max(axis=0) + 1e-9)


@hypothesis.seed(20261040)
@given(
    model_bytes=st.floats(min_value=1e3, max_value=1e8),
    num_agents=st.integers(min_value=2, max_value=256),
    bandwidth=st.floats(min_value=1e5, max_value=1e8),
)
@settings(max_examples=50, deadline=None)
def test_allreduce_algorithms_move_same_volume(model_bytes, num_agents, bandwidth):
    ring = ring_allreduce(model_bytes, num_agents, bandwidth)
    hd = halving_doubling_allreduce(model_bytes, num_agents, bandwidth)
    assert ring.per_agent_bytes == pytest.approx(hd.per_agent_bytes)
    assert ring.time_seconds > 0 and hd.time_seconds > 0


# ----------------------------------------------------------------------
# Compression invariants
# ----------------------------------------------------------------------
@hypothesis.seed(20261041)
@given(
    bits=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_quantization_error_bounded(bits, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=200)
    compressor = QuantizationCompressor(bits=bits)
    reconstructed = compressor.compress(values)
    step = (values.max() - values.min()) / ((1 << bits) - 1)
    assert np.max(np.abs(reconstructed - values)) <= step / 2 + 1e-12
    assert compressor.compressed_bytes(800.0) <= 800.0


# ----------------------------------------------------------------------
# Softmax / one-hot invariants
# ----------------------------------------------------------------------
@hypothesis.seed(20261042)
@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_softmax_is_a_distribution(rows, cols, seed):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(scale=10, size=(rows, cols)))
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


@hypothesis.seed(20261043)
@given(
    count=st.integers(min_value=1, max_value=50),
    classes=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_one_hot_rows_sum_to_one(count, classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=count)
    encoded = one_hot(labels, classes)
    assert np.all(encoded.sum(axis=1) == 1)
    assert np.array_equal(encoded.argmax(axis=1), labels)


# ----------------------------------------------------------------------
# Privacy invariants
# ----------------------------------------------------------------------
@hypothesis.seed(20261044)
@given(
    clip_norm=st.floats(min_value=0.1, max_value=100.0),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_dp_clipping_never_exceeds_norm(clip_norm, seed):
    rng = np.random.default_rng(seed)
    mechanism = DifferentialPrivacy(clip_norm=clip_norm, rng=rng)
    vector = rng.normal(scale=100.0, size=50)
    assert np.linalg.norm(mechanism.clip(vector)) <= clip_norm + 1e-9


@hypothesis.seed(20261045)
@given(
    num_patches=st.integers(min_value=1, max_value=32),
    features=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_patch_shuffle_is_a_permutation(num_patches, features, seed):
    rng = np.random.default_rng(seed)
    shuffle = PatchShuffle(num_patches=num_patches, rng=np.random.default_rng(seed))
    activations = rng.normal(size=(4, features))
    out = shuffle(activations)
    assert np.allclose(np.sort(out, axis=1), np.sort(activations, axis=1))


# ----------------------------------------------------------------------
# Workload-balancing invariants
# ----------------------------------------------------------------------
AGENT_STRATEGY = st.tuples(
    st.sampled_from([4.0, 2.0, 1.0, 0.5, 0.2]),        # cpu share
    st.sampled_from([10.0, 20.0, 50.0, 100.0]),        # bandwidth
    st.integers(min_value=100, max_value=3_000),       # samples
)


@hypothesis.seed(20261046)
@given(
    slow=AGENT_STRATEGY,
    fast=AGENT_STRATEGY,
    offload=st.sampled_from(PROFILE.offload_options),
)
@settings(max_examples=60, deadline=None)
def test_offload_estimate_invariants(slow, fast, offload):
    slow_agent = Agent(0, ResourceProfile(slow[0], slow[1]), num_samples=slow[2], batch_size=100)
    fast_agent = Agent(1, ResourceProfile(fast[0], fast[1]), num_samples=fast[2], batch_size=100)
    bandwidth = min(
        slow_agent.profile.bandwidth_bytes_per_second,
        fast_agent.profile.bandwidth_bytes_per_second,
    )
    estimate = estimate_offload_time(slow_agent, fast_agent, offload, PROFILE, bandwidth)
    assert estimate.pair_time >= estimate.slow_time - 1e-9
    assert estimate.pair_time >= 0
    assert estimate.communication_time >= 0
    assert estimate.idle_time >= 0


@hypothesis.seed(20261047)
@given(
    population=st.lists(AGENT_STRATEGY, min_size=2, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_greedy_pairing_invariants(population):
    agents = [
        Agent(i, ResourceProfile(cpu, bw), num_samples=samples, batch_size=100)
        for i, (cpu, bw, samples) in enumerate(population)
    ]
    link_model = LinkModel(full_topology(range(len(agents))))
    decisions = greedy_pairing(agents, link_model, PROFILE)

    used = []
    for decision in decisions:
        used.append(decision.slow_id)
        if decision.fast_id is not None:
            used.append(decision.fast_id)
    # Every agent covered exactly once.
    assert sorted(used) == list(range(len(agents)))

    # The balanced makespan never exceeds the unbalanced straggler time.
    unbalanced = max(
        individual_training_time(agent, PROFILE, 100) for agent in agents
    )
    assert pairing_makespan(decisions) <= unbalanced + 1e-6


# ----------------------------------------------------------------------
# Pairing-plan invariants through the scheduler and the runtime
# ----------------------------------------------------------------------
@hypothesis.seed(20261048)
@given(
    population=st.lists(AGENT_STRATEGY, min_size=2, max_size=8),
    seed=st.integers(min_value=0, max_value=200),
    topology_kind=st.sampled_from(("full", "ring", "random-k")),
    top_k=st.sampled_from((None, 1, 2, "n-1")),
    participation=st.sampled_from((1.0, 0.75, 0.5, 0.25)),
)
@settings(max_examples=60, deadline=None)
def test_scheduler_plan_covers_participants_exactly_once(
    population, seed, topology_kind, top_k, participation
):
    """Every participant appears in exactly one PairingDecision of a plan.

    Round timing prices the AllReduce over the participants on this
    invariant, with the scheduler's own exact-budget planner (``top_k``
    None) or a given planner pruning at any size.
    """
    from repro.agents.registry import AgentRegistry
    from repro.core.planner import PrunedPlanner
    from repro.core.scheduler import DecentralizedPairingScheduler

    registry = AgentRegistry(
        [
            Agent(i, ResourceProfile(cpu, bw), num_samples=samples, batch_size=100)
            for i, (cpu, bw, samples) in enumerate(population)
        ]
    )
    rng = np.random.default_rng(seed)
    if topology_kind == "ring":
        topology = ring_topology(registry.ids)
    elif topology_kind == "random-k":
        topology = random_k_topology(registry.ids, 2, rng)
    else:
        topology = full_topology(registry.ids)
    link_model = LinkModel(topology)
    planner = None
    if top_k is not None:
        planner = PrunedPlanner(
            PROFILE,
            link_model,
            top_k=len(registry) - 1 if top_k == "n-1" else top_k,
        )
    scheduler = DecentralizedPairingScheduler(
        registry=registry,
        link_model=link_model,
        profile=PROFILE,
        participation_fraction=participation,
        rng=rng,
        planner=planner,
    )
    participants = scheduler.select_participants()
    decisions = scheduler.plan_round(participants)

    used: list[int] = []
    for decision in decisions:
        used.append(decision.slow_id)
        if decision.fast_id is not None:
            used.append(decision.fast_id)
    assert sorted(used) == sorted(agent.agent_id for agent in participants)

    all_solo = max(
        individual_training_time(agent, PROFILE, agent.batch_size)
        for agent in participants
    )
    assert pairing_makespan(decisions) <= all_solo + 1e-6


# ----------------------------------------------------------------------
# Quorum-policy invariants
# ----------------------------------------------------------------------
@hypothesis.seed(20261049)
@given(
    durations=st.lists(
        st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=12
    ),
    target=st.integers(min_value=0, max_value=20),
    deadline=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e4)),
)
@settings(max_examples=60, deadline=None)
def test_resolve_quorum_invariants(durations, target, deadline):
    """Any decision over any round keeps 1..n units and closes consistently."""
    from repro.runtime.quorum import QuorumDecision, resolve_quorum

    durations = sorted(durations)
    kept, close = resolve_quorum(
        QuorumDecision(target_count=target, deadline_seconds=deadline), durations
    )
    assert 1 <= kept <= len(durations)
    # Every kept unit finished by the closing time.
    assert durations[kept - 1] <= close + 1e-9
    # The round never waits past both the slowest unit and the deadline.
    latest = max(durations[-1], deadline) if deadline is not None else durations[-1]
    assert close <= latest + 1e-9


@hypothesis.seed(20261050)
@given(
    fraction=st.floats(min_value=0.05, max_value=1.0),
    makespans=st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=0, max_size=8
    ),
    durations=st.lists(
        st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=10
    ),
)
@settings(max_examples=40, deadline=None)
def test_quorum_policies_always_yield_executable_decisions(
    fraction, makespans, durations
):
    """Every policy copes with any history — including zero makespans."""
    from repro.core.scheduler import SchedulerStats
    from repro.runtime.quorum import (
        AdaptiveQuorum,
        DeadlineQuorum,
        FixedFractionQuorum,
        resolve_quorum,
    )

    stats = SchedulerStats()
    for makespan in makespans:
        stats.record_makespan(makespan)
    durations = sorted(durations)
    policies = [
        FixedFractionQuorum(fraction),
        DeadlineQuorum(1.5, fallback=FixedFractionQuorum(fraction)),
        AdaptiveQuorum(floor_fraction=fraction),
    ]
    for policy in policies:
        decision = policy.decide(durations, stats)
        assert decision.target_count >= 1
        kept, close = resolve_quorum(decision, durations)
        assert 1 <= kept <= len(durations)
        assert close >= 0.0


# ----------------------------------------------------------------------
# Arrival/departure invariants through the dynamic runtime
# ----------------------------------------------------------------------
@hypothesis.seed(20261051)
@given(
    seed=st.integers(min_value=0, max_value=30),
    num_arrivals=st.integers(min_value=0, max_value=2),
    depart_index=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    mode=st.sampled_from(["sync", "semi-sync", "async"]),
)
@settings(max_examples=12, deadline=None)
def test_dynamic_population_bookkeeping_invariants(
    seed, num_arrivals, depart_index, mode
):
    """Arrivals/departures keep the registry, trace and plans consistent.

    Whatever the schedule, after the run: the registry holds exactly the
    surviving ids, the trace is chronological, every round completed, and
    no departed agent completed work after its departure.
    """
    from repro.agents.agent import Agent
    from repro.agents.registry import AgentRegistry
    from repro.agents.resources import ResourceProfile
    from repro.core.comdml import ComDML
    from repro.core.config import ComDMLConfig
    from repro.runtime.dynamics import DynamicsSchedule

    base = 4
    registry = AgentRegistry.build(
        num_agents=base,
        rng=np.random.default_rng(seed),
        samples_per_agent=400,
        batch_size=100,
    )
    schedule = DynamicsSchedule()
    for index in range(num_arrivals):
        schedule.arrival(
            50.0 + 40.0 * index,
            Agent(
                agent_id=base + index,
                profile=ResourceProfile(2.0, 50.0),
                num_samples=300,
                batch_size=100,
            ),
        )
    if depart_index is not None:
        schedule.departure(120.0, agent_id=depart_index)
    comdml = ComDML(
        registry=registry,
        spec=RESNET56,
        config=ComDMLConfig(
            max_rounds=2,
            offload_granularity=9,
            execution_mode=mode,
            seed=seed,
        ),
        profile=PROFILE,
        dynamics=schedule if len(schedule) else None,
    )
    history = comdml.run()
    assert len(history) == 2

    total_time = history.total_time
    expected = set(range(base))
    for event in schedule:
        if event.kind == "arrival" and event.time <= total_time:
            expected.add(event.agent.agent_id)
        if event.kind == "departure" and event.time <= total_time:
            expected.discard(event.agent_id)
    assert set(comdml.registry.ids) == expected

    timestamps = [event.timestamp for event in comdml.trace]
    assert timestamps == sorted(timestamps)

    departures = {
        event.agent_ids[0]: event.timestamp
        for event in comdml.trace.of_kind("departure")
    }
    for event in comdml.trace.of_kind("unit_complete"):
        for agent_id in event.agent_ids:
            if agent_id in departures:
                assert event.timestamp <= departures[agent_id] + 1e-9


@hypothesis.seed(20261052)
@given(
    seed=st.integers(min_value=0, max_value=50),
    num_agents=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=10, deadline=None)
def test_sync_runtime_history_deterministic_under_fixed_seed(seed, num_agents):
    """Two sync-mode runs from the same seed produce identical histories."""
    from repro.core.comdml import ComDML
    from repro.core.config import ComDMLConfig
    from repro.agents.registry import AgentRegistry

    def run_once():
        registry = AgentRegistry.build(
            num_agents=num_agents,
            rng=np.random.default_rng(seed),
            samples_per_agent=400,
            batch_size=100,
        )
        comdml = ComDML(
            registry=registry,
            spec=RESNET56,
            config=ComDMLConfig(
                max_rounds=3,
                offload_granularity=9,
                participation_fraction=0.8,
                seed=seed,
            ),
            profile=PROFILE,
        )
        return comdml.run()

    assert run_once().records == run_once().records


# ----------------------------------------------------------------------
# Round closure under mid-round dynamics, in every mode
# ----------------------------------------------------------------------
#: The paper's five methods, by name, as the closure property draws them.
CLOSURE_METHODS = {
    "ComDML": ComDML,
    "Gossip Learning": GossipLearning,
    "BrainTorrent": BrainTorrent,
    "AllReduce": AllReduceDML,
    "FedAvg": FedAvg,
}


@st.composite
def closure_runs(draw):
    """A small population, an optional dynamics schedule and a run mode.

    The method is any of the paper's five, at full or half participation.
    Without a schedule a sync run takes the closed-form round.  With one,
    the schedule is non-empty: departures may draw any agent, and an
    optional drawn time makes every agent depart at once, so rounds may
    run on an emptied population.
    """
    num_agents = draw(st.integers(min_value=2, max_value=6))
    run = {
        "num_agents": num_agents,
        "dynamics": draw(st.booleans()),
        "arrivals": [],
        "departures": [],
        "churns": [],
        "method": draw(st.sampled_from(sorted(CLOSURE_METHODS))),
        "participation": draw(st.sampled_from((1.0, 0.5))),
        "mode": draw(st.sampled_from(("sync", "semi-sync", "async"))),
        "quorum_policy": draw(st.sampled_from(("fixed", "deadline"))),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }
    if not run["dynamics"]:
        return run
    times = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
    arrivals = draw(st.lists(times, max_size=2))
    departures = draw(
        st.lists(
            st.tuples(times, st.integers(min_value=0, max_value=num_agents - 1)),
            max_size=2,
        )
    )
    population = num_agents + len(arrivals)
    everyone_departs = draw(st.none() | times)
    if everyone_departs is not None:
        departures += [(everyone_departs, agent_id) for agent_id in range(population)]
    churn_targets = st.one_of(
        st.builds(dict, fraction=st.sampled_from((0.25, 0.5, 1.0))),
        st.builds(
            dict,
            agent_ids=st.lists(
                st.integers(min_value=0, max_value=population - 1),
                min_size=1,
                max_size=3,
                unique=True,
            ),
        ),
    )
    churns = draw(st.lists(st.tuples(times, churn_targets), max_size=3))
    if not (arrivals or departures or churns):
        churns = [(draw(times), {"fraction": 0.5})]
    return dict(run, arrivals=arrivals, departures=departures, churns=churns)


@hypothesis.seed(20240713)
@given(run=closure_runs())
@settings(max_examples=40, deadline=timedelta(seconds=2))
def test_dynamic_round_closure_accounts_for_every_unit(run):
    """Every planned unit ends a round in exactly one state, in every path.

    Per round: a sync barrier completes or abandons each unit, an async
    round aggregates or abandons each, and a semi-sync quorum keeps, drops
    or abandons each.  These are the counters the closures run on, checked
    against the plan and the trace; the trace's sink accounting closes too.
    Without a dynamics schedule nothing is abandoned, and the closed-form
    sync round's completions, recorded as one block, cover the round's
    participants exactly once.

    In every mode, with or without a schedule: each participant is in
    exactly one unit of its round's plan, a semi-sync quorum keeps and
    drops units of the plan (disjointly), a sync round's compute time
    covers every completion it waited for, and the participation fraction
    the learning plane sees lies in [0, 1].  FedAvg bills the transfers of
    its unit chains outside ``compute_seconds``, so its completions are
    bounded by the round's ``duration_seconds`` instead.
    """
    from collections import Counter

    from repro.agents.registry import AgentRegistry
    from repro.core.config import ComDMLConfig
    from repro.runtime.dynamics import DynamicsSchedule

    num_agents = run["num_agents"]
    schedule = DynamicsSchedule()
    for index, time in enumerate(run["arrivals"]):
        schedule.arrival(
            time,
            Agent(
                agent_id=num_agents + index,
                profile=ResourceProfile(CPU_PROFILES[index], 50.0),
                num_samples=300,
                batch_size=100,
            ),
        )
    for time, agent_id in run["departures"]:
        schedule.departure(time, agent_id=agent_id)
    for time, targets in run["churns"]:
        schedule.churn(time, **targets)

    trainer = CLOSURE_METHODS[run["method"]](
        registry=AgentRegistry.build(
            num_agents=num_agents,
            rng=np.random.default_rng(run["seed"]),
            samples_per_agent=400,
            batch_size=100,
        ),
        spec=RESNET56,
        config=ComDMLConfig(
            max_rounds=3,
            offload_granularity=9,
            execution_mode=run["mode"],
            quorum_policy=run["quorum_policy"],
            quorum_deadline_factor=0.8,
            participation_fraction=run["participation"],
            seed=run["seed"],
        ),
        profile=PROFILE,
        dynamics=schedule if run["dynamics"] else None,
    )
    plans = {}
    participants_per_round: dict[int, list[int]] = {}
    plan_round = trainer.plan_round

    def counting_plan_round(round_index, participants):
        plan = plan_round(round_index, participants)
        plans[round_index] = plan
        participants_per_round[round_index] = [agent.agent_id for agent in participants]
        return plan

    trainer.plan_round = counting_plan_round
    participations = []
    tracker = trainer.accuracy_tracker
    after_round = tracker.after_round

    def recording_after_round(decisions, participation, learning_rate):
        participations.append(participation)
        return after_round(decisions, participation, learning_rate)

    tracker.after_round = recording_after_round
    after_units = tracker.after_units

    def recording_after_units(decisions, participation_fractions, learning_rate):
        participations.extend(participation_fractions.tolist())
        return after_units(decisions, participation_fractions, learning_rate)

    tracker.after_units = recording_after_units
    history = trainer.run()

    trace = trainer.trace
    assert sorted(plans) == [0, 1, 2]
    assert all(0.0 <= participation <= 1.0 for participation in participations)
    for round_index, plan in plans.items():
        units = len(plan.durations)
        assert sorted(plan.decisions.agent_ids()) == sorted(
            participants_per_round[round_index]
        )
        plan_units = {plan.unit(row).agent_ids for row in range(units)}
        events = trace.for_round(round_index)
        counts = Counter(event.kind for event in events)
        abandoned = counts["unit_abandoned"]
        if not run["dynamics"]:
            assert abandoned == 0
        completed = [event for event in events if event.kind == "unit_complete"]
        if run["mode"] == "sync":
            assert counts["unit_complete"] + abandoned == units
            start = next(e.timestamp for e in events if e.kind == "round_start")
            record = history.records[round_index]
            bound = (
                record.duration_seconds
                if run["method"] == "FedAvg"
                else record.compute_seconds
            )
            for event in completed:
                # Two rounding steps separate a completion from its duration.
                slack = 2 * math.ulp(event.timestamp)
                assert event.timestamp - start <= bound + slack
            if not run["dynamics"]:
                covered = [
                    agent_id
                    for event in events
                    if event.kind == "unit_complete"
                    for agent_id in event.agent_ids
                ]
                assert sorted(covered) == sorted(participants_per_round[round_index])
        elif run["mode"] == "async":
            assert counts["aggregation"] + abandoned == units
        else:
            quorum = [event for event in events if event.kind == "quorum_reached"]
            assert len(quorum) == (1 if units else 0)
            kept = sum(event.detail["kept"] for event in quorum)
            dropped = sum(event.detail["dropped"] for event in quorum)
            assert kept + dropped + abandoned == units
            assert counts["straggler_dropped"] == dropped
            kept_units = {event.agent_ids for event in completed}
            dropped_units = {
                event.agent_ids for event in events if event.kind == "straggler_dropped"
            }
            assert len(kept_units) == kept and len(dropped_units) == dropped
            assert kept_units | dropped_units <= plan_units
            assert not kept_units & dropped_units
    trace.check_conservation()
