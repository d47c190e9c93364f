"""Micro-benchmarks of the hot paths (proper pytest-benchmark statistics).

These are not paper reproductions; they track the library's own performance:
split profiling, the per-pair offload optimisation, round-timing assembly
(both the vectorized kernel and the scalar reference it replaced, so every
run records the speedup on the same machine), one round of local-loss
split training of the proxy model, steady ``ComDML`` rounds in each
execution mode at two populations, and steady rounds of the four
baselines of a Table III cell at two ring populations.

``tools/bench_trajectory.py`` runs this suite and appends the medians to
the repo's perf history (``BENCH_<n>.json``); see docs/performance.md.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import attach_peak_memory
from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.baselines import AllReduceDML, BrainTorrent, FedAvg, GossipLearning
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.core.csr import IncrementalCsr
from repro.core.fastpath import PairCostModel
from repro.core.pairing import PairingPlan, greedy_pairing, greedy_pairing_reference
from repro.core.planner import PrunedPlanner
from repro.core.profiling import profile_architecture
from repro.core.timing import compute_round_timing
from repro.core.workload import best_offload
from repro.data.synthetic import cifar10_like
from repro.models.proxy import ProxyModelFactory
from repro.models.resnet import resnet56_spec, resnet110_spec
from repro.network.link import LinkModel
from repro.network.topology import full_topology, random_k_topology, ring_topology
from repro.runtime.dynamics import ArrivalAttachment, DynamicsSchedule
from repro.training.local_loss import LocalLossSplitTrainer
from repro.utils.units import mbps_to_bytes_per_second


@pytest.mark.parametrize("spec_builder", [resnet56_spec, resnet110_spec])
def test_profile_architecture_speed(benchmark, spec_builder):
    """Cost of full-granularity split profiling (cold cache every round)."""
    spec = spec_builder()

    def profile_cold():
        profile_architecture.cache_clear()
        return profile_architecture(spec, None, 1)

    profile = benchmark(profile_cold)
    assert profile.num_options == spec.num_layers


def test_best_offload_speed(benchmark):
    """Cost of one AgentTrainingTime minimisation over all split candidates."""
    profile = profile_architecture(resnet56_spec(), granularity=1)
    slow = Agent(0, ResourceProfile(0.2, 50.0), num_samples=5_000, batch_size=100)
    fast = Agent(1, ResourceProfile(4.0, 100.0), num_samples=5_000, batch_size=100)
    estimate = benchmark(
        best_offload, slow, fast, profile, mbps_to_bytes_per_second(50.0)
    )
    assert estimate.offloaded_layers > 0


def _round_planning_workload():
    """The 50-agent plan-and-time workload shared by the two paths below."""
    registry = AgentRegistry.build(
        num_agents=50, rng=np.random.default_rng(0), samples_per_agent=1_000
    )
    profile = profile_architecture(resnet56_spec(), granularity=9)
    link_model = LinkModel(full_topology(registry.ids))
    return registry, profile, link_model


def test_round_timing_speed(benchmark):
    """Cost of planning and timing one 50-agent round (vectorized kernel).

    The dense kernel's decisions become the round's columns, as in the
    scheduler's dense path, before timing reduces them.

    This is the gated trajectory bench: CI fails if its median regresses
    more than 2x against the committed ``BENCH_5.json`` baseline.
    """
    registry, profile, link_model = _round_planning_workload()

    def plan_and_time():
        decisions = PairingPlan.from_decisions(
            greedy_pairing(registry.agents, link_model, profile)
        )
        return compute_round_timing(decisions, registry.agents, profile)

    timing = benchmark(plan_and_time)
    assert timing.total_time > 0


def test_round_timing_speed_scalar(benchmark):
    """The same 50-agent round on the scalar reference path.

    Kept so every trajectory run records the kernel speedup on identical
    hardware (vectorized vs scalar medians in one BENCH json).
    """
    registry, profile, link_model = _round_planning_workload()

    def plan_and_time_scalar():
        decisions = PairingPlan.from_decisions(
            greedy_pairing_reference(registry.agents, link_model, profile)
        )
        return compute_round_timing(decisions, registry.agents, profile)

    timing = benchmark(plan_and_time_scalar)
    assert timing.total_time > 0


def test_pair_cost_model_speed(benchmark):
    """Cost of one kernel evaluation (the full 50x50xM pair-time tensor)."""
    registry, profile, link_model = _round_planning_workload()

    model = benchmark(
        PairCostModel, registry.agents, profile, link_model=link_model
    )
    assert np.isfinite(model.best_pair_times).any()


def test_local_loss_split_training_round(benchmark):
    """Cost of one real local-loss split-training round on the proxy model."""
    train, _ = cifar10_like(train_samples=500, test_samples=100, num_features=32, seed=0)
    factory = ProxyModelFactory(
        spec=resnet56_spec(), input_features=32, num_blocks=3, width=32
    )
    trainer = LocalLossSplitTrainer(learning_rate=0.03, batch_size=50)

    def round_of_training():
        split = factory.build_split(27, rng=np.random.default_rng(1))
        return trainer.train(split, train)

    result = benchmark(round_of_training)
    assert result.batches > 0


# ----------------------------------------------------------------------
# Scalable-planner scaling curve (PR 6)
# ----------------------------------------------------------------------
#: Candidate budget used by every pruned-planner bench.
PLANNER_TOP_K = 8

#: The scaling grid.  The full topology stops at n=500: the benches time
#: the planner, not networkx's O(n²) complete-graph construction (the
#: planner itself handles complete graphs via the O(n·k) global pool).
#: The sparse topologies extend to n=50 000.  Population is the OUTER
#: loop so every small case — including the gated random-k-5000 point —
#: runs before the 50 000-agent cases dirty the process's memory state: the
#: --planner-dense-ratio gate compares medians within one run, and
#: hundreds of MB of allocator churn between the two benches skews the
#: pair by double-digit percentages.
PLANNER_SCALING_CASES = [
    pytest.param(kind, n, id=f"{kind}-{n}")
    for n in (50, 500, 5_000, 50_000)
    for kind in ("ring", "random-k", "full")
    if not (kind == "full" and n > 500)
]


def _planner_population(n: int) -> list[Agent]:
    """A heterogeneous n-agent population.

    Populations on the historical grid (n ≤ 5 000) keep the original
    per-agent draw order so their workloads — and the committed
    trajectory medians measured on them — stay comparable across
    snapshots.  Larger populations draw vectorized (the scalar loop's
    three RNG calls per agent are slow at 50 000).
    """
    rng = np.random.default_rng(n)
    if n <= 5_000:
        return [
            Agent(
                agent_id=index,
                profile=ResourceProfile(
                    float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                    float(rng.choice([10.0, 50.0, 100.0])),
                ),
                num_samples=int(rng.integers(200, 3_000)),
                batch_size=100,
            )
            for index in range(n)
        ]
    cpu_shares = rng.choice(np.array([4.0, 2.0, 1.0, 0.5]), size=n)
    bandwidths = rng.choice(np.array([10.0, 50.0, 100.0]), size=n)
    samples = rng.integers(200, 3_000, size=n)
    return [
        Agent(
            agent_id=index,
            profile=ResourceProfile(float(cpu_shares[index]), float(bandwidths[index])),
            num_samples=int(samples[index]),
            batch_size=100,
        )
        for index in range(n)
    ]


def _planner_link_model(agents: list[Agent], kind: str) -> LinkModel:
    ids = [agent.agent_id for agent in agents]
    if kind == "ring":
        return LinkModel(ring_topology(ids))
    if kind == "random-k":
        return LinkModel(random_k_topology(ids, 6, np.random.default_rng(1)))
    return LinkModel(full_topology(ids))


def test_dense_round_speed_500(benchmark):
    """The dense kernel planning a 500-agent round (comparison partner:
    the acceptance bar is pruned-5000 faster than dense-500).

    Defined ahead of the scaling curve so it runs before the
    50 000-agent cases for the same reason the grid puts population
    outermost: the --planner-dense-ratio gate pairs this bench with
    random-k-5000 and both must see a comparably clean process.
    """
    profile = profile_architecture(resnet56_spec(), granularity=9)
    agents = _planner_population(500)
    link_model = _planner_link_model(agents, "random-k")

    decisions = benchmark(greedy_pairing, agents, link_model, profile)
    assert decisions


@pytest.mark.parametrize("kind, n", PLANNER_SCALING_CASES)
def test_planner_round_speed(benchmark, kind, n):
    """Steady-state pruned-planner round: 1% churn, then plan.

    This is the scaling-curve bench: ``tools/bench_trajectory.py`` fits
    the exponent of median-vs-n on the random-k column and CI fails if
    planning cost grows super-linearly beyond tolerance, or if the 5000-
    agent round is slower than the dense kernel's 500-agent round.
    ``extra_info`` records the mean greedy-scan matching rounds per timed
    plan (``scan_rounds``), read outside the timer.
    """
    profile = profile_architecture(resnet56_spec(), granularity=9)
    agents = _planner_population(n)
    link_model = _planner_link_model(agents, kind)
    planner = PrunedPlanner(profile, link_model, top_k=PLANNER_TOP_K)
    planner.plan(agents)  # first-round build happens outside the timer
    stats = planner.stats
    before = (stats.rounds, stats.scan_rounds)
    churned = max(1, n // 100)
    rng = np.random.default_rng(99)

    def dynamics_round():
        for index in rng.choice(n, size=churned, replace=False):
            agent = agents[int(index)]
            agent.update_profile(
                ResourceProfile(
                    float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                    agent.profile.bandwidth_mbps,
                )
            )
        return planner.plan(agents)

    plan = benchmark(dynamics_round)
    benchmark.extra_info["scan_rounds"] = (stats.scan_rounds - before[1]) / (
        stats.rounds - before[0]
    )
    attach_peak_memory(benchmark, dynamics_round)
    assert sorted(plan.agent_ids()) == [agent.agent_id for agent in agents]


#: Population of the planner dynamics bench (perfbench's semi-sync size).
DYNAMICS_POPULATION = 10_000

#: Random-k arrivals and departures applied before each timed plan.
DYNAMICS_EVENTS = 20

#: Timed plans of the planner dynamics bench.
DYNAMICS_ROUNDS = 10


def test_planner_dynamics_round_speed(benchmark):
    """A planner round under dynamics: perfbench's semi-sync planner mix
    without the runtime.

    10 000 agents on random-k(6) with ``top_k=32``.  Before each timed
    plan the untimed setup applies 20 random-k arrivals, 20 departures and
    1 % churn, so every plan re-costs by cause and moves rows in and out
    of the planner state.  ``extra_info`` records the mean rows re-costed,
    pair options evaluated and greedy-scan matching rounds per timed
    plan, so trajectory snapshots show if re-costing or the scan's
    dependency depth grows again.  No gate reads this bench.
    """
    profile = profile_architecture(resnet56_spec(), granularity=9)
    agents = _planner_population(DYNAMICS_POPULATION)
    link_model = _planner_link_model(agents, "random-k")
    topology = link_model.topology
    planner = PrunedPlanner(profile, link_model, top_k=32)
    planner.plan(agents)  # first-round build happens outside the timer
    rng = np.random.default_rng(31)
    next_id = [DYNAMICS_POPULATION]

    def dynamics():
        for _ in range(DYNAMICS_EVENTS):
            agent_id = next_id[0]
            next_id[0] += 1
            topology.attach_agent(agent_id, policy="random-k", k=6, rng=rng)
            agents.append(
                Agent(
                    agent_id=agent_id,
                    profile=ResourceProfile(
                        float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                        float(rng.choice([10.0, 50.0, 100.0])),
                    ),
                    num_samples=int(rng.integers(200, 3_000)),
                    batch_size=100,
                )
            )
        gone = rng.choice(len(agents), size=DYNAMICS_EVENTS, replace=False)
        for index in sorted(gone.tolist(), reverse=True):
            topology.remove_agent(agents.pop(index).agent_id)
        for index in rng.choice(len(agents), size=len(agents) // 100, replace=False):
            agent = agents[int(index)]
            agent.update_profile(
                ResourceProfile(
                    float(rng.choice([4.0, 2.0, 1.0, 0.5])),
                    agent.profile.bandwidth_mbps,
                )
            )
        return (list(agents),), {}

    stats = planner.stats
    before = (
        stats.rounds, stats.rows_recomputed, stats.pairs_evaluated, stats.scan_rounds
    )
    plan = benchmark.pedantic(
        planner.plan, setup=dynamics, rounds=DYNAMICS_ROUNDS, iterations=1
    )
    plans = stats.rounds - before[0]
    benchmark.extra_info["rows_recomputed"] = (stats.rows_recomputed - before[1]) / plans
    benchmark.extra_info["pairs_evaluated"] = (stats.pairs_evaluated - before[2]) / plans
    benchmark.extra_info["scan_rounds"] = (stats.scan_rounds - before[3]) / plans
    assert sorted(plan.agent_ids()) == sorted(agent.agent_id for agent in agents)


def test_planner_cold_build_speed(benchmark):
    """Worst case: plan 5 000 agents from scratch (no caches at all)."""
    profile = profile_architecture(resnet56_spec(), granularity=9)
    agents = _planner_population(5_000)
    link_model = _planner_link_model(agents, "random-k")

    def cold_plan():
        planner = PrunedPlanner(profile, link_model, top_k=PLANNER_TOP_K)
        return planner.plan(agents)

    decisions = benchmark(cold_plan)
    assert decisions


# ----------------------------------------------------------------------
# The topology's CSR: arrival-wave edits vs a rebuild from edges
# ----------------------------------------------------------------------
#: Base population of the arrival-wave CSR benches.
CSR_WAVE_POPULATION = 50_000

#: Agents arriving per timed wave.  Small relative to the population so
#: the incremental bench measures the O(Δ) edit path; the rebuild bench
#: applies the *same* wave and also pays the O(E) build of the whole
#: graph, and ``tools/bench_trajectory.py`` gates on the same-run ratio
#: (``--csr-ratio``).
CSR_WAVE_ARRIVALS = 500

#: Timed waves per bench.
CSR_WAVE_ROUNDS = 5


def _csr_wave_topology():
    ids = list(range(CSR_WAVE_POPULATION))
    return random_k_topology(ids, 6, np.random.default_rng(17))


def _apply_arrival_wave(topology, rng, next_id):
    """``CSR_WAVE_ARRIVALS`` arrivals, each wired to 3 peers."""
    for offset in range(CSR_WAVE_ARRIVALS):
        neighbors = rng.integers(0, CSR_WAVE_POPULATION, size=3)
        topology.add_agent(
            next_id + offset,
            sorted({int(neighbor) for neighbor in neighbors}),
        )
    return next_id + CSR_WAVE_ARRIVALS


def test_csr_arrival_wave_incremental_speed(benchmark):
    """O(Δ) path: a 500-agent arrival wave edited into the CSR, then synced.

    Each timed round applies one wave — the topology appends slots and
    stages the new links in per-slot delta lists, cost proportional to
    the wave, not the graph — and then runs the planner's per-plan
    :meth:`~repro.core.csr.IncrementalCsr.sync`, which reads the touched
    nodes from the topology's stamps and translates the wave's arrivals
    as the participants.  The assertions pin that the sync saw the wave.
    """
    topology = _csr_wave_topology()
    sync = IncrementalCsr(topology)
    rng = np.random.default_rng(23)
    state = {"next_id": CSR_WAVE_POPULATION}

    def wave_and_sync():
        first = state["next_id"]
        state["next_id"] = _apply_arrival_wave(topology, rng, first)
        return sync.sync(tuple(range(first, state["next_id"])))

    touched = benchmark.pedantic(
        wave_and_sync, rounds=CSR_WAVE_ROUNDS, iterations=1
    )
    assert len(touched) >= CSR_WAVE_ARRIVALS
    assert (sync.translation.slots >= 0).all()


def test_csr_arrival_wave_rebuild_speed(benchmark):
    """O(E) reference: the same wave plus a build of the whole graph.

    Each timed round applies the wave and then builds the 50 000-agent
    graph afresh from its edge arrays (:func:`random_k_topology`), the
    price of a wave that dropped the structure.  The trajectory tool
    divides this median by the incremental one and fails CI below 3×.
    """
    topology = _csr_wave_topology()
    rng = np.random.default_rng(23)
    state = {"next_id": CSR_WAVE_POPULATION}

    def wave_and_build():
        state["next_id"] = _apply_arrival_wave(topology, rng, state["next_id"])
        return _csr_wave_topology()

    rebuilt = benchmark.pedantic(
        wave_and_build, rounds=CSR_WAVE_ROUNDS, iterations=1
    )
    # Under --benchmark-disable pedantic runs a single round, so assert
    # on whole waves applied rather than the full round count.
    nodes = topology.num_nodes
    assert nodes >= CSR_WAVE_POPULATION + CSR_WAVE_ARRIVALS
    assert (nodes - CSR_WAVE_POPULATION) % CSR_WAVE_ARRIVALS == 0
    assert rebuilt.num_nodes == CSR_WAVE_POPULATION and rebuilt.num_edges > 0


# ----------------------------------------------------------------------
# Steady ComDML rounds per execution mode: the event-driven runtime
# ----------------------------------------------------------------------
#: Populations of the steady-round benches, 8x apart: the
#: ``--event-exponent`` gate fits how the event-driven modes' cost over
#: the sync round grows between them.
RUNTIME_POPULATIONS = (1_000, 8_000)

#: Timed rounds per bench, after an untimed cold round 0.
RUNTIME_ROUNDS = 5

#: Simulated seconds of dynamics schedule per round.  A semi-sync round of
#: these populations lasts about 220 simulated seconds, so the schedule,
#: which covers two spare rounds, outlasts the bench.
RUNTIME_SCHEDULE_SECONDS_PER_ROUND = 250.0

#: Poisson arrival and departure rate per agent and simulated second
#: (0.2/s each at 4 000 agents), so every population sees the same
#: dynamics events per unit.
RUNTIME_EVENT_RATE_PER_AGENT = 0.2 / 4_000


def _runtime_schedule(ids: list[int]) -> DynamicsSchedule:
    """Seeded Poisson arrivals and departures plus a 1 % churn event per 150 s."""
    horizon = (RUNTIME_ROUNDS + 2) * RUNTIME_SCHEDULE_SECONDS_PER_ROUND
    rate = RUNTIME_EVENT_RATE_PER_AGENT * len(ids)
    schedule = DynamicsSchedule.poisson(
        horizon=horizon,
        arrival_rate=rate,
        departure_rate=rate,
        seed=5,
        departure_candidates=ids,
        id_start=len(ids),
        attachment=ArrivalAttachment(policy="random-k", k=6, seed=5),
    )
    for churn_time in np.arange(150.0, horizon, 150.0):
        schedule.churn(float(churn_time), fraction=0.01)
    return schedule


def _steady_runtime_rounds(benchmark, mode: str, population: int) -> None:
    """Time ``run_round`` on rounds 1.. of a random-k(6) run.

    Sync and async churn 1 % of the profiles at every round boundary; the
    semi-sync run (fixed 0.8 quorum) gets its churn, arrivals and
    departures mid-round from a seeded dynamics schedule instead, so its
    flight table re-costs and abandons units.  ``tools/bench_trajectory.py``
    fits the growth of the semi-sync and async medians over the sync one
    across the populations (``--event-exponent``).  ``extra_info`` records
    the mean batch rows per engine run of the timed rounds
    (``rows_per_batch_run``), where they fire batches.
    """
    agents = _planner_population(population)
    ids = [agent.agent_id for agent in agents]
    dynamic = mode == "semi-sync"
    trainer = ComDML(
        registry=AgentRegistry(agents),
        spec=resnet56_spec(),
        config=ComDMLConfig(
            offload_granularity=9,
            execution_mode=mode,
            quorum_fraction=0.8,
            churn_fraction=0.0 if dynamic else 0.01,
            churn_interval_rounds=1,
            max_rounds=RUNTIME_ROUNDS + 1,
            target_accuracy=None,
            seed=1,
        ),
        topology=random_k_topology(ids, 6, np.random.default_rng(1)),
        dynamics=_runtime_schedule(ids) if dynamic else None,
    )
    trainer.run_round(0)  # cold planner build, outside the timer
    rounds = iter(range(1, RUNTIME_ROUNDS + 1))
    engine = trainer.runtime.engine
    before = (engine.batch_runs, engine.batch_rows)

    def steady_round():
        return trainer.run_round(next(rounds))

    record = benchmark.pedantic(steady_round, rounds=RUNTIME_ROUNDS, iterations=1)
    assert record.duration_seconds > 0
    trainer.trace.check_conservation()
    runs = engine.batch_runs - before[0]
    if runs:
        benchmark.extra_info["rows_per_batch_run"] = (
            engine.batch_rows - before[1]
        ) / runs


@pytest.mark.parametrize(
    "population, mode",
    [
        pytest.param(population, mode, id=f"{mode}-{population}")
        for population in RUNTIME_POPULATIONS
        for mode in ("sync", "semi-sync", "async")
    ],
)
def test_runtime_round_speed(benchmark, population, mode):
    """Steady ComDML rounds: closed-form sync, and semi-sync and async on
    the flight table (a round's completions one engine batch, fired a run
    of due rows per engine step; async prices its gossip as one column and
    adds its aggregations as a second batch, which interleaves with the
    first, and steps the learning plane once per trace flush).

    Population is the outer loop, so the three modes of one population
    run back to back and a drift in the host's speed shifts all three.
    """
    _steady_runtime_rounds(benchmark, mode, population)


# ----------------------------------------------------------------------
# Steady baseline rounds: the comparison methods at scale
# ----------------------------------------------------------------------
#: The baselines of a paper Table III cell, by bench id.
BASELINE_METHODS = {
    "Gossip": GossipLearning,
    "BrainTorrent": BrainTorrent,
    "AllReduce": AllReduceDML,
    "FedAvg": FedAvg,
}

#: Ring populations of the baseline benches, 8x apart: the
#: ``--baseline-exponent`` gate fits each method's growth between them.
BASELINE_POPULATIONS = (1_000, 8_000)

#: Timed rounds per baseline bench, after an untimed round 0.  Each timed
#: round runs one steady round of each population; the gate fits their
#: fastest rounds, and a round costs at most tens of ms.
BASELINE_ROUNDS = 15


def _baseline_trainer(method: str, population: int):
    agents = _planner_population(population)
    return BASELINE_METHODS[method](
        registry=AgentRegistry(agents),
        spec=resnet56_spec(),
        config=ComDMLConfig(
            offload_granularity=9,
            max_rounds=BASELINE_ROUNDS + 1,
            target_accuracy=None,
            seed=1,
        ),
        topology=ring_topology([agent.agent_id for agent in agents]),
    )


@pytest.mark.parametrize("method", list(BASELINE_METHODS))
def test_baseline_round_speed(benchmark, method):
    """Steady sync rounds of one baseline on a ring, every agent taking part.

    A baseline prices its participants as columns, so its round's cost
    grows at most linearly with the population; at 1 000 agents the
    round's fixed costs are a third to a half of it, and the exponent
    ``tools/bench_trajectory.py`` fits between the two populations
    (``--baseline-exponent``) reads 0.7 to 0.85.  Gossip's
    neighbour search used to ask every participant pair for a link, which
    fits an exponent near 2.  The tool also prints the fastest rounds in
    ms, where a constant-factor regression shows.
    Both populations' trainers are built and run round 0 outside the
    timer; each timed round then runs one steady round of each, so a slow
    stretch of the host hits both populations alike.  ``extra_info``
    records each population's fastest round, the points the gate fits.
    """
    trainers = {
        population: _baseline_trainer(method, population)
        for population in BASELINE_POPULATIONS
    }
    for trainer in trainers.values():
        trainer.run_round(0)  # cold caches, outside the timer
    fastest = dict.fromkeys(trainers, float("inf"))
    rounds = iter(range(1, BASELINE_ROUNDS + 1))

    def steady_rounds():
        round_index = next(rounds)
        for population, trainer in trainers.items():
            start = time.perf_counter()
            record = trainer.run_round(round_index)
            elapsed = time.perf_counter() - start
            fastest[population] = min(fastest[population], elapsed)
            assert record.duration_seconds > 0

    benchmark.pedantic(steady_rounds, rounds=BASELINE_ROUNDS, iterations=1)
    for population, seconds in fastest.items():
        benchmark.extra_info[f"fastest_round_seconds_{population}"] = seconds
