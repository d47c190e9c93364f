"""The benchmark's workloads: whole training runs built from ``ScenarioConfig``.

Each workload is a closed loop of simulated rounds in one process: a
repetition builds its method(s) from a seeded ``ScenarioConfig`` (the
timed set-up) and then runs a fixed number of rounds per method with
``target_accuracy=None``, so every repetition does the same work.  All
randomness — population, topology, dynamics schedule — hangs off the
workload seed.  ``small=True`` shrinks every population to a few hundred
agents for the benchmark's own tests; the code path is otherwise the same.

``ScenarioConfig.topology`` offers no sparse random graph yet, so the
random-k workloads build the scenario on a ring (O(n)), then build the
random-k graph with :func:`repro.network.topology.random_k_topology` and
hand it to ``ComDML(topology=...)``; the unused ring is part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.comdml import ComDML
from repro.experiments.runner import PAPER_COMPARISON_METHODS, ExperimentRunner
from repro.experiments.scenarios import Scenario, ScenarioConfig, build_scenario
from repro.network.topology import random_k_topology
from repro.runtime.dynamics import ArrivalAttachment, DynamicsSchedule

#: Population of every ComDML workload under ``small=True`` (above the
#: default ``planner_threshold`` of 256, so the pruned planner still plans).
SMALL_AGENTS = 300
#: Rounds per method and repetition under ``small=True``.
SMALL_ROUNDS = 3
#: Degree of the random-k topologies and of random-k arrivals.
RANDOM_K = 6
#: Simulated seconds of dynamics schedule generated per round; a
#: semi-sync round of the dynamics workload lasts about 100 simulated
#: seconds, and the run checks that the horizon covers the whole run.
SCHEDULE_SECONDS_PER_ROUND = 250.0
#: Interval of the schedule's 1 % churn events, in simulated seconds.
SCHEDULE_CHURN_INTERVAL = 150.0


@dataclass
class Setup:
    """One repetition's constructed methods, in run order."""

    methods: list[tuple[str, object]]
    #: End of the dynamics schedule, when the workload has one: the run
    #: must finish before it, or the tail of the run has no dynamics.
    horizon: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build one repetition and how long it runs.

    Why each workload is in the benchmark is in ``BENCHMARK.json``.
    """

    name: str
    #: Rounds per method in one repetition at full size.
    rounds: int
    build: Callable[[int, bool, int], Setup] = field(repr=False)

    def rounds_for(self, small: bool) -> int:
        return SMALL_ROUNDS if small else self.rounds

    def setup(self, seed: int, small: bool = False) -> Setup:
        return self.build(seed, small, self.rounds_for(small))


def _comdml(scenario: Scenario, topology, dynamics=None) -> ComDML:
    """ComDML on the scenario's objects, as ``ExperimentRunner.build_method`` wires it."""
    return ComDML(
        registry=scenario.registry,
        spec=scenario.spec,
        config=scenario.comdml_config,
        topology=topology,
        accuracy_tracker=scenario.curve_tracker("comdml"),
        profile=scenario.profile,
        dynamics=dynamics,
    )


def _scenario(seed: int, rounds: int, num_agents: int, **overrides) -> Scenario:
    return build_scenario(
        ScenarioConfig(
            num_agents=num_agents,
            topology="ring",
            offload_granularity=9,
            samples_per_agent=500,
            max_rounds=rounds,
            target_accuracy=None,
            seed=seed,
            **overrides,
        )
    )


def _random_k(scenario: Scenario):
    return random_k_topology(
        scenario.registry.ids, RANDOM_K, scenario.seeds.generator("topology")
    )


def build_sync_ring(seed: int, small: bool, rounds: int) -> Setup:
    scenario = _scenario(
        seed,
        rounds,
        SMALL_AGENTS if small else 20_000,
        churn_fraction=0.01,
        churn_interval_rounds=1,
    )
    return Setup([("ComDML", _comdml(scenario, scenario.topology))])


def build_semisync_dynamic(seed: int, small: bool, rounds: int) -> Setup:
    num_agents = SMALL_AGENTS if small else 10_000
    scenario = _scenario(
        seed,
        rounds,
        num_agents,
        execution_mode="semi-sync",
        quorum_fraction=0.8,
        quorum_policy="fixed",
    )
    topology = _random_k(scenario)
    horizon = rounds * SCHEDULE_SECONDS_PER_ROUND
    schedule = DynamicsSchedule.poisson(
        horizon=horizon,
        arrival_rate=0.2,
        departure_rate=0.2,
        seed=seed,
        departure_candidates=scenario.registry.ids,
        id_start=num_agents,
        attachment=ArrivalAttachment(policy="random-k", k=RANDOM_K, seed=seed),
    )
    churn_time = SCHEDULE_CHURN_INTERVAL
    while churn_time < horizon:
        schedule.churn(churn_time, fraction=0.01)
        churn_time += SCHEDULE_CHURN_INTERVAL
    return Setup(
        [("ComDML", _comdml(scenario, topology, dynamics=schedule))], horizon=horizon
    )


def build_async_random_k(seed: int, small: bool, rounds: int) -> Setup:
    scenario = _scenario(
        seed,
        rounds,
        SMALL_AGENTS if small else 5_000,
        churn_fraction=0.01,
        churn_interval_rounds=1,
        execution_mode="async",
    )
    return Setup([("ComDML", _comdml(scenario, _random_k(scenario)))])


def table3_config(seed: int, small: bool, rounds: int) -> ScenarioConfig:
    return ScenarioConfig(
        num_agents=50 if small else 500,
        participation_fraction=0.2,
        offload_granularity=9,
        samples_per_agent=500,
        max_rounds=rounds,
        target_accuracy=None,
        seed=seed,
    )


def build_table3_cell(seed: int, small: bool, rounds: int) -> Setup:
    runner = ExperimentRunner(table3_config(seed, small, rounds))
    # ExperimentRunner.compare builds and runs the methods one after the
    # other; building them all first is equivalent (each gets a fresh
    # registry and label-seeded generators) and times set-up separately.
    return Setup(
        [(method, runner.build_method(method)) for method in PAPER_COMPARISON_METHODS]
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "sync-ring-20k",
            rounds=5,
            build=build_sync_ring,
        ),
        Workload(
            "semisync-dyn-rk-10k",
            rounds=3,
            build=build_semisync_dynamic,
        ),
        Workload(
            "async-rk-5k",
            rounds=3,
            build=build_async_random_k,
        ),
        Workload(
            "table3-500-p20",
            rounds=10,
            build=build_table3_cell,
        ),
    )
}
