"""Rounds fire their batches in runs, and a run gives what its rows give.

The engine hands a batch's whole run of due rows to one callback, unless a
kind handler or an observer needs each row as an ``Event``: then every run
is one row.  So a no-op observer replays a round row by row, and on random
small scenarios in every execution mode both ways must give the same
history digest, trace and event count.  A count test pins that the
event-driven rounds do fire in runs.
"""

from __future__ import annotations

from collections import Counter

import hypothesis
import pytest
from hypothesis import given, strategies as st

from repro.experiments.runner import PAPER_COMPARISON_METHODS, ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.dynamics import ArrivalAttachment, DynamicsSchedule
from strategies import (
    DETERMINISM_SETTINGS,
    async_scenarios,
    build_schedule,
    dynamics_recipes,
)


@st.composite
def mode_runs(draw):
    """A scenario in a drawn mode and, half the time, a schedule recipe for it.

    A semi-sync scenario draws its quorum policy; the others ignore it.
    """
    scenario = draw(async_scenarios())
    scenario.update(
        execution_mode=draw(st.sampled_from(("sync", "semi-sync", "async"))),
        quorum_policy=draw(st.sampled_from(("fixed", "deadline", "adaptive"))),
        quorum_fraction=draw(st.sampled_from((0.5, 0.8))),
    )
    recipe = draw(st.none() | dynamics_recipes(scenario["num_agents"]))
    return scenario, recipe


#: An async scenario, and its schedule recipe, whose first round closes
#: inside a run of gossip rows.
CLOSING_RUN = dict(
    num_agents=23,
    participation_fraction=1.0,
    churn_fraction=0.0,
    churn_interval_rounds=1,
    execution_mode="async",
    max_rounds=3,
    offload_granularity=9,
    samples_per_agent=400,
    target_accuracy=None,
    seed=30303,
)
CLOSING_RUN_RECIPE = {
    "num_agents": 23,
    "arrivals": [],
    "departures": [],
    "churns": [(1.0, [11])],
}


def run_and_fingerprint(trainer, observed: bool) -> tuple:
    """Run to the end, row by row if ``observed``.

    Returns the run's outputs (history digest, trace records, processed
    events), then its batch runs and batch rows.
    """
    engine = trainer.runtime.engine
    if observed:
        engine.subscribe(lambda event: None)
    history = trainer.run()
    outputs = (history.digest(), trainer.trace.to_dicts(), engine.processed_events)
    return outputs, engine.batch_runs, engine.batch_rows


def test_rounds_fire_the_same_in_runs_as_in_rows():
    """Equal digests, traces and event counts, re-costs and abandons included."""
    seen: Counter = Counter()

    @hypothesis.seed(20261019)
    @DETERMINISM_SETTINGS
    @given(run=mode_runs())
    # A churned unit's stale gossip row follows the async round's closing
    # one in the same run: the run must end at the close, or the clock
    # runs on to the stale row and every later round starts late.
    @hypothesis.example(run=(CLOSING_RUN, CLOSING_RUN_RECIPE))
    def matches(run):
        scenario, recipe = run
        runner = ExperimentRunner(ScenarioConfig(**scenario))
        for method in PAPER_COMPARISON_METHODS:
            results = [
                run_and_fingerprint(
                    runner.build_method(
                        method, dynamics=build_schedule(recipe) if recipe else None
                    ),
                    observed,
                )
                for observed in (False, True)
            ]
            (outputs, runs, rows), (row_outputs, row_runs, row_rows) = results
            assert outputs == row_outputs, method
            # Under the observer every run is one row, and the rows agree.
            assert row_runs == row_rows == rows, method
            if runs < rows:
                seen[scenario["execution_mode"]] += 1
            kinds = Counter(record["kind"] for record in outputs[1])
            seen.update(
                kind for kind in ("unit_repriced", "unit_abandoned") if kinds[kind]
            )

    matches()
    # Every event-driven mode fired multi-row runs, and the schedules
    # reached units in flight.
    assert all(seen[mode] for mode in ("sync", "semi-sync", "async")), seen
    assert seen["unit_repriced"] and seen["unit_abandoned"], seen


#: Population and rounds of the count test: those of the benchmark's small
#: semi-sync and async builds.
COUNT_AGENTS = 300
COUNT_ROUNDS = 3


def _count_trainer(mode: str, seed: int):
    """A 300-agent ComDML run like the benchmark's small event-driven builds.

    As there, semi-sync keeps a fixed 0.8 quorum under Poisson arrivals and
    departures (0.2/s each) and 1 % churn every 150 simulated seconds, and
    async churns 1 % of the profiles at every round boundary; the topology
    is a ring here, not random-k(6).
    """
    semi_sync = mode == "semi-sync"
    runner = ExperimentRunner(
        ScenarioConfig(
            num_agents=COUNT_AGENTS,
            topology="ring",
            offload_granularity=9,
            samples_per_agent=500,
            max_rounds=COUNT_ROUNDS,
            target_accuracy=None,
            execution_mode=mode,
            quorum_fraction=0.8,
            churn_fraction=0.0 if semi_sync else 0.01,
            churn_interval_rounds=1,
            seed=seed,
        )
    )
    if not semi_sync:
        return runner.build_method("ComDML")
    horizon = COUNT_ROUNDS * 250.0
    schedule = DynamicsSchedule.poisson(
        horizon=horizon,
        arrival_rate=0.2,
        departure_rate=0.2,
        seed=seed,
        departure_candidates=runner.scenario.registry.ids,
        id_start=COUNT_AGENTS,
        attachment=ArrivalAttachment(policy="random-k", k=6, seed=seed),
    )
    churn_time = 150.0
    while churn_time < horizon:
        schedule.churn(churn_time, fraction=0.01)
        churn_time += 150.0
    return runner.build_method("ComDML", dynamics=schedule)


@pytest.mark.parametrize("mode", ["semi-sync", "async"])
@pytest.mark.parametrize("seed", [1, 2])
def test_event_driven_rounds_fire_in_runs(mode, seed):
    """At most a quarter as many batch runs as batch rows.

    Row by row, every row would be one run; the rows of a round's batches
    come in runs of several because little else is queued between them.
    """
    trainer = _count_trainer(mode, seed)
    trainer.run()
    engine = trainer.runtime.engine
    assert engine.batch_rows > COUNT_AGENTS
    assert 4 * engine.batch_runs <= engine.batch_rows, (
        engine.batch_runs,
        engine.batch_rows,
    )
