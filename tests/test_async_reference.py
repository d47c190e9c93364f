"""The batched async round against its per-unit reference.

:mod:`async_reference` keeps the async round as it ran unit by unit.  On
random small scenarios, with and without a random dynamics schedule, every
paper method must give the same history digest, trace chain head and
``kind_counts`` both ways.
"""

from __future__ import annotations

from collections import Counter

import hypothesis
import numpy as np
from hypothesis import given, strategies as st

from async_reference import unit_aggregation_seconds, use_reference_async
from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.agents.resources import ResourceProfile
from repro.core.comdml import ComDML
from repro.core.config import ComDMLConfig
from repro.experiments.runner import PAPER_COMPARISON_METHODS, ExperimentRunner
from repro.models.resnet import resnet56_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.audit import ChainState
from strategies import (
    DETERMINISM_SETTINGS,
    async_scenarios,
    build_schedule,
    dynamics_recipes,
)


@st.composite
def async_runs(draw):
    """A scenario and, half the time, a schedule recipe for it."""
    scenario = draw(async_scenarios())
    recipe = draw(st.none() | dynamics_recipes(scenario["num_agents"]))
    return scenario, recipe


def run_and_fingerprint(trainer) -> tuple:
    """Run to the end; ``(history digest, trace chain head, kind_counts)``."""
    history = trainer.run()
    chain = ChainState()
    for payload in trainer.trace.to_dicts():
        chain.update(payload)
    return history.digest(), chain.head, trainer.trace.kind_counts()


def test_batched_async_round_matches_the_per_unit_reference():
    """Equal digests, chain heads and kind counts, re-costs and abandons included."""
    fired: Counter = Counter()

    @hypothesis.seed(20261018)
    @DETERMINISM_SETTINGS
    @given(run=async_runs())
    def matches(run):
        scenario, recipe = run
        runner = ExperimentRunner(ScenarioConfig(**scenario))
        for method in PAPER_COMPARISON_METHODS:
            outcomes = []
            for reference in (False, True):
                trainer = runner.build_method(
                    method, dynamics=build_schedule(recipe) if recipe else None
                )
                if reference:
                    use_reference_async(trainer)
                outcomes.append(run_and_fingerprint(trainer))
            assert outcomes[0] == outcomes[1], method
            kinds = outcomes[0][2]
            fired.update(
                kind for kind in ("unit_repriced", "unit_abandoned") if kinds.get(kind)
            )

    matches()
    # The schedules reach units in flight: some runs re-cost and abandon.
    assert fired["unit_repriced"] and fired["unit_abandoned"], fired


def test_comdml_gossip_column_equals_the_per_unit_price():
    """Every row, including disconnected and departed members, prices alike."""
    profiles = [(cpu, mbps) for cpu in (4.0, 0.5, 0.2) for mbps in (0.0, 10.0, 100.0)]
    registry = AgentRegistry(
        Agent(agent_id=i, profile=ResourceProfile(*profile), num_samples=400)
        for i, profile in enumerate(profiles * 2)
    )
    comdml = ComDML(
        registry=registry,
        spec=resnet56_spec(),
        config=ComDMLConfig(offload_granularity=9),
    )
    plan = comdml.plan_round(0, registry.agents)
    assert plan.num_pairs >= 2
    # Depart the slow member of one pair and both members of another unit.
    pairs = np.flatnonzero(plan.decisions.fast_id >= 0)
    registry.remove(int(plan.decisions.slow_id[pairs[0]]))
    for agent_id in plan.unit(int(pairs[1])).agent_ids:
        registry.remove(agent_id)
    rows = np.arange(len(plan.durations))[::-1]
    column = comdml.async_unit_aggregation_seconds(plan, rows)
    expected = [unit_aggregation_seconds(comdml, plan, plan.unit(row)) for row in rows]
    assert column.tolist() == expected
    assert 0.0 in expected and len(set(expected)) >= 3
