"""Registry-backed rounds read the population as columns.

A run built through ``ScenarioConfig`` hands its planner, round timing and
learning plane registry selections and plans, so no per-agent branch of
``agent_attrs``, ``bottleneck_bandwidth`` or the participation count runs
in any mode or method.  These tests patch those branches to fail, which
pins the column path with a count rather than a timing: a change that
copies the participants into a plain list fails them.  Every method
gathers its participants' six columns once per round; a baseline gathers
nothing else, except one six-column row for each unit it re-prices.
"""

import pytest

import repro.core.fastpath as fastpath
import repro.core.timing as timing
import repro.runtime.strategy as strategy
from repro.agents.agent import Agent
from repro.agents.registry import COLUMNS, AgentSelection
from repro.agents.resources import ResourceProfile
from repro.experiments.runner import METHOD_REGISTRY, ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.dynamics import DynamicsSchedule

#: The per-agent branches a registry-backed round must never take.
PER_AGENT_BRANCHES = (
    (fastpath, "_read_agent_attrs"),
    (timing, "_link_speeds"),
    (strategy, "_decision_agent_ids"),
)

ROUNDS = 3
AGENTS = 40

#: The names of one ``agent_attrs`` gather: every registry column.
ALL_COLUMNS = tuple(name for name, _, _ in COLUMNS)

BASELINES = sorted(set(METHOD_REGISTRY) - {"ComDML"})


@pytest.fixture
def column_gathers(monkeypatch):
    """Fail every per-agent branch; count the gathers that replace them."""

    def per_agent(*args, **kwargs):
        raise AssertionError("a registry-backed round read its agents one at a time")

    for module, name in PER_AGENT_BRANCHES:
        monkeypatch.setattr(module, name, per_agent)
    gathers = []
    gather = AgentSelection._gather

    def counted(self, names):
        gathers.append(tuple(names))
        return gather(self, names)

    monkeypatch.setattr(AgentSelection, "_gather", counted)
    return gathers


def _config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(
        num_agents=AGENTS,
        topology="ring",
        offload_granularity=9,
        samples_per_agent=400,
        max_rounds=ROUNDS,
        target_accuracy=None,
        seed=3,
        **overrides,
    )


def _run(method: str, config: ScenarioConfig, dynamics=None):
    trainer = ExperimentRunner(config).build_method(method, dynamics=dynamics)
    history = trainer.run()
    assert len(history.records) == ROUNDS
    return trainer


def test_sync_rounds_with_churn(column_gathers):
    _run("ComDML", _config(churn_fraction=0.2, churn_interval_rounds=1))
    assert ("bandwidth_mbps",) in column_gathers
    assert sum(len(names) == 6 for names in column_gathers) == ROUNDS


def _schedule() -> DynamicsSchedule:
    """Arrivals, departures and churn inside the first rounds."""
    schedule = DynamicsSchedule()
    for index, time in enumerate((5.0, 40.0, 90.0)):
        schedule.arrival(
            time,
            Agent(AGENTS + index, ResourceProfile(1.0, 20.0), num_samples=400),
            attachment="ring",
        )
    for time, agent_id in ((10.0, 3), (50.0, 7), (100.0, AGENTS)):
        schedule.departure(time, agent_id=agent_id)
    schedule.churn(20.0, fraction=0.3)
    schedule.churn(60.0, agent_ids=[1, 2, AGENTS + 1])
    return schedule


def test_semi_sync_rounds_under_a_schedule(column_gathers):
    trainer = _run(
        "ComDML",
        _config(execution_mode="semi-sync", quorum_fraction=0.8),
        dynamics=_schedule(),
    )
    kinds = {event.kind for event in trainer.runtime.trace.events}
    assert {"arrival", "departure", "churn", "quorum_reached"} <= kinds
    assert sum(len(names) == 6 for names in column_gathers) == ROUNDS


def test_async_rounds(column_gathers):
    _run(
        "ComDML",
        _config(execution_mode="async", churn_fraction=0.2, churn_interval_rounds=1),
    )
    assert sum(len(names) == 6 for names in column_gathers) == ROUNDS


@pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
def test_sampled_rounds_of_every_method(column_gathers, method):
    _run(method, _config(participation_fraction=0.2))
    assert column_gathers.count(ALL_COLUMNS) == ROUNDS
    if method == "ComDML":
        assert ("bandwidth_mbps",) in column_gathers
    else:
        assert len(column_gathers) == ROUNDS


@pytest.mark.parametrize("mode", ["semi-sync", "async"])
@pytest.mark.parametrize("method", BASELINES)
def test_baseline_rounds_under_a_schedule(column_gathers, method, mode):
    """A churned unit is re-priced from its registry row: one more gather
    of every column, never a read of the agent one attribute at a time."""
    overrides = {"quorum_fraction": 0.8} if mode == "semi-sync" else {}
    trainer = _run(
        method, _config(execution_mode=mode, **overrides), dynamics=_schedule()
    )
    events = trainer.runtime.trace.events
    assert {"arrival", "departure", "churn"} <= {event.kind for event in events}
    repriced = sum(event.kind == "unit_repriced" for event in events)
    assert repriced > 0
    assert column_gathers == [ALL_COLUMNS] * (ROUNDS + repriced)
