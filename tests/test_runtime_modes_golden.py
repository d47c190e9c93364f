"""Golden regression for the event-driven execution paths.

``tests/data/runtime_sync_golden.json`` pins the closed-form sync round;
this file pins the flight-table rounds.  ``tests/data/runtime_modes_golden.json`` holds,
for every case in :data:`CASES` and every method in :data:`METHODS`, the
run's :meth:`~repro.training.metrics.RunHistory.digest`, the hash-chain
head of its trace (:class:`~repro.runtime.audit.ChainState` folded over
``EventTrace.to_dicts()``) and the trace's ``kind_counts``.

The cases cover ``semi-sync`` and ``async`` without a schedule and all
three modes under one (``sync``, ``semi-sync`` under a fixed and a
deadline quorum, ``async``).  The schedule churns, departs and admits
agents mid-round, so ``unit_repriced``, ``unit_abandoned`` and ``arrival``
fire, and the deadline case fires ``quorum_deadline`` too.

Regenerate the file only when a change is meant to alter results::

    PYTHONPATH=src python tests/test_runtime_modes_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.audit import ChainState
from repro.runtime.dynamics import DynamicsSchedule

GOLDEN_PATH = Path(__file__).parent / "data" / "runtime_modes_golden.json"

#: The small scenario every case runs; each case overrides the mode fields.
SCENARIO = dict(
    num_agents=8,
    max_rounds=4,
    offload_granularity=9,
    samples_per_agent=500,
    participation_fraction=0.8,
    churn_fraction=0.5,
    churn_interval_rounds=2,
    seed=11,
)

#: ComDML plus one baseline whose units are single agents.
METHODS = ("ComDML", "AllReduce")

#: Case name -> (scenario overrides, whether the run carries a schedule).
CASES = {
    "semi-sync": (dict(execution_mode="semi-sync", quorum_fraction=0.6), False),
    "async": (dict(execution_mode="async"), False),
    "sync-dynamic": (dict(execution_mode="sync"), True),
    "semi-sync-fixed-dynamic": (
        dict(execution_mode="semi-sync", quorum_fraction=0.6),
        True,
    ),
    "semi-sync-deadline-dynamic": (
        dict(
            execution_mode="semi-sync",
            quorum_policy="deadline",
            quorum_deadline_factor=0.7,
        ),
        True,
    ),
    "async-dynamic": (dict(execution_mode="async"), True),
}

#: Approximate length of one dynamics-free sync round of each method on
#: :data:`SCENARIO`, in simulated seconds; the schedule is laid out in
#: multiples of it so its events land mid-round for both methods.
ROUND_SECONDS = {"ComDML": 75.0, "AllReduce": 390.0}


def build_schedule(period: float) -> DynamicsSchedule:
    """Churn, departures and arrivals spread over the first four rounds."""

    def newcomer(agent_id: int, cpu: float) -> Agent:
        return Agent(
            agent_id=agent_id,
            profile=ResourceProfile(cpu, 50.0),
            num_samples=400,
            batch_size=100,
        )

    schedule = DynamicsSchedule()
    schedule.churn(0.25 * period, agent_ids=(1, 2, 3))
    schedule.departure(0.45 * period, agent_id=0)
    schedule.arrival(0.6 * period, newcomer(100, 2.0))
    schedule.churn(1.3 * period, fraction=0.5)
    schedule.departure(1.5 * period, agent_id=6)
    schedule.arrival(1.8 * period, newcomer(101, 0.5))
    schedule.departure(2.4 * period, agent_id=4)
    schedule.churn(2.6 * period, agent_ids=(5, 7, 100))
    schedule.churn(3.3 * period, fraction=0.5)
    return schedule


def run_case(case: str, method: str) -> dict:
    """Run one case and reduce it to what the golden file pins."""
    overrides, dynamic = CASES[case]
    runner = ExperimentRunner(ScenarioConfig(**SCENARIO, **overrides))
    dynamics = build_schedule(ROUND_SECONDS[method]) if dynamic else None
    history, trace = runner.run_method_with_trace(method, dynamics=dynamics)
    chain = ChainState()
    for payload in trace.to_dicts():
        chain.update(payload)
    return {
        "digest": history.digest(),
        "chain_head": chain.head,
        "kind_counts": trace.kind_counts(),
    }


def record() -> dict:
    return {
        "scenario": SCENARIO,
        "cases": {
            f"{case}/{method}": run_case(case, method)
            for case in CASES
            for method in METHODS
        },
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_event_driven_paths_reproduce_golden(case, method):
    expected = GOLDEN["cases"][f"{case}/{method}"]
    assert run_case(case, method) == expected


def test_golden_exercises_every_mid_round_event():
    """The pinned runs really cover what the event-driven paths handle."""
    assert GOLDEN["scenario"] == SCENARIO
    assert set(GOLDEN["cases"]) == {
        f"{case}/{method}" for case in CASES for method in METHODS
    }
    for case, (_, dynamic) in CASES.items():
        for method in METHODS:
            counts = GOLDEN["cases"][f"{case}/{method}"]["kind_counts"]
            if dynamic:
                for kind in ("arrival", "unit_repriced", "unit_abandoned"):
                    assert counts.get(kind, 0) > 0, (case, method, kind)
            if case == "semi-sync-deadline-dynamic":
                assert counts.get("quorum_deadline", 0) > 0, method


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
