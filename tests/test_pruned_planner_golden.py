"""Golden regression for ComDML runs planned by the pruned planner.

Every case in ``tests/data/runtime_sync_golden.json`` and
``tests/data/runtime_modes_golden.json`` uses 6–8 agents on a complete
graph, below ``ComDMLConfig.planner_threshold``, so those files pin the
planner at the exact budget (``k = n − 1``, no candidate pruned).  This
file pins runs that prune from the first round (``planner_threshold=1``)
on a few hundred agents wired by
:func:`~repro.network.topology.random_k_topology`, so the incremental CSR
link index, the top-k candidate cut and the greedy scan's fallback walk
(a row whose fastest candidate is already taken) all run.
``tests/data/pruned_planner_golden.json`` holds, per case, the run's
:meth:`~repro.training.metrics.RunHistory.digest`, the hash-chain head of
its trace and the trace's ``kind_counts``.

Regenerate the file only when a change is meant to alter results::

    PYTHONPATH=src python tests/test_pruned_planner_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.comdml import ComDML
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.network.topology import random_k_topology
from repro.runtime.audit import ChainState
from repro.runtime.dynamics import ArrivalAttachment, DynamicsSchedule

GOLDEN_PATH = Path(__file__).parent / "data" / "pruned_planner_golden.json"

#: The scenario every case runs; each case overrides the mode fields.
SCENARIO = dict(
    num_agents=300,
    topology="ring",
    max_rounds=4,
    offload_granularity=9,
    samples_per_agent=500,
    churn_fraction=0.05,
    churn_interval_rounds=1,
    target_accuracy=None,
    seed=5,
)

#: Degree of the random-k topology, and the planner's candidate budget
#: (below the degree, so the top-k cut drops candidates).
RANDOM_K = 6
TOP_K = 4

#: Case name -> (scenario overrides, whether the run carries a schedule).
CASES = {
    "sync": (dict(execution_mode="sync"), False),
    "semi-sync": (
        dict(
            execution_mode="semi-sync",
            quorum_fraction=0.8,
            participation_fraction=0.9,
        ),
        False,
    ),
    "async": (dict(execution_mode="async"), False),
    "semi-sync-dynamic": (
        dict(execution_mode="semi-sync", quorum_fraction=0.8),
        True,
    ),
}

#: Simulated seconds of schedule per round (a round lasts ~100 s).
SCHEDULE_SECONDS_PER_ROUND = 250.0


def build_trainer(case: str) -> ComDML:
    """ComDML on a random-k topology with the pruned planner on every round."""
    overrides, dynamic = CASES[case]
    scenario = build_scenario(ScenarioConfig(**SCENARIO, **overrides))
    topology = random_k_topology(
        scenario.registry.ids, RANDOM_K, scenario.seeds.generator("topology")
    )
    dynamics = None
    if dynamic:
        horizon = SCENARIO["max_rounds"] * SCHEDULE_SECONDS_PER_ROUND
        dynamics = DynamicsSchedule.poisson(
            horizon=horizon,
            arrival_rate=0.05,
            departure_rate=0.05,
            seed=SCENARIO["seed"],
            departure_candidates=scenario.registry.ids,
            id_start=SCENARIO["num_agents"],
            attachment=ArrivalAttachment(policy="random-k", k=RANDOM_K, seed=1),
        )
        churn_time = 60.0
        while churn_time < horizon:
            dynamics.churn(churn_time, fraction=0.05)
            churn_time += 150.0
    config = dataclasses.replace(
        scenario.comdml_config, planner_threshold=1, planner_top_k=TOP_K
    )
    return ComDML(
        registry=scenario.registry,
        spec=scenario.spec,
        config=config,
        topology=topology,
        accuracy_tracker=scenario.curve_tracker("comdml"),
        profile=scenario.profile,
        dynamics=dynamics,
    )


def summarise(trainer: ComDML) -> dict:
    """Reduce a finished run to what the golden file pins."""
    chain = ChainState()
    for payload in trainer.trace.to_dicts():
        chain.update(payload)
    return {
        "digest": trainer.history.digest(),
        "chain_head": chain.head,
        "kind_counts": trainer.trace.kind_counts(),
    }


def run_case(case: str) -> dict:
    trainer = build_trainer(case)
    trainer.run()
    return summarise(trainer)


def record() -> dict:
    return {
        "scenario": SCENARIO,
        "random_k": RANDOM_K,
        "top_k": TOP_K,
        "cases": {case: run_case(case) for case in CASES},
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.mark.parametrize("case", sorted(CASES))
def test_pruned_planner_runs_reproduce_golden(case):
    assert run_case(case) == GOLDEN["cases"][case]


def test_golden_covers_the_pruned_planner_paths():
    """The pinned runs plan every round on the pruned planner's CSR path."""
    assert GOLDEN["scenario"] == SCENARIO
    assert (GOLDEN["random_k"], GOLDEN["top_k"]) == (RANDOM_K, TOP_K)
    assert set(GOLDEN["cases"]) == set(CASES)
    counts = GOLDEN["cases"]["semi-sync-dynamic"]["kind_counts"]
    for kind in ("arrival", "departure", "unit_repriced"):
        assert counts.get(kind, 0) > 0, kind

    trainer = build_trainer("sync")
    trainer.run()
    stats = trainer.planner.stats
    assert stats.rounds == SCENARIO["max_rounds"]
    assert stats.csr_rebuilds >= 1
    # The last round's pairs against the planner's scan order: a pair
    # whose helper is not the slow row's fastest candidate came from the
    # fallback walk past an already-claimed candidate.
    state = trainer.planner.state
    row_of = {
        agent_id: int(state.row_of_pos[pos]) for pos, agent_id in enumerate(state.ids)
    }
    last_round = SCENARIO["max_rounds"] - 1
    fallbacks = 0
    for event in trainer.trace.events:
        if event.round_index != last_round or event.kind != "unit_complete":
            continue
        if len(event.agent_ids) == 2:
            slow, fast = event.agent_ids
            fastest = int(state.scan_rows[row_of[slow], 0])
            fallbacks += state.ids[state.pos_of_row[fastest]] != fast
    assert fallbacks > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
