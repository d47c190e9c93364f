"""Campaign cell runner for free-form method comparisons.

Everything ``comdml compare`` can express — scenario shape, execution mode,
quorum policy, and an optional :class:`~repro.runtime.dynamics.DynamicsSchedule`
— packaged as one campaign cell per method, so ad-hoc comparisons get the
same parallelism, caching, and resumability as the paper's tables.  The
cell payload carries the summary row the CLI prints *plus* the run's
:meth:`~repro.training.metrics.RunHistory.digest`, which is what the
determinism property (identical results for any ``--jobs``) asserts on.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.experiments.campaign import CampaignSpec
from repro.experiments.reporting import dynamics_annotation
from repro.experiments.runner import ExperimentRunner, PAPER_COMPARISON_METHODS
from repro.experiments.scenarios import ScenarioConfig
from repro.runtime.dynamics import DynamicsSchedule

#: ScenarioConfig fields a compare cell accepts verbatim.
_SCENARIO_FIELDS = (
    "num_agents",
    "dataset",
    "model",
    "iid",
    "topology",
    "link_fraction",
    "participation_fraction",
    "target_accuracy",
    "max_rounds",
    "offload_granularity",
    "churn_fraction",
    "churn_interval_rounds",
    "batch_size",
    "size_imbalance",
    "samples_per_agent",
    "execution_mode",
    "quorum_fraction",
    "quorum_policy",
    "quorum_deadline_factor",
    "seed",
)


def campaign_spec(
    methods: Sequence[str] = PAPER_COMPARISON_METHODS,
    schedule: Optional[dict[str, Any]] = None,
    **scenario: Any,
) -> CampaignSpec:
    """Declare a comparison campaign: one cell per method on one scenario.

    ``scenario`` keyword arguments are :class:`ScenarioConfig` fields;
    ``schedule`` is an optional serialized
    :class:`~repro.runtime.dynamics.DynamicsSchedule` (the cell builds a
    fresh live schedule per run, preserving one-schedule-per-run hygiene).
    """
    unknown = set(scenario) - set(_SCENARIO_FIELDS)
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    base: dict[str, Any] = dict(scenario)
    if schedule is not None:
        base["schedule"] = schedule
    return CampaignSpec.create(
        name="compare",
        runner="compare-method",
        axes={"method": tuple(methods)},
        base=base,
    )


def run_campaign_cell(
    method: str,
    schedule: Optional[dict[str, Any]] = None,
    **scenario: Any,
) -> dict[str, Any]:
    """Run one method on the scenario and return its summary payload."""
    config = ScenarioConfig(**scenario)
    runner = ExperimentRunner(config)
    dynamics = (
        DynamicsSchedule.from_json(schedule) if schedule is not None else None
    )
    trainer = runner.build_method(method, dynamics=dynamics)
    history = trainer.run()
    trace = trainer.runtime.trace
    target = config.target_accuracy
    payload = {
        "method": method,
        "rounds": len(history),
        "time_to_target_s": history.time_to_accuracy(target) if target else None,
        "total_time_s": round(history.total_time, 1),
        "total_time_seconds": history.total_time,
        "final_accuracy": round(history.final_accuracy, 4),
        "events": dynamics_annotation(trace),
        "history_digest": history.digest(),
    }
    planner_report = getattr(trainer, "planner_report", None)
    if planner_report is not None:
        payload["planner"] = planner_report()
    return payload


def speedups_from_payloads(
    payloads: Sequence[dict[str, Any]],
    target: Optional[float],
    reference_method: str = "ComDML",
) -> dict[str, float]:
    """Per-baseline speedup of the reference method, from cell payloads.

    Mirrors :func:`repro.experiments.reporting.speedup_over_baselines` but
    works on the JSON rows a compare campaign produces (time to target when
    the target was reached, total run time otherwise).
    """
    def effective_time(payload: dict[str, Any]) -> float:
        if target and payload.get("time_to_target_s") is not None:
            return payload["time_to_target_s"]
        return payload["total_time_seconds"]

    by_method = {payload["method"]: payload for payload in payloads}
    if reference_method not in by_method:
        raise KeyError(f"{reference_method!r} not present in payloads")
    reference_time = effective_time(by_method[reference_method])
    speedups: dict[str, float] = {}
    for method, payload in by_method.items():
        if method == reference_method:
            continue
        baseline_time = effective_time(payload)
        speedups[method] = (
            baseline_time / reference_time if reference_time > 0 else float("inf")
        )
    return speedups
