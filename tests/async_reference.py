"""A per-unit reference for the runtime's async round.

The async round as it ran before it was batched: each unit's completion
prices its gossip aggregation on its own and schedules it as one engine
event; the event steps the learning plane once and records one trace
event.  :func:`use_reference_async` swaps it into a built trainer, so a
property can run the batched round and this one on the same input and
compare their histories and traces.

The three per-unit gossip prices (:func:`unit_aggregation_seconds`) are the
ones the strategies had then: the default even share of the barrier
aggregation, FedAvg's zero, and ComDML's model push over the bottleneck of
the unit's registered members.
"""

from __future__ import annotations

import types

import numpy as np

from repro.baselines.fedavg import FedAvg
from repro.core.comdml import ComDML
from repro.core.timing import bottleneck_bandwidth
from repro.runtime.runtime import _DONE
from repro.runtime.strategy import WorkUnit, participation_fraction
from repro.sim.costs import transfer_time_seconds
from repro.sim.events import Event


def unit_aggregation_seconds(strategy, plan, unit: WorkUnit) -> float:
    """Cost of one unit's gossip aggregation, priced when the unit completes."""
    if isinstance(strategy, ComDML):
        registry = strategy.registry
        agents = [
            registry.get(agent_id)
            for agent_id in unit.agent_ids
            if agent_id in registry
        ]
        if not agents:
            return 0.0
        return transfer_time_seconds(
            strategy.profile.full_model_bytes, bottleneck_bandwidth(agents)
        )
    if isinstance(strategy, FedAvg):
        return 0.0
    return plan.aggregation_seconds / max(1, len(plan.durations))


def run_round_async_reference(runtime, round_index: int):
    """One async round, unit by unit (a ``TrainingRuntime`` method)."""
    flight = runtime._start_dynamic_round(round_index)
    plan, start = flight.plan, flight.start
    learning_rate = runtime._lr_schedule.learning_rate
    state = {"accuracy": runtime._last_accuracy, "outstanding": len(flight)}

    def _aggregate(event: Event) -> None:
        unit: WorkUnit = event.payload
        participation = participation_fraction(runtime.registry, unit.decisions)
        state["accuracy"] = runtime.accuracy_tracker.after_round(
            unit.decisions, participation, learning_rate
        )
        runtime._record(
            event.timestamp,
            round_index,
            "aggregation",
            unit.agent_ids,
            detail={"accuracy": state["accuracy"]},
        )
        state["outstanding"] -= 1
        if state["outstanding"] <= 0:
            flight.close(event.timestamp)

    def _on_done(row: int, at: float) -> bool:
        unit = plan.unit(row)
        cost = max(0.0, unit_aggregation_seconds(runtime.strategy, plan, unit))
        runtime.engine.schedule_at(
            at + cost, kind="aggregation", payload=unit, callback=_aggregate
        )
        # The aggregation may be due before the batch's next row.
        return True

    def _on_abandon(row: int) -> None:
        state["outstanding"] -= 1
        if state["outstanding"] <= 0:
            flight.close(runtime.engine.now)

    flight.on_done = _on_done
    flight.on_abandon = _on_abandon
    runtime._drive_until_closed(flight)
    end = max(flight.close_time, start)
    done = flight.rows_in(_DONE)
    compute = float(np.array(flight.elapsed)[done].max()) if len(done) else 0.0
    kept = plan.decisions.take(done)
    runtime._end_flight()
    runtime.engine.run_until(end)
    accuracy = state["accuracy"]
    runtime._lr_schedule.step(accuracy)
    return runtime._finish_round(
        plan,
        accuracy,
        duration=end - start,
        compute_seconds=compute,
        aggregation_seconds=max(0.0, (end - start) - compute),
        num_pairs=kept.num_pairs(),
        communication_seconds=runtime._communication_for(plan, kept),
    )


def use_reference_async(trainer):
    """Make a built trainer run its async rounds unit by unit; returns it."""
    runtime = trainer.runtime
    runtime._run_round_async_dynamic = types.MethodType(
        run_round_async_reference, runtime
    )
    return trainer
