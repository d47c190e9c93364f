"""Measurement loop, output checks and metrics of the end-to-end benchmark.

One process runs one workload.  It repeats whole runs — set-up from
``ScenarioConfig``, then a fixed number of rounds per method — until the
time budget is spent (at least two repetitions, so their digests can be
compared).  End-to-end metrics come from untraced repetitions.  Every
timed phase is adjusted for the host's speed at that moment
(:mod:`perfbench.hostspeed`), and each round is taken at the median of its
repetitions (:func:`typical_rounds`).  With tracing on, repetitions
alternate untraced / traced: the traced ones run under a
:class:`~perfbench.tracing.LayerTracer` and give the per-layer split, and
the untraced ones give the base of ``bench.tracing_overhead``.

Every round's record is checked (finite, positive duration, accuracy in
[0, 1]); every method's run is checked for trace conservation, its round
count and — with a dynamics schedule — that the schedule covers the run;
and every repetition of one seed must produce the same
``RunHistory.digest()`` per method, traced or not.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.hostspeed import HostSpeed, adjusted
from perfbench.tracing import LayerTracer
from perfbench.workloads import Workload

#: Short keys of the compared methods, for the ``baselines.*_s`` metrics.
METHOD_KEYS = {
    "ComDML": "comdml",
    "Gossip Learning": "gossip",
    "BrainTorrent": "braintorrent",
    "AllReduce": "allreduce",
    "FedAvg": "fedavg",
}

#: Set-ups made without rounds before the measured repetitions.
SETUP_ONLY = 3

#: ``BENCHMARK.json``: the workloads and every metric's unit and direction.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Where each per-layer metric comes from: a tracer layer (its self time
#: per round), ``count:<key>`` (a per-round counter delta), ``method`` (that
#: method's mean typical untraced round time) or ``ratio`` (computed in
#: :func:`per_layer`).
PER_LAYER = {
    "planner.plan_ms": "planner.plan",
    "csr.sync_ms": "csr.sync",
    "fastpath.attrs_ms": "fastpath.attrs",
    "planner.rows_recomputed": "count:planner.rows_recomputed",
    "planner.rows_reused": "count:planner.rows_reused",
    "planner.pairs_evaluated": "count:planner.pairs_evaluated",
    "planner.csr_edits": "count:planner.csr_edits",
    "planner.csr_rebuilds": "count:planner.csr_rebuilds",
    "planner.reuse_ratio": "ratio",
    "timing.ms": "timing",
    "timing.decisions": "count:timing.decisions",
    "comdml.plan_self_ms": "comdml.plan",
    "scheduler.plan_self_ms": "scheduler.plan",
    "baselines.plan_ms": "baselines.plan",
    "trace.record_ms": "trace.record",
    "trace.emitted": "count:trace.emitted",
    "trace.retained_ratio": "ratio",
    "engine.ms": "engine",
    "engine.events": "count:engine.events",
    "runtime.self_ms": "runtime",
    "dynamics.ms": "dynamics",
    "planner.invalidate_ms": "planner.invalidate",
    "dynamics.arrivals": "count:kind.arrival",
    "dynamics.departures": "count:kind.departure",
    "dynamics.reprices": "count:kind.unit_repriced",
    "quorum.decide_ms": "quorum.decide",
    "quorum.kept_ratio": "ratio",
    "strategy.participation_ms": "strategy.participation",
    "strategy.participation_calls": "count:strategy.participation.calls",
    "accuracy.after_round_ms": "accuracy.after_round",
    "accuracy.after_round_calls": "count:accuracy.after_round.calls",
    "comdml.aggregation_ms": "comdml.aggregation",
    "comdml.aggregation_calls": "count:comdml.aggregation.calls",
    "fastpath.bandwidth_matrix_ms": "fastpath.bandwidth_matrix",
    "fastpath.cost_model_ms": "fastpath.cost_model",
    "pairing.greedy_ms": "pairing.greedy",
    "scheduler.select_ms": "scheduler.select",
    "scheduler.participants": "count:scheduler.participants",
    "churn.ms": "churn",
    "gc.ms": "gc",
    "gc.collections": "count:gc.calls",
    **{f"baselines.{key}_s": "method" for key in METHOD_KEYS.values()},
    "bench.tracing_overhead": "ratio",
}


def metric_units(group: str) -> dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics, in file order."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[group]}


@dataclass
class Repetition:
    """What one whole run (set-up plus every method's rounds) produced."""

    traced: bool
    #: Seconds of the set-up, adjusted for the host's speed.
    setup_s: float = 0.0
    #: Seconds of every round, adjusted for the host's speed, in run order,
    #: per method.
    round_s: dict[str, list[float]] = field(default_factory=dict)
    participants: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Traced only: accumulator deltas summed over the steady rounds
    #: (every round but each method's round 0), and their number.
    steady: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    steady_rounds: int = 0
    absent_layers: list[str] = field(default_factory=list)
    #: Traced only: (events retained in memory, events emitted) per method.
    retained: list[tuple[int, int]] = field(default_factory=list)


def check_record(record) -> Optional[str]:
    """Why a round record is wrong, or ``None`` when it passes."""
    for name, value in vars(record).items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"{name}={value!r} is not finite"
    if not record.duration_seconds > 0:
        return f"duration_seconds={record.duration_seconds!r} is not positive"
    if not 0.0 <= record.accuracy <= 1.0:
        return f"accuracy={record.accuracy!r} is outside [0, 1]"
    return None


def _count_selections(trainer) -> list[int]:
    """Count the participants the runtime selects each round.

    An instance attribute shadows the strategy's ``select_participants``
    for this trainer only; it adds one call per round and changes nothing.
    """
    selected = [0]
    select = trainer.select_participants

    def counted():
        chosen = select()
        selected[0] += len(chosen)
        return chosen

    trainer.select_participants = counted
    return selected


def _observe(tracer: LayerTracer, trainer) -> dict[str, float]:
    """Every accumulator a traced round moves: spans, stats objects, counters."""
    values = tracer.snapshot()
    values["trace.emitted"] = trainer.trace.stats.emitted
    values["engine.events"] = trainer.runtime.engine.processed_events
    planner = getattr(trainer, "planner", None)
    if planner is not None:
        for key, value in planner.stats.report().items():
            values[f"planner.{key}"] = value
    return values


def run_repetition(
    workload: Workload,
    seed: int,
    small: bool = False,
    tracer: Optional[LayerTracer] = None,
    speed: Optional[HostSpeed] = None,
) -> Repetition:
    """Build the workload's methods and run every round, checking each."""
    speed = speed or HostSpeed()
    rep = Repetition(traced=tracer is not None)
    if tracer is not None:
        rep.absent_layers = tracer.absent_layers
    rep.setup_s, setup = time_setup(workload, seed, small, speed)
    rounds = workload.rounds_for(small)

    for method, trainer in setup.methods:
        selected = _count_selections(trainer)
        times = rep.round_s.setdefault(method, [])
        for round_index in range(rounds):
            rep.attempted += 1
            reference = speed.now()
            steady = tracer is not None and round_index > 0
            before = _observe(tracer, trainer) if steady else None
            start = time.perf_counter()
            try:
                record = trainer.run_round(round_index)
            except Exception as exc:  # noqa: BLE001 - a raising round is a counted failure
                rep.failed += 1
                rep.problems.append(f"{method} round {round_index} raised {exc!r}")
                break
            times.append(adjusted(time.perf_counter() - start, reference))
            problem = check_record(record)
            if problem is not None:
                rep.failed += 1
                rep.problems.append(f"{method} round {round_index}: {problem}")
            if steady:
                after = _observe(tracer, trainer)
                for key, value in after.items():
                    rep.steady[key] += value - before.get(key, 0)
                rep.steady_rounds += 1
        rep.participants += selected[0]
        # TrainingRuntime.run ends with a flush; so does this run.
        trainer.trace.flush()
        history = trainer.history
        rep.digests[method] = history.digest()
        try:
            trainer.trace.check_conservation()
        except AssertionError as exc:
            rep.problems.append(f"{method}: trace conservation: {exc}")
        if len(history) != rounds:
            rep.problems.append(f"{method}: {len(history)} rounds, expected {rounds}")
        if setup.horizon is not None and history.total_time > setup.horizon:
            rep.problems.append(
                f"{method}: run lasted {history.total_time:.1f} simulated s, past "
                f"the dynamics horizon {setup.horizon:.1f} s"
            )
        if tracer is not None:
            retained = sum(trainer.trace.kind_counts().values())
            rep.retained.append((retained, trainer.trace.stats.emitted))
    return rep


@dataclass
class Measurement:
    repetitions: list[Repetition]
    #: Seconds of the set-ups made without running rounds.
    setup_only_s: list[float] = field(default_factory=list)

    @property
    def untraced(self) -> list[Repetition]:
        return [rep for rep in self.repetitions if not rep.traced]

    @property
    def traced(self) -> list[Repetition]:
        return [rep for rep in self.repetitions if rep.traced]

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.repetitions)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.repetitions)

    def problems(self) -> list[str]:
        found = [problem for rep in self.repetitions for problem in rep.problems]
        methods = {method for rep in self.repetitions for method in rep.digests}
        for method in sorted(methods):
            digests = {rep.digests.get(method) for rep in self.repetitions}
            if len(digests) != 1:
                found.append(f"{method}: repetitions disagree on the run digest")
        return found

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems()

    def digests(self) -> dict[str, str]:
        return dict(self.repetitions[0].digests)


def time_setup(
    workload: Workload, seed: int, small: bool, speed: HostSpeed
) -> tuple[float, object]:
    """Adjusted seconds to build one repetition's methods, and what was built."""
    gc.collect()  # the previous repetition's cyclic garbage, outside the timed region
    reference = speed.now()
    start = time.perf_counter()
    setup = workload.setup(seed, small)
    return adjusted(time.perf_counter() - start, reference), setup


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, small: bool = False
) -> Measurement:
    """Repeat whole runs until ``seconds`` are spent (at least two).

    :data:`SETUP_ONLY` set-ups without rounds come first: they warm the
    process's caches and give ``setup_s`` more samples.  A repetition
    starts only if the longest one so far still fits the budget.  With
    ``trace``, every second repetition runs traced.
    """
    deadline = time.perf_counter() + seconds
    measurement = Measurement([])
    speed = HostSpeed()
    for _ in range(SETUP_ONLY):
        measurement.setup_only_s.append(time_setup(workload, seed, small, speed)[0])
    longest = 0.0
    while True:
        traced = trace and len(measurement.repetitions) % 2 == 1
        start = time.perf_counter()
        if traced:
            with LayerTracer() as tracer:
                rep = run_repetition(workload, seed, small, tracer, speed)
        else:
            rep = run_repetition(workload, seed, small, speed=speed)
        measurement.repetitions.append(rep)
        longest = max(longest, time.perf_counter() - start)
        if len(measurement.repetitions) >= 2 and time.perf_counter() + longest > deadline:
            return measurement


def _median(values) -> float:
    """Median, or 0.0 when a failing run left nothing to measure."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def typical_rounds(reps: list[Repetition]) -> dict[str, list[float]]:
    """Per method, the seconds of each round: the median over the repetitions.

    Repetitions of one seed run the same rounds (their digests agree), so
    round ``i`` of a method is timed once per repetition.
    """
    samples: dict[str, list[list[float]]] = {}
    for rep in reps:
        for method, times in rep.round_s.items():
            known = samples.setdefault(method, [])
            for index, seconds in enumerate(times):
                if index == len(known):
                    known.append([])
                known[index].append(seconds)
    return {
        method: [statistics.median(times) for times in rounds]
        for method, rounds in samples.items()
    }


def _first_and_later(reps: list[Repetition]) -> tuple[list[float], list[float]]:
    """Typical round 0 of the first method, and every other typical round."""
    times = [t for rounds in typical_rounds(reps).values() for t in rounds]
    return times[:1], times[1:]


def end_to_end(measurement: Measurement) -> dict[str, float]:
    reps = measurement.untraced
    first, later = _first_and_later(reps)
    return {
        "setup_s": _median(
            [*measurement.setup_only_s, *(rep.setup_s for rep in reps)]
        ),
        "first_round_ms": _median(first) * 1e3,
        "round_ms_p50": _median(later) * 1e3,
        "agent_rounds_per_s": _ratio(
            _median(rep.participants for rep in reps), sum(first) + sum(later)
        ),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(measurement: Measurement) -> dict[str, float]:
    traced = measurement.traced
    steady: defaultdict[str, float] = defaultdict(float)
    for rep in traced:
        for key, value in rep.steady.items():
            steady[key] += value
    rounds = sum(rep.steady_rounds for rep in traced)

    def per_round(key: str) -> float:
        return _ratio(steady.get(key, 0.0), rounds)

    method_rounds = {
        METHOD_KEYS.get(method, method): times
        for method, times in typical_rounds(measurement.untraced).items()
    }

    def median_later(reps: list[Repetition]) -> float:
        return _median(_first_and_later(reps)[1])

    ratios = {
        "planner.reuse_ratio": _ratio(
            steady["planner.rows_reused"],
            steady["planner.rows_reused"] + steady["planner.rows_recomputed"],
        ),
        "trace.retained_ratio": _ratio(
            sum(kept for rep in traced for kept, _ in rep.retained),
            sum(emitted for rep in traced for _, emitted in rep.retained),
        ),
        "quorum.kept_ratio": _ratio(
            steady["quorum.kept"], steady["quorum.kept"] + steady["quorum.dropped"]
        ),
        "bench.tracing_overhead": _ratio(
            median_later(traced), median_later(measurement.untraced)
        ),
    }
    metrics = {}
    for name, source in PER_LAYER.items():
        if source == "ratio":
            metrics[name] = ratios[name]
        elif source == "method":
            times = method_rounds.get(name[len("baselines."):-len("_s")], [])
            metrics[name] = statistics.fmean(times) if times else 0.0
        elif source.startswith("count:"):
            metrics[name] = per_round(source[len("count:"):])
        else:
            metrics[name] = per_round(f"{source}.self_s") * 1e3
    return metrics


def absent_layers(measurement: Measurement) -> list[str]:
    return sorted({layer for rep in measurement.traced for layer in rep.absent_layers})


def result(measurement: Measurement, trace: bool) -> dict:
    """The benchmark's result object (the last line it prints)."""
    if trace:
        values, units = per_layer(measurement), metric_units("per_layer")
    else:
        values, units = end_to_end(measurement), metric_units("end_to_end")
    return {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
