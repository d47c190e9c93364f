"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions of each layer with timing
wrappers, at the name the caller looks up (``repro.core.comdml.compute_round_timing``
rather than ``repro.core.timing.compute_round_timing``), and restores the
originals on exit.  Every wrapper keeps a stack of open spans, so a layer's
time is *self* time: the span's duration minus the spans of wrapped
functions it called.  Counts ride along: calls per layer, plus named
counters that some probes derive from their arguments or results.

Garbage collection pauses are a layer of their own, ``gc``: a
``gc.callbacks`` hook times each collection and charges it to the open
span as a child, so the layer that happened to allocate does not absorb it.

A probe whose module or attribute no longer exists is skipped, and a layer
whose probes are all missing is reported as absent; the run goes on.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

_MISSING = object()


@dataclass(frozen=True)
class Probe:
    """One wrapped name: ``module`` attribute ``attr`` (``"name"`` or ``"Class.method"``)."""

    layer: str
    module: str
    attr: str
    #: Optional hook ``(tracer, args, kwargs) -> (args, kwargs)`` run before the call.
    before: Optional[Callable] = None
    #: Optional hook ``(tracer, args, kwargs, result)`` run after the call.
    after: Optional[Callable] = None


def _argument(args, kwargs, position: int, name: str):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _count_trace_kind(tracer, args, kwargs, result) -> None:
    # EventTrace.record(self, timestamp, round_index, kind, agent_ids, detail)
    kind = _argument(args, kwargs, 3, "kind")
    tracer.counters["kind." + kind] += 1
    if kind == "quorum_reached":
        detail = _argument(args, kwargs, 5, "detail") or {}
        tracer.counters["quorum.kept"] += detail.get("kept", 0)
        tracer.counters["quorum.dropped"] += detail.get("dropped", 0)


def _count_decisions(tracer, args, kwargs, result) -> None:
    tracer.counters["timing.decisions"] += len(_argument(args, kwargs, 0, "decisions"))


def _count_participants(tracer, args, kwargs, result) -> None:
    tracer.counters["scheduler.participants"] += len(result)


def _wrap_callback(tracer, args, kwargs):
    """Time engine-event callbacks (runtime closures) as the runtime layer.

    ``SimulationEngine.schedule_at(self, timestamp, kind, payload, priority,
    callback)``: the callback is whatever the runtime scheduled, so its self
    time is runtime work, not event-loop work.
    """
    if "callback" in kwargs:
        if kwargs["callback"] is not None:
            kwargs = dict(kwargs, callback=tracer.wrap("runtime", kwargs["callback"]))
    elif len(args) > 5 and args[5] is not None:
        args = (*args[:5], tracer.wrap("runtime", args[5]), *args[6:])
    return args, kwargs


#: Every probe, grouped by the layer (self-time bucket) it feeds.
PROBES = (
    # Planner: the pruned planner, its incremental CSR and attribute gather.
    Probe("planner.plan", "repro.core.planner", "PrunedPlanner.plan"),
    Probe("csr.sync", "repro.core.csr", "IncrementalCsr.sync"),
    Probe("csr.sync", "repro.core.csr", "IncrementalCsr.rebuild"),
    Probe("fastpath.attrs", "repro.core.planner", "agent_attrs"),
    # Round timing and unit building.
    Probe("timing", "repro.core.comdml", "compute_round_timing", after=_count_decisions),
    Probe("comdml.plan", "repro.core.comdml", "ComDML.plan_round"),
    Probe("scheduler.plan", "repro.core.scheduler", "DecentralizedPairingScheduler.plan_round"),
    Probe("baselines.plan", "repro.baselines.base", "BaselineTrainer.plan_round"),
    # Trace emission.
    Probe("trace.record", "repro.runtime.trace", "EventTrace.record", after=_count_trace_kind),
    # Event loop and runtime.
    Probe("engine", "repro.sim.engine", "SimulationEngine.step"),
    Probe("engine", "repro.sim.engine", "SimulationEngine.run_until"),
    Probe("engine", "repro.sim.engine", "SimulationEngine.schedule_at", before=_wrap_callback),
    Probe("runtime", "repro.runtime.runtime", "TrainingRuntime.run_round"),
    # Mid-round dynamics.
    Probe("dynamics", "repro.core.comdml", "ComDML.on_agent_arrival"),
    Probe("dynamics", "repro.core.comdml", "ComDML.on_agent_departure"),
    Probe("dynamics", "repro.core.comdml", "ComDML.reprice_unit"),
    Probe("planner.invalidate", "repro.core.planner", "PrunedPlanner.invalidate_topology"),
    Probe("planner.invalidate", "repro.core.planner", "PrunedPlanner.invalidate"),
    # Quorum.
    Probe("quorum.decide", "repro.runtime.quorum", "FixedFractionQuorum.decide"),
    Probe("quorum.decide", "repro.runtime.quorum", "DeadlineQuorum.decide"),
    Probe("quorum.decide", "repro.runtime.quorum", "AdaptiveQuorum.decide"),
    Probe("quorum.decide", "repro.runtime.runtime", "resolve_quorum"),
    # Learning plane.
    Probe("strategy.participation", "repro.runtime.runtime", "participation_fraction"),
    Probe("accuracy.after_round", "repro.training.accuracy", "CurveAccuracyTracker.after_round"),
    # Aggregation pricing.
    Probe("comdml.aggregation", "repro.core.comdml", "ComDML.async_unit_aggregation_seconds"),
    Probe("comdml.aggregation", "repro.core.comdml", "ComDML.semi_sync_aggregation_seconds"),
    # Dense planner.
    Probe("fastpath.bandwidth_matrix", "repro.core.fastpath", "bandwidth_matrix"),
    Probe("fastpath.cost_model", "repro.core.fastpath", "PairCostModel.__init__"),
    Probe("pairing.greedy", "repro.core.scheduler", "greedy_pairing"),
    # Participation and churn.
    Probe(
        "scheduler.select",
        "repro.core.scheduler",
        "DecentralizedPairingScheduler.select_participants",
        after=_count_participants,
    ),
    Probe(
        "scheduler.select",
        "repro.baselines.base",
        "BaselineTrainer.select_participants",
        after=_count_participants,
    ),
    Probe("churn", "repro.agents.dynamics", "ResourceChurn.maybe_apply"),
    Probe("churn", "repro.agents.dynamics", "ResourceChurn.apply"),
    Probe("churn", "repro.runtime.runtime", "churn_agent_profiles"),
)


def _resolve(probe: Probe):
    """``(owner, name, original, owned)`` for a probe, or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    owned = name in vars(owner)
    original = vars(owner)[name] if owned else getattr(owner, name, _MISSING)
    if original is _MISSING or not callable(original):
        return None
    return owner, name, original, owned


class LayerTracer:
    """Installs the probes, accumulates self time and counts, restores on exit."""

    def __init__(self, probes=PROBES, clock: Callable[[], float] = time.perf_counter):
        self.probes = tuple(probes)
        self.clock = clock
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[Probe] = []
        self._stack: list[float] = []
        self._installed: list[tuple] = []
        self._gc_start = 0.0

    @property
    def absent_layers(self) -> list[str]:
        """Layers none of whose probes could be installed."""
        installed = {probe.layer for probe in self.probes if probe not in self.missing}
        return sorted({probe.layer for probe in self.probes} - installed)

    def wrap(self, layer: str, function, before=None, after=None):
        """A self-timing wrapper of ``function`` charged to ``layer``."""
        stack, clock = self._stack, self.clock
        self_seconds, calls = self.self_seconds, self.calls

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self_seconds[layer] += elapsed - children
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._installed or self._on_gc in gc.callbacks:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for probe in self.probes:
            resolved = _resolve(probe)
            if resolved is None:
                self.missing.append(probe)
                continue
            owner, name, original, owned = resolved
            setattr(owner, name, self.wrap(probe.layer, original, probe.before, probe.after))
            self._installed.append((owner, name, original, owned))
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = self.clock()
        if phase == "start":
            self._gc_start = now
            return
        elapsed = now - self._gc_start
        self.self_seconds["gc"] += elapsed
        self.calls["gc"] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def restore(self) -> None:
        """Put every original back (inherited attributes are deleted again)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._installed:
            owner, name, original, owned = self._installed.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "LayerTracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every accumulator, for per-round deltas."""
        flat = {f"{layer}.self_s": value for layer, value in self.self_seconds.items()}
        flat.update({f"{layer}.calls": value for layer, value in self.calls.items()})
        flat.update(self.counters)
        return flat
