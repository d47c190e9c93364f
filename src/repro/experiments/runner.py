"""Generic experiment runner.

Builds a training method (ComDML or a baseline) for a scenario, runs it on
its :class:`~repro.runtime.TrainingRuntime` (in whatever execution mode the
scenario configures — ``sync``, ``semi-sync`` or ``async``), and returns the
:class:`~repro.training.metrics.RunHistory`; :meth:`ExperimentRunner.run_method_with_trace`
additionally returns the runtime's per-agent
:class:`~repro.runtime.trace.EventTrace`.  The method registry maps the
names the paper's tables use to the implementing classes and their
learning-curve efficiency keys.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.baselines.allreduce_dml import AllReduceDML
from repro.baselines.braintorrent import BrainTorrent
from repro.baselines.fedavg import FedAvg
from repro.baselines.fedprox import FedProx
from repro.baselines.gossip import GossipLearning
from repro.core.comdml import ComDML
from repro.experiments.scenarios import Scenario, ScenarioConfig, build_scenario
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.sinks import JSONLSink
from repro.runtime.trace import EventTrace
from repro.training.accuracy import AccuracyTracker
from repro.training.metrics import RunHistory

#: name → (class, learning-curve method key)
METHOD_REGISTRY = {
    "ComDML": (ComDML, "comdml"),
    "Gossip Learning": (GossipLearning, "gossip"),
    "BrainTorrent": (BrainTorrent, "braintorrent"),
    "AllReduce": (AllReduceDML, "allreduce"),
    "FedAvg": (FedAvg, "fedavg"),
    "FedProx": (FedProx, "fedprox"),
}

#: The methods compared in the paper's Tables II/III and Figure 3, in order.
PAPER_COMPARISON_METHODS = (
    "ComDML",
    "Gossip Learning",
    "BrainTorrent",
    "AllReduce",
    "FedAvg",
)


class ExperimentRunner:
    """Runs one or more training methods on a scenario."""

    def __init__(self, scenario: Scenario | ScenarioConfig) -> None:
        if isinstance(scenario, ScenarioConfig):
            scenario = build_scenario(scenario)
        self.scenario = scenario

    def build_method(
        self,
        method: str,
        accuracy_tracker: Optional[AccuracyTracker] = None,
        dynamics: Optional[DynamicsSchedule] = None,
        trace: Optional[EventTrace] = None,
    ):
        """Instantiate a training method for this scenario.

        A :class:`~repro.runtime.dynamics.DynamicsSchedule` may be passed to
        enable mid-round dynamics; since arrivals/departures mutate the
        topology, the method then receives its own copy so later methods on
        the same scenario start from the pristine graph.  Schedules carry
        concrete :class:`~repro.agents.agent.Agent` objects whose profiles
        the run mutates, so hand every method its *own* schedule (build a
        fresh one per call).
        """
        if method not in METHOD_REGISTRY:
            raise KeyError(
                f"unknown method {method!r}; expected one of {sorted(METHOD_REGISTRY)}"
            )
        cls, curve_key = METHOD_REGISTRY[method]
        tracker = (
            accuracy_tracker
            if accuracy_tracker is not None
            else self.scenario.curve_tracker(curve_key)
        )
        topology = (
            self.scenario.topology.copy()
            if dynamics is not None
            else self.scenario.topology
        )
        return cls(
            registry=self.scenario.fresh_registry(),
            spec=self.scenario.spec,
            config=self.scenario.comdml_config,
            topology=topology,
            accuracy_tracker=tracker,
            profile=self.scenario.profile,
            dynamics=dynamics,
            trace=trace,
        )

    def run_method(
        self,
        method: str,
        accuracy_tracker: Optional[AccuracyTracker] = None,
        dynamics: Optional[DynamicsSchedule] = None,
    ) -> RunHistory:
        """Run one method to completion and return its history."""
        trainer = self.build_method(method, accuracy_tracker, dynamics)
        return trainer.run()

    def run_method_with_trace(
        self,
        method: str,
        accuracy_tracker: Optional[AccuracyTracker] = None,
        dynamics: Optional[DynamicsSchedule] = None,
        trace: Optional[EventTrace] = None,
    ):
        """Run one method and return ``(history, event_trace)``."""
        trainer = self.build_method(method, accuracy_tracker, dynamics, trace)
        history = trainer.run()
        return history, trainer.runtime.trace

    def run_method_sealed(
        self,
        method: str,
        jsonl_path: str | Path,
        accuracy_tracker: Optional[AccuracyTracker] = None,
        dynamics: Optional[DynamicsSchedule] = None,
        segment_events: Optional[int] = None,
    ) -> RunHistory:
        """Run one method with a sealed JSONL trace sink, closing it after.

        The run's full event stream lands in ``jsonl_path`` as a
        hash-chained, sealed trace (see :mod:`repro.runtime.audit`) that
        ``comdml trace verify`` accepts; the in-memory view keeps the
        scenario's configured cap.  ``segment_events`` sets the events per
        segment seal (``None``: the sink's default of 4096).  Returns the
        run history.
        """
        sink = (
            JSONLSink(jsonl_path)
            if segment_events is None
            else JSONLSink(jsonl_path, segment_events=segment_events)
        )
        trace = EventTrace(
            max_events=self.scenario.comdml_config.trace_max_events, sinks=(sink,)
        )
        try:
            history, _ = self.run_method_with_trace(
                method, accuracy_tracker, dynamics, trace
            )
        finally:
            trace.close()
        return history

    def compare(self, methods: Optional[list[str]] = None) -> dict[str, RunHistory]:
        """Run several methods on identical copies of the scenario."""
        methods = list(methods) if methods is not None else list(PAPER_COMPARISON_METHODS)
        return {method: self.run_method(method) for method in methods}
