"""Event-driven training runtime shared by ComDML and every baseline.

The runtime owns the round machinery that Algorithm 1 prescribes and that
every method shares — dynamic resource churn, participation sampling, the
learning-rate schedule, accuracy tracking, the
:class:`~repro.training.metrics.RunHistory`, and the per-agent
:class:`~repro.runtime.trace.EventTrace` — and drives execution as events on
a :class:`~repro.sim.engine.SimulationEngine`.  A method contributes only a
:class:`~repro.runtime.strategy.RoundStrategy` that decomposes and prices
each round into :class:`~repro.runtime.strategy.WorkUnit`.

Three execution modes are supported (``ComDMLConfig.execution_mode``):

``sync``
    The classic full barrier: the round closes when the slowest unit and
    the aggregation finish.  Bit-for-bit identical histories to the
    pre-runtime per-method loops (verified by regression tests).
``semi-sync``
    The round closes when a quorum of units has finished; stragglers are
    dropped from the aggregation and recorded in the trace.  What counts as
    a quorum is a pluggable :class:`~repro.runtime.quorum.QuorumPolicy`
    (``ComDMLConfig.quorum_policy``): a fixed fraction
    (``ComDMLConfig.quorum_fraction``), a deadline derived from the running
    makespan mean, or an adaptive fraction that tightens as observed
    makespans stabilise.
``async``
    No barrier: each unit's completion event triggers its own gossip-style
    aggregation on the event queue; the round record summarises the epoch.

Every mode additionally supports *mid-round dynamics* through an optional
:class:`~repro.runtime.dynamics.DynamicsSchedule`: staggered agent
arrivals, timestamped departures, and churn events that land while work is
in flight and re-cost the affected units (see
:mod:`repro.runtime.dynamics`).  With no schedule — or an empty one — the
runtime executes the original closed-form round paths, so ``sync`` histories
remain bit-for-bit identical to the seed loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.agents.dynamics import ResourceChurn, churn_agent_profiles
from repro.agents.registry import AgentRegistry
from repro.core.config import ComDMLConfig
from repro.core.pairing import PairingPlan
from repro.core.scheduler import SchedulerStats
from repro.nn.schedule import ReduceOnPlateau
from repro.runtime.dynamics import DynamicsEvent, DynamicsSchedule
from repro.runtime.quorum import QuorumPolicy, make_quorum_policy, resolve_quorum
from repro.runtime.strategy import (
    RoundPlan,
    RoundStrategy,
    WorkUnit,
    participation_fraction,
)
from repro.runtime.trace import EventTrace, build_event_trace
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event
from repro.training.accuracy import AccuracyTracker
from repro.training.metrics import RoundRecord, RunHistory
from repro.utils.logging import get_logger

logger = get_logger("runtime")


@dataclass
class _FlightEntry:
    """Book-keeping for one work unit while its round is in flight.

    A unit is modelled as one abstract unit of work: ``progress`` is the
    completed fraction, ``full_duration`` the current price of the whole
    unit under present agent profiles, and ``updated_at`` the simulated
    time at which ``progress`` was last brought up to date.  Mid-round
    churn re-costs a unit by folding elapsed time into ``progress``,
    re-pricing ``full_duration`` via the strategy's ``reprice_unit`` hook,
    and rescheduling the completion event under a bumped ``version`` (stale
    events are recognised and ignored when they fire).
    """

    unit: WorkUnit
    progress: float
    full_duration: float
    updated_at: float
    version: int = 0
    done: bool = False
    abandoned: bool = False

    @property
    def completion(self) -> float:
        """Projected completion time under the current price."""
        return self.updated_at + max(0.0, 1.0 - self.progress) * self.full_duration


class RuntimeDelegate:
    """Convenience surface for classes that wrap a :class:`TrainingRuntime`.

    ComDML and the baseline trainers are both a :class:`RoundStrategy` and
    the user-facing handle of their run; this mixin forwards the run-state
    accessors to ``self.runtime`` (which the subclass's constructor must
    set) so the delegation exists in exactly one place.
    """

    runtime: "TrainingRuntime"

    @property
    def history(self) -> RunHistory:
        """The runtime's accumulated round records."""
        return self.runtime.history

    @property
    def clock(self):
        """The runtime engine's virtual clock."""
        return self.runtime.clock

    @property
    def trace(self) -> EventTrace:
        """The runtime's per-agent event trace."""
        return self.runtime.trace

    @property
    def accuracy_tracker(self) -> AccuracyTracker:
        """The learning-plane tracker driven by the runtime."""
        return self.runtime.accuracy_tracker

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one global round and return its record."""
        return self.runtime.run_round(round_index)

    def run(self) -> RunHistory:
        """Run until the target accuracy is reached or ``max_rounds`` expire."""
        return self.runtime.run()


class TrainingRuntime:
    """Runs a :class:`RoundStrategy` on the discrete-event engine."""

    def __init__(
        self,
        strategy: RoundStrategy,
        registry: AgentRegistry,
        config: ComDMLConfig,
        accuracy_tracker: AccuracyTracker,
        churn_rng: Optional[np.random.Generator] = None,
        engine: Optional[SimulationEngine] = None,
        trace: Optional[EventTrace] = None,
        dynamics: Optional[DynamicsSchedule] = None,
        quorum_policy: Optional[QuorumPolicy] = None,
    ) -> None:
        self.strategy = strategy
        self.registry = registry
        self.config = config
        self.accuracy_tracker = accuracy_tracker
        self.engine = engine if engine is not None else SimulationEngine()
        self.trace = trace if trace is not None else build_event_trace(config)
        if config.trace_engine_events:
            self.engine.subscribe(self._observe_engine_event)
        self.history = RunHistory(method=strategy.method_name)
        self.churn = (
            ResourceChurn(
                fraction=config.churn_fraction,
                interval_rounds=config.churn_interval_rounds,
            )
            if config.churn_fraction > 0
            else None
        )
        self._churn_rng = (
            churn_rng if churn_rng is not None else np.random.default_rng(config.seed)
        )
        self._lr_schedule = ReduceOnPlateau(
            learning_rate=config.learning_rate,
            factor=config.lr_plateau_factor,
            patience=config.lr_plateau_patience,
        )
        self._last_accuracy = 0.0
        #: Observed local-phase makespans, fed to deadline/adaptive quorums.
        self.stats = SchedulerStats()
        self.quorum_policy = (
            quorum_policy if quorum_policy is not None else make_quorum_policy(config)
        )
        self.dynamics = dynamics
        # Mid-round execution state (only set while a dynamics-aware round
        # is in flight).
        self._flight: Optional[dict[int, _FlightEntry]] = None
        # Agent id -> its in-flight entries in plan order, so a departure or
        # churn event visits only the units it touches.
        self._flight_by_agent: dict[int, list[_FlightEntry]] = {}
        self._current_plan: Optional[RoundPlan] = None
        self._current_round = 0
        self._round_start = 0.0
        self._on_done_hook: Optional[Callable[[_FlightEntry, Event], None]] = None
        self._on_abandon_hook: Optional[Callable[[_FlightEntry], None]] = None
        if self.dynamics:
            self.dynamics.register(self.engine, self._apply_dynamics_event)

    # ------------------------------------------------------------------
    @property
    def clock(self):
        """The engine's virtual clock (shared with every scheduled event)."""
        return self.engine.clock

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.engine.now

    @property
    def learning_rate(self) -> float:
        """Current learning rate of the shared plateau schedule."""
        return self._lr_schedule.learning_rate

    # ------------------------------------------------------------------
    def _observe_engine_event(self, event: Event) -> None:
        """Mirror one processed engine event into the trace (DEBUG level).

        Opt-in via ``ComDMLConfig.trace_engine_events``; with a level
        filter at ``INFO`` or above these are counted as filter drops, so
        the raw engine feed never inflates the in-memory view silently.
        """
        self.trace.record(
            event.timestamp,
            self._current_round,
            "engine_event",
            detail={"engine_kind": event.kind},
        )

    # ------------------------------------------------------------------
    def _plan(self, round_index: int) -> RoundPlan:
        """Shared round prologue: churn, participation sampling, planning."""
        if self.churn is not None:
            changed = self.churn.maybe_apply(
                round_index, self.registry, self._churn_rng
            )
            if changed:
                logger.debug(
                    "round %d: churned profiles of agents %s", round_index, changed
                )
                self.trace.record(
                    self.engine.now, round_index, "churn", tuple(changed)
                )
        participants = self.strategy.select_participants()
        return self.strategy.plan_round(round_index, participants)

    def _finish_round(
        self,
        plan: RoundPlan,
        accuracy: float,
        duration: float,
        compute_seconds: float,
        aggregation_seconds: float,
        num_pairs: int,
        communication_seconds: Optional[float] = None,
        observed_makespan: Optional[float] = None,
    ) -> RoundRecord:
        """Append the round record at the engine's current (end) time.

        ``observed_makespan`` is what feeds the deadline/adaptive quorum
        statistics.  It defaults to ``compute_seconds``, but quorum-closed
        rounds must pass the *untruncated* local-phase makespan (the time
        the slowest unit would have needed) — recording the truncated
        close offset would let a deadline policy ratchet itself down on its
        own drops instead of reacting to genuine slowdowns.
        """
        record = RoundRecord(
            round_index=plan.round_index,
            duration_seconds=duration,
            cumulative_seconds=self.engine.now,
            accuracy=accuracy,
            compute_seconds=compute_seconds,
            communication_seconds=communication_seconds
            if communication_seconds is not None
            else plan.communication_seconds,
            aggregation_seconds=aggregation_seconds,
            num_pairs=num_pairs,
        )
        self.history.append(record)
        self.trace.record(
            self.engine.now,
            plan.round_index,
            "round_end",
            detail={"accuracy": accuracy, "duration": duration},
        )
        makespan = (
            observed_makespan if observed_makespan is not None else compute_seconds
        )
        # Degenerate rounds (every unit abandoned, or an empty plan) carry no
        # makespan signal; recording their 0.0 would deflate the running mean
        # and collapse later deadline/adaptive quorum decisions.
        if makespan > 0:
            self.stats.record_makespan(makespan)
        self._last_accuracy = accuracy
        return record

    def _communication_for(self, plan: RoundPlan, kept: PairingPlan) -> float:
        """Communication accounting for a round that kept only some decisions.

        When the plan's decisions carry per-decision traffic (ComDML's
        offload streams), sum the kept ones — even a truthful zero for an
        all-solo quorum — left to right in ``kept``'s order, like round
        timing (builtin ``sum`` rounds differently from Python 3.12 on).
        Baselines price communication at round level only, so their plan
        figure is used as-is; it is an upper bound when the round dropped
        the communication-heaviest agent.
        """
        if np.any(plan.decisions.communication_time > 0):
            return kept.total_communication()
        return plan.communication_seconds

    @staticmethod
    def _kept_decisions(plan: RoundPlan, kept_units: Sequence[WorkUnit]) -> PairingPlan:
        """The decisions of the given units, in the units' order."""
        rows = np.fromiter(
            (unit.index for unit in kept_units), dtype=np.int64, count=len(kept_units)
        )
        return plan.decisions.take(rows)

    def _advance_learning_plane(self, plan: RoundPlan, decisions) -> float:
        """One accuracy-tracker step over the given decisions."""
        participation = participation_fraction(self.registry, decisions)
        accuracy = self.accuracy_tracker.after_round(
            decisions, participation, self._lr_schedule.learning_rate
        )
        self._lr_schedule.step(accuracy)
        return accuracy

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------
    def _run_round_sync(self, round_index: int) -> RoundRecord:
        start = self.engine.now
        plan = self._plan(round_index)
        self.trace.record(start, round_index, "round_start")

        accuracy = self._advance_learning_plane(plan, plan.decisions)

        end = start + plan.duration_seconds
        # Completion order: by duration, ties by unit index (a stable sort).
        # Clamp to the barrier so the trace stays chronological even when a
        # unit's standalone duration exceeds the round (e.g. a disconnected
        # FedAvg agent the server skips); the raw duration stays in `detail`.
        order = np.argsort(plan.durations, kind="stable")
        durations = plan.durations[order]
        self.trace.record_block(
            round_index,
            "unit_complete",
            np.minimum(start + durations, end),
            plan.decisions.slow_id[order],
            plan.decisions.fast_id[order],
            durations,
        )
        if plan.aggregation_seconds > 0:
            # Stamped at its completion (= the barrier) so it never precedes
            # unit completions whose chains overlap the aggregation window.
            self.trace.record(end, round_index, "aggregation")
        self.engine.schedule_at(end, kind="round_end", payload=round_index)
        self.engine.run_until(end)
        return self._finish_round(
            plan,
            accuracy,
            duration=plan.duration_seconds,
            compute_seconds=plan.compute_seconds,
            aggregation_seconds=plan.aggregation_seconds,
            num_pairs=plan.num_pairs,
        )

    def _run_round_semi_sync(self, round_index: int) -> RoundRecord:
        start = self.engine.now
        plan = self._plan(round_index)
        self.trace.record(start, round_index, "round_start")

        # Completion order: by duration, ties by unit index (a stable sort).
        order = np.argsort(plan.durations, kind="stable")
        plan_units = plan.units
        units = [plan_units[index] for index in order.tolist()]
        if units:
            decision = self.quorum_policy.decide(
                [unit.duration for unit in units], self.stats
            )
            quorum, local = resolve_quorum(
                decision, [unit.duration for unit in units]
            )
        else:
            quorum, local = 0, 0.0
        kept, dropped = units[:quorum], units[quorum:]
        quorum_time = start + local

        for unit in kept:
            self.engine.schedule_at(
                start + unit.duration,
                kind="unit_complete",
                payload=unit,
                callback=lambda event, u=unit: self.trace.record(
                    event.timestamp,
                    round_index,
                    "unit_complete",
                    u.agent_ids,
                    detail={"duration": u.duration},
                ),
            )
        aggregation = self.strategy.semi_sync_aggregation_seconds(plan, kept)
        end = quorum_time + aggregation

        def _on_quorum(event) -> None:
            self.trace.record(
                event.timestamp,
                round_index,
                "quorum_reached",
                detail={
                    "kept": len(kept),
                    "dropped": len(dropped),
                    "policy": self.quorum_policy.name,
                },
            )
            # Recording the drops here (not before run_until) keeps the
            # trace chronological: completions precede the quorum closure.
            for unit in dropped:
                self.trace.record(
                    event.timestamp,
                    round_index,
                    "straggler_dropped",
                    unit.agent_ids,
                    detail={"projected_completion": start + unit.duration},
                )

        self.engine.schedule_at(
            quorum_time, kind="quorum_reached", priority=1, callback=_on_quorum
        )
        self.engine.schedule_at(end, kind="round_end", priority=2, payload=round_index)
        self.engine.run_until(end)

        kept_decisions = plan.decisions.take(order[:quorum])
        accuracy = self._advance_learning_plane(plan, kept_decisions)
        return self._finish_round(
            plan,
            accuracy,
            duration=end - start,
            compute_seconds=local,
            aggregation_seconds=aggregation,
            num_pairs=kept_decisions.num_pairs(),
            communication_seconds=self._communication_for(plan, kept_decisions),
            observed_makespan=units[-1].duration if units else 0.0,
        )

    def _run_round_async(self, round_index: int) -> RoundRecord:
        start = self.engine.now
        plan = self._plan(round_index)
        self.trace.record(start, round_index, "round_start")

        learning_rate = self._lr_schedule.learning_rate
        state = {"accuracy": self._last_accuracy}

        def _aggregate(event) -> None:
            unit: WorkUnit = event.payload
            participation = participation_fraction(self.registry, unit.decisions)
            state["accuracy"] = self.accuracy_tracker.after_round(
                unit.decisions, participation, learning_rate
            )
            self.trace.record(
                event.timestamp,
                round_index,
                "aggregation",
                unit.agent_ids,
                detail={"accuracy": state["accuracy"]},
            )

        # Price each unit's gossip exchange once: the round-end bound and the
        # scheduled aggregation must agree, or a state-dependent price could
        # leak an event past run_until into the next round.
        gossip_costs = {
            unit.index: self.strategy.async_unit_aggregation_seconds(plan, unit)
            for unit in plan.units
        }

        def _complete(event) -> None:
            unit: WorkUnit = event.payload
            self.trace.record(
                event.timestamp,
                round_index,
                "unit_complete",
                unit.agent_ids,
                detail={"duration": unit.duration},
            )
            self.engine.schedule_after(
                gossip_costs[unit.index],
                kind="aggregation",
                payload=unit,
                callback=_aggregate,
            )

        end = start
        for unit in plan.units:
            completion = start + unit.duration
            end = max(end, completion + gossip_costs[unit.index])
            self.engine.schedule_at(
                completion, kind="unit_complete", payload=unit, callback=_complete
            )
        self.engine.schedule_at(end, kind="round_end", priority=1, payload=round_index)
        self.engine.run_until(end)

        accuracy = state["accuracy"]
        self._lr_schedule.step(accuracy)
        compute = max((unit.duration for unit in plan.units), default=0.0)
        return self._finish_round(
            plan,
            accuracy,
            duration=end - start,
            compute_seconds=compute,
            aggregation_seconds=max(0.0, (end - start) - compute),
            num_pairs=plan.num_pairs,
        )

    # ------------------------------------------------------------------
    # Mid-round dynamics (DynamicsSchedule-aware execution)
    # ------------------------------------------------------------------
    def _apply_dynamics_event(self, event: Event) -> None:
        """Apply one scheduled arrival/departure/churn at its timestamp.

        Registered as the engine callback for every
        :class:`~repro.runtime.dynamics.DynamicsEvent`; fires wherever the
        clock happens to be — between rounds (the registry change simply
        shapes the next plan) or mid-round (in-flight work is re-costed or
        abandoned).
        """
        dyn: DynamicsEvent = event.payload
        now = self.engine.now
        round_index = self._current_round
        if dyn.kind == "arrival":
            agent = dyn.agent
            if agent is None or agent.agent_id in self.registry:
                return
            self.registry.add(agent)
            self.strategy.on_agent_arrival(agent, dyn.neighbors, dyn.attachment)
            self.trace.record(
                now,
                round_index,
                "arrival",
                (agent.agent_id,),
                detail={"num_samples": agent.num_samples},
            )
        elif dyn.kind == "departure":
            if dyn.agent_id not in self.registry:
                return
            agent = self.registry.remove(dyn.agent_id)
            self.strategy.on_agent_departure(agent)
            self.trace.record(now, round_index, "departure", (dyn.agent_id,))
            self._abandon_in_flight(dyn.agent_id)
        else:  # churn
            if dyn.agent_ids is not None:
                changed = churn_agent_profiles(
                    self.registry, list(dyn.agent_ids), self._churn_rng
                )
            else:
                changed = ResourceChurn(fraction=dyn.fraction).apply(
                    self.registry, self._churn_rng
                )
            if not changed:
                return
            self.trace.record(
                now,
                round_index,
                "churn",
                tuple(changed),
                detail={"source": "schedule"},
            )
            self._reprice_in_flight(set(changed))

    def _abandon_in_flight(self, agent_id: int) -> None:
        """Abandon in-flight units of a departed agent (their work is lost)."""
        if self._flight is None:
            return
        for entry in self._flight_by_agent.get(agent_id, ()):
            if entry.done or entry.abandoned:
                continue
            entry.abandoned = True
            entry.version += 1  # invalidate the pending completion event
            self.trace.record(
                self.engine.now,
                self._current_round,
                "unit_abandoned",
                entry.unit.agent_ids,
                detail={"departed": agent_id},
            )
            if self._on_abandon_hook is not None:
                self._on_abandon_hook(entry)

    def _reprice_in_flight(self, affected_ids: set[int]) -> None:
        """Re-cost in-flight units whose agents were just churned.

        The completed fraction of each affected unit is kept; the remainder
        is re-priced at the strategy's fresh ``reprice_unit`` estimate and
        the unit's completion event is rescheduled.
        """
        if self._flight is None or self._current_plan is None:
            return
        now = self.engine.now
        by_agent = self._flight_by_agent
        # Plan order, as a scan over the flight would visit them: units are
        # enumerated by index, and a pair is reached once even if both of
        # its agents churned.
        affected = {
            entry.unit.index: entry
            for agent_id in affected_ids
            for entry in by_agent.get(agent_id, ())
        }
        for unit_index in sorted(affected):
            entry = affected[unit_index]
            if entry.done or entry.abandoned:
                continue
            if entry.full_duration > 0:
                entry.progress = min(
                    1.0,
                    entry.progress + (now - entry.updated_at) / entry.full_duration,
                )
            else:
                entry.progress = 1.0
            entry.updated_at = now
            old_completion = entry.completion
            entry.full_duration = max(
                0.0, self.strategy.reprice_unit(self._current_plan, entry.unit)
            )
            self._schedule_completion(entry)
            self.trace.record(
                now,
                self._current_round,
                "unit_repriced",
                entry.unit.agent_ids,
                detail={
                    "old_completion": old_completion,
                    "new_completion": entry.completion,
                },
            )

    def _schedule_completion(self, entry: _FlightEntry) -> None:
        """(Re-)schedule a unit's completion under a fresh event version."""
        entry.version += 1
        self.engine.schedule_at(
            entry.completion,
            kind="unit_complete",
            payload=(self._current_round, entry.unit.index, entry.version),
            callback=self._on_unit_complete_event,
        )

    def _on_unit_complete_event(self, event: Event) -> None:
        """Handle a (possibly stale) unit-completion event."""
        round_index, unit_index, version = event.payload
        flight = self._flight
        if flight is None or round_index != self._current_round:
            return  # a dropped straggler from an earlier round
        entry = flight.get(unit_index)
        if (
            entry is None
            or entry.done
            or entry.abandoned
            or version != entry.version
        ):
            return  # superseded by a re-cost or an abandonment
        entry.done = True
        entry.progress = 1.0
        entry.updated_at = event.timestamp
        self.trace.record(
            event.timestamp,
            round_index,
            "unit_complete",
            entry.unit.agent_ids,
            detail={"duration": event.timestamp - self._round_start},
        )
        if self._on_done_hook is not None:
            self._on_done_hook(entry, event)

    def _start_dynamic_round(
        self, round_index: int
    ) -> tuple[float, RoundPlan, dict[int, _FlightEntry]]:
        """Shared prologue of the dynamics-aware execution paths.

        Fires boundary dynamics due at the current time (so arrivals with
        ``time <= now`` join this round's plan), applies legacy
        round-interval churn, plans the round, and puts every unit in
        flight with a scheduled completion event.
        """
        self._current_round = round_index
        start = self.engine.now
        self._round_start = start
        self._flight = None
        self._on_done_hook = None
        self._on_abandon_hook = None
        self.engine.run_until(start)
        plan = self._plan(round_index)
        self._current_plan = plan
        self.trace.record(start, round_index, "round_start")
        flight: dict[int, _FlightEntry] = {
            unit.index: _FlightEntry(
                unit=unit,
                progress=0.0,
                full_duration=unit.duration,
                updated_at=start,
            )
            for unit in plan.units
        }
        by_agent: dict[int, list[_FlightEntry]] = {}
        for entry in flight.values():
            for agent_id in entry.unit.agent_ids:
                by_agent.setdefault(agent_id, []).append(entry)
        self._flight = flight
        self._flight_by_agent = by_agent
        for entry in flight.values():
            self._schedule_completion(entry)
        return start, plan, flight

    def _drive_until_closed(self, closure: dict) -> None:
        """Step the engine until the round's closure condition fires."""
        while not closure["closed"]:
            if self.engine.step() is None:
                # Nothing left to process (e.g. every unit was abandoned
                # and no hook closed the round) — close at the current time.
                closure["closed"] = True
                closure["time"] = self.engine.now
                break

    def _run_round_sync_dynamic(self, round_index: int) -> RoundRecord:
        """Full barrier over whatever survives arrivals/churn/departures."""
        start, plan, flight = self._start_dynamic_round(round_index)
        closure = {"closed": not flight, "time": start}
        # A unit is pending, done or abandoned, and a done unit is never
        # abandoned, so every live (non-abandoned) unit is done exactly
        # when the two counters meet.
        state = {"completed": 0, "live": len(flight)}

        def _check_all_done(at: float) -> None:
            if closure["closed"]:
                return
            if state["completed"] == state["live"]:
                closure["closed"] = True
                closure["time"] = at

        def _on_done(entry: _FlightEntry, event: Event) -> None:
            state["completed"] += 1
            _check_all_done(event.timestamp)

        def _on_abandon(entry: _FlightEntry) -> None:
            state["live"] -= 1
            _check_all_done(self.engine.now)

        self._on_done_hook = _on_done
        self._on_abandon_hook = _on_abandon
        self._drive_until_closed(closure)
        return self._finish_dynamic_round(
            plan,
            round_index,
            start,
            closure["time"],
            flight,
            trace_aggregation=True,
        )

    def _finish_dynamic_round(
        self,
        plan: RoundPlan,
        round_index: int,
        start: float,
        close_time: float,
        flight: dict[int, _FlightEntry],
        observed_makespan: Optional[float] = None,
        trace_aggregation: bool = False,
    ) -> RoundRecord:
        """Shared epilogue of the barrier/quorum dynamic paths.

        Prices the aggregation over the units that actually completed,
        drains the aggregation window, advances the learning plane on the
        surviving decisions, and appends the round record.
        """
        close_time = max(close_time, start)
        # The flight is keyed in unit order, so the kept units are too.
        kept_units = [entry.unit for entry in flight.values() if entry.done]
        self._flight = None
        # Price aggregation over the surviving set through the strategy's
        # kept-units hook: methods that bill communication inside their unit
        # chains (FedAvg) return 0 here, and ComDML re-prices its AllReduce
        # over whoever actually made the barrier/quorum.  With every unit
        # surviving this equals the plan's full-barrier figure.
        aggregation = (
            self.strategy.semi_sync_aggregation_seconds(plan, kept_units)
            if kept_units
            else 0.0
        )
        end = close_time + aggregation
        self.engine.schedule_at(end, kind="round_end", priority=2, payload=round_index)
        self.engine.run_until(end)
        # Recorded after the window is drained so dynamics events landing
        # inside (close_time, end) keep the trace chronological.
        if trace_aggregation and aggregation > 0:
            self.trace.record(end, round_index, "aggregation")
        kept_decisions = self._kept_decisions(plan, kept_units)
        accuracy = (
            self._advance_learning_plane(plan, kept_decisions)
            if kept_units
            else self._last_accuracy
        )
        return self._finish_round(
            plan,
            accuracy,
            duration=end - start,
            compute_seconds=close_time - start,
            aggregation_seconds=aggregation,
            num_pairs=kept_decisions.num_pairs(),
            communication_seconds=self._communication_for(plan, kept_decisions),
            observed_makespan=observed_makespan,
        )

    def _run_round_semi_sync_dynamic(self, round_index: int) -> RoundRecord:
        """Event-driven quorum closure with in-flight dynamics.

        The quorum policy's decision is interpreted live: the round closes
        at the target-count-th completion or at the policy's deadline
        (whichever comes first, always with at least one completion unless
        every unit was abandoned), so churn-induced re-costs and departures
        genuinely reorder who makes the quorum.
        """
        start, plan, flight = self._start_dynamic_round(round_index)
        durations = sorted(entry.full_duration for entry in flight.values())
        decision = (
            self.quorum_policy.decide(durations, self.stats)
            if durations
            else None
        )
        target = (
            max(1, min(decision.target_count, len(durations)))
            if decision is not None
            else 0
        )
        # Counters, as in the sync path: ``live`` units are not abandoned,
        # and ``completed`` of them are done.
        state = {"completed": 0, "live": len(flight), "deadline_passed": False}
        closure = {"closed": not flight, "time": start}

        def _close(at: float) -> None:
            if closure["closed"]:
                return
            closure["closed"] = True
            closure["time"] = at
            pending = [
                entry
                for entry in flight.values()
                if not entry.done and not entry.abandoned
            ]
            self.trace.record(
                at,
                round_index,
                "quorum_reached",
                detail={
                    "kept": state["completed"],
                    "dropped": len(pending),
                    "policy": self.quorum_policy.name,
                },
            )
            for entry in sorted(
                pending, key=lambda e: (e.completion, e.unit.index)
            ):
                self.trace.record(
                    at,
                    round_index,
                    "straggler_dropped",
                    entry.unit.agent_ids,
                    detail={"projected_completion": entry.completion},
                )

        def _maybe_close(at: float) -> None:
            # With every live unit done, completed == live >= the effective
            # target, so the target test also closes a fully finished round.
            if closure["closed"]:
                return
            live = state["live"]
            if not live:
                _close(at)
                return
            effective_target = max(1, min(target, live))
            if state["completed"] >= effective_target:
                _close(at)
            elif state["deadline_passed"] and state["completed"] >= 1:
                _close(at)

        def _on_done(entry: _FlightEntry, event: Event) -> None:
            state["completed"] += 1
            _maybe_close(event.timestamp)

        def _on_abandon(entry: _FlightEntry) -> None:
            state["live"] -= 1
            _maybe_close(self.engine.now)

        self._on_done_hook = _on_done
        self._on_abandon_hook = _on_abandon

        if decision is not None and decision.deadline_seconds is not None:

            def _on_deadline(event: Event) -> None:
                if closure["closed"]:
                    return
                state["deadline_passed"] = True
                self.trace.record(
                    event.timestamp,
                    round_index,
                    "quorum_deadline",
                    detail={"deadline_seconds": decision.deadline_seconds},
                )
                if state["completed"] >= 1:
                    _close(event.timestamp)

            self.engine.schedule_at(
                start + decision.deadline_seconds,
                kind="quorum_deadline",
                priority=1,
                callback=_on_deadline,
            )

        self._drive_until_closed(closure)
        # Untruncated local-phase makespan: for dropped stragglers this is
        # their projected completion, so the quorum statistics observe what
        # the round *would* have taken under a full barrier.
        full_makespan = max(
            (
                entry.completion - start
                for entry in flight.values()
                if not entry.abandoned
            ),
            default=0.0,
        )
        return self._finish_dynamic_round(
            plan,
            round_index,
            start,
            closure["time"],
            flight,
            observed_makespan=full_makespan,
        )

    def _run_round_async_dynamic(self, round_index: int) -> RoundRecord:
        """Per-unit gossip aggregation with in-flight dynamics.

        Each surviving unit's completion schedules its own aggregation;
        the round closes when every non-abandoned unit has aggregated.
        Unlike the closed-form async path, gossip costs are priced at
        completion time, so mid-round churn affects them too.
        """
        start, plan, flight = self._start_dynamic_round(round_index)
        learning_rate = self._lr_schedule.learning_rate
        state = {"accuracy": self._last_accuracy, "outstanding": len(flight)}
        closure = {"closed": not flight, "time": start}

        def _close(at: float) -> None:
            if closure["closed"]:
                return
            closure["closed"] = True
            closure["time"] = at

        def _aggregate(event: Event) -> None:
            unit: WorkUnit = event.payload
            participation = participation_fraction(self.registry, unit.decisions)
            state["accuracy"] = self.accuracy_tracker.after_round(
                unit.decisions, participation, learning_rate
            )
            self.trace.record(
                event.timestamp,
                round_index,
                "aggregation",
                unit.agent_ids,
                detail={"accuracy": state["accuracy"]},
            )
            state["outstanding"] -= 1
            if state["outstanding"] <= 0:
                _close(event.timestamp)

        def _on_done(entry: _FlightEntry, event: Event) -> None:
            cost = max(
                0.0, self.strategy.async_unit_aggregation_seconds(plan, entry.unit)
            )
            self.engine.schedule_after(
                cost, kind="aggregation", payload=entry.unit, callback=_aggregate
            )

        def _on_abandon(entry: _FlightEntry) -> None:
            state["outstanding"] -= 1
            if state["outstanding"] <= 0:
                _close(self.engine.now)

        self._on_done_hook = _on_done
        self._on_abandon_hook = _on_abandon
        self._drive_until_closed(closure)
        end = max(closure["time"], start)
        compute = max(
            (entry.updated_at - start for entry in flight.values() if entry.done),
            default=0.0,
        )
        # Like the other dynamic paths, the record reflects only the units
        # that actually ran: an abandoned pair contributes neither its pair
        # count nor its offload traffic.
        kept_decisions = self._kept_decisions(
            plan, [entry.unit for entry in flight.values() if entry.done]
        )
        self._flight = None
        self.engine.run_until(end)
        accuracy = state["accuracy"]
        self._lr_schedule.step(accuracy)
        return self._finish_round(
            plan,
            accuracy,
            duration=end - start,
            compute_seconds=compute,
            aggregation_seconds=max(0.0, (end - start) - compute),
            num_pairs=kept_decisions.num_pairs(),
            communication_seconds=self._communication_for(plan, kept_decisions),
        )

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one global round in the configured mode.

        A non-empty :class:`~repro.runtime.dynamics.DynamicsSchedule`
        selects the dynamics-aware execution paths; otherwise the original
        closed-form paths run (``sync`` stays bit-for-bit identical to the
        seed loops).
        """
        mode = self.config.execution_mode
        self._current_round = round_index
        if self.dynamics:
            if mode == "sync":
                return self._run_round_sync_dynamic(round_index)
            if mode == "semi-sync":
                return self._run_round_semi_sync_dynamic(round_index)
            if mode == "async":
                return self._run_round_async_dynamic(round_index)
        else:
            if mode == "sync":
                return self._run_round_sync(round_index)
            if mode == "semi-sync":
                return self._run_round_semi_sync(round_index)
            if mode == "async":
                return self._run_round_async(round_index)
        raise ValueError(f"unknown execution mode {mode!r}")

    def run(self) -> RunHistory:
        """Run until the target accuracy is reached or ``max_rounds`` expire."""
        for round_index in range(self.config.max_rounds):
            record = self.run_round(round_index)
            if (
                self.config.target_accuracy is not None
                and record.accuracy >= self.config.target_accuracy
            ):
                logger.info(
                    "target accuracy %.3f reached after %d rounds (%.0f simulated s)",
                    self.config.target_accuracy,
                    round_index + 1,
                    self.engine.now,
                )
                break
        # Push any buffered trace events to their sinks; files stay open
        # (and unsealed) so callers can keep recording or close explicitly.
        self.trace.flush()
        return self.history
