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
:mod:`repro.runtime.dynamics`).  Semi-sync and async rounds always run
event by event, their units in flight as the columns of a flight table, so
a schedule whose events land after the run changes nothing.  A sync round
with no schedule — or an empty one — runs in closed form, so its histories
remain bit-for-bit identical to the seed loops.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from repro.agents.dynamics import ResourceChurn, churn_agent_profiles
from repro.agents.registry import AgentRegistry
from repro.core.config import ComDMLConfig
from repro.core.pairing import PairingPlan
from repro.core.scheduler import SchedulerStats
from repro.nn.schedule import ReduceOnPlateau
from repro.runtime.dynamics import DynamicsEvent, DynamicsSchedule
from repro.runtime.quorum import QuorumPolicy, make_quorum_policy

# No round calls ``resolve_quorum``, but perfbench's tracer wraps it by this
# module's name (``perfbench.tracing.PROBES``), so the name must resolve here.
from repro.runtime.quorum import resolve_quorum  # noqa: F401
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


#: Row states of a :class:`_Flight`.
_PENDING, _DONE, _ABANDONED = 0, 1, 2


class _Flight:
    """A round's units while it is in flight, one column per field.

    Every semi-sync and async round runs on a flight table, and so does a
    sync round under a schedule.  Row ``r`` is unit ``r`` of the round's
    plan.  A unit is modelled as one abstract unit of work: ``progress`` is
    its completed fraction, ``price`` the current price of the whole unit
    under present agent profiles, and ``updated_at`` the simulated time at
    which ``progress`` was last brought up to date.  ``due`` is the unit's
    projected completion as of its last (re-)pricing, and for a done unit
    the time it completed.  ``elapsed`` is that completion as an offset from
    the round start: the plan duration itself until the unit is re-costed,
    ``due - start`` after.  Offsets are read from it, never re-derived as
    ``due - start``, which can round differently.  ``state`` holds each
    row's ``_PENDING``, ``_DONE`` or ``_ABANDONED``.

    The round's batch fires each row's completion under version 0.
    Mid-round churn re-costs a unit by folding elapsed time into
    ``progress``, re-pricing it through the strategy's ``reprice_unit`` hook
    and scheduling a completion event under a bumped ``version``; a
    departure abandons it and bumps the version too.  A completion whose
    version is not the row's current one is stale and ignored when it fires.

    ``row_of`` maps each participant to its row: every participant is in
    exactly one unit.  ``done`` lists the done rows in completion order; the
    rows from ``flushed`` on wait there until the runtime records them as
    one trace block.  :meth:`close` sets when the round closed, as a time
    (``close_time``) and as an offset from its start (``close_elapsed``).
    """

    def __init__(self, plan: RoundPlan, start: float, due: np.ndarray) -> None:
        decisions = plan.decisions
        count = len(plan.durations)
        self.plan = plan
        self.round_index = plan.round_index
        self.start = start
        self.slow_ids: list[int] = decisions.slow_id.tolist()
        self.fast_ids: list[int] = decisions.fast_id.tolist()
        self.progress = [0.0] * count
        self.price: list[float] = plan.durations.tolist()
        self.elapsed = list(self.price)
        self.updated_at = [start] * count
        self.due: list[float] = due.tolist()
        self.version = [0] * count
        self.state = bytearray(count)
        self.row_of = dict(zip(self.slow_ids, range(count)))
        helper_rows = np.flatnonzero(decisions.fast_id >= 0)
        self.row_of.update(
            zip(decisions.fast_id[helper_rows].tolist(), helper_rows.tolist())
        )
        if len(self.row_of) != count + len(helper_rows):
            raise ValueError(
                f"round {plan.round_index}: an agent is in more than one unit "
                "of the plan"
            )
        self.done: list[int] = []
        self.flushed = 0
        # An empty round is closed before it starts.
        self.closed = not count
        self.close_time = start
        self.close_elapsed = 0.0
        self.on_done: Optional[Callable[[int, float], None]] = None
        self.on_abandon: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self.state)

    def agent_ids(self, row: int) -> tuple[int, ...]:
        """The unit's agents: ``(slow,)`` or ``(slow, fast)``."""
        fast = self.fast_ids[row]
        return (self.slow_ids[row],) if fast < 0 else (self.slow_ids[row], fast)

    def completion(self, row: int) -> float:
        """Projected completion of a pending unit under its current price."""
        return (
            self.updated_at[row]
            + max(0.0, 1.0 - self.progress[row]) * self.price[row]
        )

    def rows_in(self, state: int) -> np.ndarray:
        """The rows in the given state, in row order."""
        return np.flatnonzero(np.frombuffer(self.state, dtype=np.uint8) == state)

    def close(self, at: float, elapsed: Optional[float] = None) -> None:
        """Close the round at ``at``, ``elapsed`` (default ``at - start``) in.

        No hook runs after a close: the runtime stops stepping the engine
        and unhooks them before it steps again.
        """
        self.closed = True
        self.close_time = at
        self.close_elapsed = at - self.start if elapsed is None else elapsed


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
        # The units of the dynamics-aware round in flight, if any.
        self._flight: Optional[_Flight] = None
        self._current_round = 0
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
        self._record(
            event.timestamp,
            self._current_round,
            "engine_event",
            detail={"engine_kind": event.kind},
        )

    def _record(
        self,
        timestamp: float,
        round_index: int,
        kind: str,
        agent_ids: tuple[int, ...] = (),
        detail: Optional[dict] = None,
    ) -> None:
        """Record one trace event, after the completions the flight buffers.

        A flight's unit completions wait in its table and reach the trace
        as one block.  Every other trace record that can happen while a
        round is in flight goes through here, so the trace keeps event
        order.
        """
        self._flush_completions()
        self.trace.record(timestamp, round_index, kind, agent_ids, detail)

    def _flush_completions(self) -> None:
        """Record the completions the flight has buffered as one trace block."""
        flight = self._flight
        if flight is None or flight.flushed == len(flight.done):
            return
        rows = flight.done[flight.flushed :]
        flight.flushed = len(flight.done)
        self.trace.record_block(
            flight.round_index,
            "unit_complete",
            [flight.due[row] for row in rows],
            [flight.slow_ids[row] for row in rows],
            [flight.fast_ids[row] for row in rows],
            [flight.elapsed[row] for row in rows],
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
                self._record(self.engine.now, round_index, "churn", tuple(changed))
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
        self._record(
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

    # ------------------------------------------------------------------
    # Mid-round dynamics and the flight-table rounds
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
            self._record(
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
            self._record(now, round_index, "departure", (dyn.agent_id,))
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
            self._record(
                now,
                round_index,
                "churn",
                tuple(changed),
                detail={"source": "schedule"},
            )
            self._reprice_in_flight(set(changed))

    def _abandon_in_flight(self, agent_id: int) -> None:
        """Abandon the in-flight unit of a departed agent (its work is lost)."""
        flight = self._flight
        if flight is None:
            return
        row = flight.row_of.get(agent_id)
        if row is None or flight.state[row] != _PENDING:
            return
        flight.state[row] = _ABANDONED
        flight.version[row] += 1  # invalidate the pending completion
        self._record(
            self.engine.now,
            flight.round_index,
            "unit_abandoned",
            flight.agent_ids(row),
            detail={"departed": agent_id},
        )
        if flight.on_abandon is not None:
            flight.on_abandon(row)

    def _reprice_in_flight(self, affected_ids: set[int]) -> None:
        """Re-cost in-flight units whose agents were just churned.

        The completed fraction of each affected unit is kept; the remainder
        is re-priced at the strategy's fresh ``reprice_unit`` estimate and
        the unit's completion is rescheduled under a bumped version.
        """
        flight = self._flight
        if flight is None:
            return
        now = self.engine.now
        row_of = flight.row_of
        # In row order, and a pair once even if both of its agents churned.
        rows = sorted(
            {row_of[agent_id] for agent_id in affected_ids if agent_id in row_of}
        )
        for row in rows:
            if flight.state[row] != _PENDING:
                continue
            price = flight.price[row]
            if price > 0:
                flight.progress[row] = min(
                    1.0, flight.progress[row] + (now - flight.updated_at[row]) / price
                )
            else:
                flight.progress[row] = 1.0
            flight.updated_at[row] = now
            old_completion = flight.completion(row)
            flight.price[row] = max(
                0.0, self.strategy.reprice_unit(flight.plan, flight.plan.unit(row))
            )
            due = flight.due[row] = flight.completion(row)
            flight.elapsed[row] = due - flight.start
            flight.version[row] += 1
            self.engine.schedule_at(
                due,
                kind="unit_complete",
                payload=(flight, row, flight.version[row]),
                callback=self._on_repriced_completion,
            )
            self._record(
                now,
                flight.round_index,
                "unit_repriced",
                flight.agent_ids(row),
                detail={"old_completion": old_completion, "new_completion": due},
            )

    def _on_completion(
        self, flight: _Flight, version: int, timestamp: float, row: int
    ) -> None:
        """A unit's completion fired; it counts if the unit is pending at ``version``.

        The round's batch fires every row at version 0; a re-costed unit's
        own event carries its bumped version.  Anything else is stale: the
        unit was re-costed, abandoned, or belongs to a closed round.
        """
        if (
            flight is not self._flight
            or flight.version[row] != version
            or flight.state[row] != _PENDING
        ):
            return
        flight.state[row] = _DONE
        flight.done.append(row)
        if flight.on_done is not None:
            flight.on_done(row, timestamp)

    def _on_repriced_completion(self, event: Event) -> None:
        """The completion event a re-cost scheduled fired."""
        flight, row, version = event.payload
        self._on_completion(flight, version, event.timestamp, row)

    def _start_dynamic_round(self, round_index: int) -> _Flight:
        """Shared prologue of the flight-table execution paths.

        Fires boundary dynamics due at the current time (so arrivals with
        ``time <= now`` join this round's plan), applies legacy
        round-interval churn, plans the round, and puts every unit in
        flight: one row of the flight table each, their completions
        scheduled as one engine batch.
        """
        self._current_round = round_index
        self._flight = None
        start = self.engine.now
        self.engine.run_until(start)
        plan = self._plan(round_index)
        self._record(start, round_index, "round_start")
        due = start + plan.durations
        flight = _Flight(plan, start, due)
        self._flight = flight
        # Bound to this round's flight: rows still queued when the round
        # closes fire later as no-ops instead of landing in the next flight.
        self.engine.schedule_batch(
            due, "unit_complete", functools.partial(self._on_completion, flight, 0)
        )
        return flight

    def _end_flight(self) -> None:
        """Record the buffered completions and take the round out of flight."""
        self._flush_completions()
        # The round's hooks close over its flight; unhooking them breaks the
        # cycle, so the plan is freed with the flight, not by a later GC pass.
        self._flight.on_done = self._flight.on_abandon = None
        self._flight = None

    def _drive_until_closed(self, flight: _Flight) -> None:
        """Step the engine until the round's closure condition fires."""
        while not flight.closed:
            if self.engine.step() is None:
                # Nothing left to process (e.g. every unit was abandoned
                # and no hook closed the round) — close at the current time.
                flight.close(self.engine.now)
                break

    def _run_round_sync_dynamic(self, round_index: int) -> RoundRecord:
        """Full barrier over whatever survives arrivals/churn/departures."""
        flight = self._start_dynamic_round(round_index)
        # A unit is pending, done or abandoned, and a done unit is never
        # abandoned, so every live (non-abandoned) unit is done exactly
        # when the two counters meet.
        state = {"completed": 0, "live": len(flight)}

        def _on_done(row: int, at: float) -> None:
            state["completed"] += 1
            if state["completed"] == state["live"]:
                flight.close(at, flight.elapsed[row])

        def _on_abandon(row: int) -> None:
            state["live"] -= 1
            if state["completed"] == state["live"]:
                flight.close(self.engine.now)

        flight.on_done = _on_done
        flight.on_abandon = _on_abandon
        self._drive_until_closed(flight)
        return self._finish_dynamic_round(
            flight, flight.rows_in(_DONE), trace_aggregation=True
        )

    def _finish_dynamic_round(
        self,
        flight: _Flight,
        kept_rows: np.ndarray,
        observed_makespan: Optional[float] = None,
        trace_aggregation: bool = False,
    ) -> RoundRecord:
        """Shared epilogue of the barrier/quorum flight paths.

        Prices the aggregation over the units that actually completed
        (``kept_rows``, in the order their traffic is summed in), drains the
        aggregation window, advances the learning plane on the surviving
        decisions, and appends the round record.
        """
        plan, round_index, start = flight.plan, flight.round_index, flight.start
        close_time = max(flight.close_time, start)
        kept = plan.decisions.take(kept_rows)
        self._end_flight()
        # Price aggregation over the surviving set through the strategy's
        # kept-decisions hook: methods that bill communication inside their
        # unit chains (FedAvg) return 0 here, and ComDML re-prices its
        # AllReduce over whoever actually made the barrier/quorum.  With every
        # unit surviving this equals the plan's full-barrier figure.
        aggregation = (
            self.strategy.semi_sync_aggregation_seconds(plan, kept)
            if len(kept)
            else 0.0
        )
        end = close_time + aggregation
        self.engine.schedule_at(end, kind="round_end", priority=2, payload=round_index)
        self.engine.run_until(end)
        # Recorded after the window is drained so dynamics events landing
        # inside (close_time, end) keep the trace chronological.
        if trace_aggregation and aggregation > 0:
            self._record(end, round_index, "aggregation")
        accuracy = (
            self._advance_learning_plane(plan, kept)
            if len(kept)
            else self._last_accuracy
        )
        return self._finish_round(
            plan,
            accuracy,
            duration=end - start,
            compute_seconds=flight.close_elapsed,
            aggregation_seconds=aggregation,
            num_pairs=kept.num_pairs(),
            communication_seconds=self._communication_for(plan, kept),
            observed_makespan=observed_makespan,
        )

    def _run_round_semi_sync_dynamic(self, round_index: int) -> RoundRecord:
        """Event-driven quorum closure, with or without in-flight dynamics.

        The quorum policy's decision is interpreted live: the round closes
        at the target-count-th completion or at the policy's deadline
        (whichever comes first, always with at least one completion unless
        every unit was abandoned), so churn-induced re-costs and departures
        genuinely reorder who makes the quorum.  With nothing perturbing the
        round this is :func:`~repro.runtime.quorum.resolve_quorum` over the
        sorted plan durations, offsets included.
        """
        flight = self._start_dynamic_round(round_index)
        start = flight.start
        durations = np.sort(flight.plan.durations, kind="stable").tolist()
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

        def _close(at: float, elapsed: float) -> None:
            flight.close(at, elapsed)
            pending = flight.rows_in(_PENDING)
            self._record(
                at,
                round_index,
                "quorum_reached",
                detail={
                    "kept": state["completed"],
                    "dropped": len(pending),
                    "policy": self.quorum_policy.name,
                },
            )
            # By projected completion, ties in row order (a stable sort).
            projected = np.array(flight.due)[pending]
            order = np.argsort(projected, kind="stable")
            for row, completion in zip(
                pending[order].tolist(), projected[order].tolist()
            ):
                self._record(
                    at,
                    round_index,
                    "straggler_dropped",
                    flight.agent_ids(row),
                    detail={"projected_completion": completion},
                )

        def _maybe_close(at: float, elapsed: float) -> None:
            # With every live unit done, completed == live >= the effective
            # target, so the target test also closes a fully finished round.
            live = state["live"]
            if (
                not live
                or state["completed"] >= max(1, min(target, live))
                or (state["deadline_passed"] and state["completed"] >= 1)
            ):
                _close(at, elapsed)

        def _on_done(row: int, at: float) -> None:
            state["completed"] += 1
            _maybe_close(at, flight.elapsed[row])

        def _on_abandon(row: int) -> None:
            state["live"] -= 1
            _maybe_close(self.engine.now, self.engine.now - start)

        flight.on_done = _on_done
        flight.on_abandon = _on_abandon

        if decision is not None and decision.deadline_seconds is not None:

            def _on_deadline(event: Event) -> None:
                if flight.closed:
                    return
                state["deadline_passed"] = True
                self._record(
                    event.timestamp,
                    round_index,
                    "quorum_deadline",
                    detail={"deadline_seconds": decision.deadline_seconds},
                )
                if state["completed"] >= 1:
                    _close(event.timestamp, decision.deadline_seconds)

            self.engine.schedule_at(
                start + decision.deadline_seconds,
                kind="quorum_deadline",
                priority=1,
                callback=_on_deadline,
            )

        self._drive_until_closed(flight)
        # Untruncated local-phase makespan: for dropped stragglers this is
        # their projected completion, so the quorum statistics observe what
        # the round *would* have taken under a full barrier.
        live = np.delete(np.array(flight.elapsed), flight.rows_in(_ABANDONED))
        # Kept traffic adds up in completion order.
        return self._finish_dynamic_round(
            flight,
            np.array(flight.done, dtype=np.int64),
            observed_makespan=float(live.max()) if len(live) else 0.0,
        )

    def _run_round_async_dynamic(self, round_index: int) -> RoundRecord:
        """Per-unit gossip aggregation, with or without in-flight dynamics.

        Each surviving unit's completion schedules its own aggregation;
        the round closes when every non-abandoned unit has aggregated.
        Gossip costs are priced at completion time, so mid-round churn
        affects them too.
        """
        flight = self._start_dynamic_round(round_index)
        plan, start = flight.plan, flight.start
        learning_rate = self._lr_schedule.learning_rate
        state = {"accuracy": self._last_accuracy, "outstanding": len(flight)}

        def _aggregate(event: Event) -> None:
            unit: WorkUnit = event.payload
            participation = participation_fraction(self.registry, unit.decisions)
            state["accuracy"] = self.accuracy_tracker.after_round(
                unit.decisions, participation, learning_rate
            )
            self._record(
                event.timestamp,
                round_index,
                "aggregation",
                unit.agent_ids,
                detail={"accuracy": state["accuracy"]},
            )
            state["outstanding"] -= 1
            if state["outstanding"] <= 0:
                flight.close(event.timestamp)

        def _on_done(row: int, at: float) -> None:
            unit = plan.unit(row)
            cost = max(0.0, self.strategy.async_unit_aggregation_seconds(plan, unit))
            self.engine.schedule_after(
                cost, kind="aggregation", payload=unit, callback=_aggregate
            )

        def _on_abandon(row: int) -> None:
            state["outstanding"] -= 1
            if state["outstanding"] <= 0:
                flight.close(self.engine.now)

        flight.on_done = _on_done
        flight.on_abandon = _on_abandon
        self._drive_until_closed(flight)
        end = max(flight.close_time, start)
        done = flight.rows_in(_DONE)
        compute = float(np.array(flight.elapsed)[done].max()) if len(done) else 0.0
        # Like the other flight paths, the record reflects only the units
        # that actually ran: an abandoned pair contributes neither its pair
        # count nor its offload traffic, and kept traffic adds up in row
        # order.
        kept = plan.decisions.take(done)
        self._end_flight()
        self.engine.run_until(end)
        accuracy = state["accuracy"]
        self._lr_schedule.step(accuracy)
        return self._finish_round(
            plan,
            accuracy,
            duration=end - start,
            compute_seconds=compute,
            aggregation_seconds=max(0.0, (end - start) - compute),
            num_pairs=kept.num_pairs(),
            communication_seconds=self._communication_for(plan, kept),
        )

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one global round in the configured mode.

        Semi-sync and async rounds run on the flight table.  A sync round
        does too under a non-empty
        :class:`~repro.runtime.dynamics.DynamicsSchedule`; without one it
        runs in closed form, bit-for-bit identical to the seed loops.
        """
        mode = self.config.execution_mode
        self._current_round = round_index
        if mode == "sync":
            if self.dynamics:
                return self._run_round_sync_dynamic(round_index)
            return self._run_round_sync(round_index)
        if mode == "semi-sync":
            return self._run_round_semi_sync_dynamic(round_index)
        if mode == "async":
            return self._run_round_async_dynamic(round_index)
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
