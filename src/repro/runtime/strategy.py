"""The per-method contract of the :class:`~repro.runtime.TrainingRuntime`.

A training method contributes only what makes it unique — how a round's
work is decomposed, priced, and aggregated — expressed as a
:class:`RoundPlan`: the round's decisions as one
:class:`~repro.core.pairing.PairingPlan` of columns plus a duration column,
one work unit per decision.  :class:`WorkUnit` objects are views of those
columns, built one at a time (:meth:`RoundPlan.unit`) only where one unit is
handled on its own: the strategy hooks of the in-flight dynamics.  An async
round prices its units' gossip aggregations as a column, one call per round
(:meth:`RoundStrategy.async_unit_aggregation_seconds`), plus a one-row call
for each unit a re-cost moved.  Everything methods share (churn,
participation sampling, the LR schedule, accuracy tracking, history, the
event loop) lives in the runtime.  ComDML's strategy derives its plan from
the pairing scheduler; each baseline derives its plan from its
``round_timing`` pattern.

Besides planning, a strategy exposes three *dynamics hooks* the runtime
invokes when a :class:`~repro.runtime.dynamics.DynamicsSchedule` perturbs
the population mid-run: ``reprice_unit`` (fresh price of an in-flight unit
after churn), ``on_agent_arrival`` and ``on_agent_departure`` (topology
wiring).  :class:`StrategyDefaults` provides inert fallbacks, so a
strategy can opt into dynamics incrementally.

This module also hosts the round helpers that were previously duplicated
between ``core/comdml.py`` and ``baselines/base.py``:
:func:`participation_fraction` and :func:`solo_decisions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.core.pairing import PairingDecision, PairingPlan
from repro.core.profiling import SplitProfile
from repro.core.workload import individual_training_time

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.dynamics import ArrivalAttachment


@dataclass(frozen=True)
class WorkUnit:
    """One independently completing unit of local work within a round.

    For ComDML a unit is one pairing decision (a pair or a solo agent); for
    the baselines a unit is one participant training the full model.  Units
    are what the ``semi-sync`` quorum counts and what the ``async`` mode
    aggregates one at a time.  A unit is a view of row ``index`` of its
    :class:`RoundPlan`'s columns (see :meth:`RoundPlan.unit`); its
    decision is built only when asked for.
    """

    index: int
    agent_ids: tuple[int, ...]
    duration: float
    pairing: PairingPlan = field(repr=False, compare=False)

    @property
    def decisions(self) -> tuple[PairingDecision, ...]:
        """The unit's pairing decision (from the plan's shared views)."""
        return (self.pairing.views[self.index],)


@dataclass(frozen=True, eq=False)
class RoundPlan:
    """A fully priced round, before the runtime executes it.

    Unit ``r`` of the round is decision ``r`` of :attr:`decisions`.

    Attributes
    ----------
    round_index:
        Zero-based round this plan belongs to.
    decisions:
        Every pairing decision of the round, as columns (the learning-plane
        input).
    durations:
        Each unit's local duration in seconds (``float64``, one per
        decision).
    aggregation_seconds:
        Round-closing aggregation cost under a full barrier.
    duration_seconds:
        Full synchronous round duration (local + aggregation).
    compute_seconds / communication_seconds:
        Values recorded in the round record's breakdown fields.
    num_pairs:
        Number of offloading pairs formed (0 for baselines).
    """

    round_index: int
    decisions: PairingPlan
    durations: np.ndarray
    aggregation_seconds: float
    duration_seconds: float
    compute_seconds: float
    communication_seconds: float
    num_pairs: int

    def unit(self, row: int) -> WorkUnit:
        """Unit ``row`` as a view of the plan's columns."""
        decisions = self.decisions
        slow = int(decisions.slow_id[row])
        fast = int(decisions.fast_id[row])
        return WorkUnit(
            index=row,
            agent_ids=(slow,) if fast < 0 else (slow, fast),
            duration=float(self.durations[row]),
            pairing=decisions,
        )


@runtime_checkable
class RoundStrategy(Protocol):
    """What a training method contributes to the shared runtime."""

    #: Human-readable method name used in histories and reports.
    method_name: str

    def select_participants(self) -> list[Agent]:
        """Sample this round's participants (consumes the method's RNG)."""
        ...

    def plan_round(
        self, round_index: int, participants: Sequence[Agent]
    ) -> RoundPlan:
        """Decompose and price one round of work for the participants."""
        ...

    def semi_sync_aggregation_seconds(
        self, plan: RoundPlan, kept: PairingPlan
    ) -> float:
        """Aggregation cost when only the kept units' decisions are aggregated.

        ``kept`` holds the decisions of the units that made the quorum (or
        the barrier of a dynamics-aware sync round), as rows of ``plan``.
        """
        ...

    def async_unit_aggregation_seconds(
        self, plan: RoundPlan, rows: np.ndarray
    ) -> np.ndarray:
        """Cost of each given unit's gossip-style aggregation in ``async`` mode.

        ``rows`` are units of ``plan``; the result holds one cost in
        seconds per row, in the same order.  The runtime prices every unit
        when the round starts, and a unit again when it completes after a
        re-cost, so the price may read agent state as it is at that time.
        """
        ...

    def reprice_unit(self, plan: RoundPlan, unit: WorkUnit) -> float:
        """Current full-round price of a unit under present agent profiles.

        Called when a :class:`~repro.runtime.dynamics.DynamicsSchedule`
        churn event lands while the unit is in flight: the runtime keeps the
        completed fraction of the unit and re-costs the remainder at this
        fresh price.
        """
        ...

    def on_agent_arrival(
        self,
        agent: Agent,
        neighbors: Optional[Sequence[int]] = None,
        attachment: Optional["ArrivalAttachment"] = None,
    ) -> None:
        """React to a mid-run arrival (e.g. wire the agent into the topology).

        ``attachment`` carries the arrival event's
        :class:`~repro.runtime.dynamics.ArrivalAttachment` policy; explicit
        ``neighbors`` take precedence over it.
        """
        ...

    def on_agent_departure(self, agent: Agent) -> None:
        """React to a mid-run departure (e.g. drop the agent's topology links)."""
        ...


class StrategyDefaults:
    """Default mode-specific pricing and dynamics hooks shared by strategies.

    ``semi-sync`` conservatively keeps the full-barrier aggregation price;
    ``async`` splits it evenly across the round's units (each unit pays its
    share when it gossips its update).  Methods with a real per-subset cost
    model (e.g. ComDML's AllReduce over the finishers) override these.

    The dynamics hooks default to inert behaviour — ``reprice_unit`` keeps
    the plan-time price, and the arrival/departure callbacks do nothing —
    so a strategy that ignores mid-round dynamics still runs correctly
    under a :class:`~repro.runtime.dynamics.DynamicsSchedule` (churn simply
    has no mid-round timing effect on it).
    """

    def semi_sync_aggregation_seconds(
        self, plan: RoundPlan, kept: PairingPlan
    ) -> float:
        return plan.aggregation_seconds

    def async_unit_aggregation_seconds(
        self, plan: RoundPlan, rows: np.ndarray
    ) -> np.ndarray:
        return np.full(
            len(rows), plan.aggregation_seconds / max(1, len(plan.durations))
        )

    def reprice_unit(self, plan: RoundPlan, unit: WorkUnit) -> float:
        return unit.duration

    def on_agent_arrival(
        self,
        agent: Agent,
        neighbors: Optional[Sequence[int]] = None,
        attachment: Optional["ArrivalAttachment"] = None,
    ) -> None:
        return None

    def on_agent_departure(self, agent: Agent) -> None:
        return None


def participation_fraction(
    registry: AgentRegistry, decisions: Sequence[PairingDecision]
) -> float:
    """Fraction of the population's data that contributed to a round.

    Counts every agent involved in a decision (solo agents and both members
    of each pair) once, weighted by its local dataset size.  A
    :class:`~repro.core.pairing.PairingPlan` is read through its columns.
    """
    total = registry.total_samples
    if total == 0:
        return 1.0
    if isinstance(decisions, PairingPlan):
        involved = decisions.agent_ids()
    else:
        involved = _decision_agent_ids(decisions)
    return min(1.0, registry.samples_of(involved) / total)


def _decision_agent_ids(decisions: Sequence[PairingDecision]) -> list[int]:
    """Every agent a list of decisions involves, one decision at a time."""
    involved = []
    for decision in decisions:
        involved.append(decision.slow_id)
        if decision.fast_id is not None:
            involved.append(decision.fast_id)
    return involved


def solo_decisions(
    participants: Sequence[Agent], profile: SplitProfile
) -> PairingPlan:
    """Every participant trains the full model alone (no offloading)."""
    times = [
        individual_training_time(agent, profile, agent.batch_size)
        for agent in participants
    ]
    return PairingPlan.solo(
        [agent.agent_id for agent in participants], np.array(times, dtype=np.float64)
    )
