"""Pluggable semi-sync quorum policies.

A ``semi-sync`` round (``ComDMLConfig.execution_mode = "semi-sync"``) does
not wait for the full barrier: it closes once "enough" of the round's
:class:`~repro.runtime.strategy.WorkUnit` have finished and drops the rest
as stragglers.  What counts as *enough* is a :class:`QuorumPolicy`, selected
through ``ComDMLConfig.quorum_policy`` (CLI: ``compare --quorum-policy``):

``"fixed"`` — :class:`FixedFractionQuorum`
    The original behaviour: keep ``ceil(quorum_fraction × n)`` units.
``"deadline"`` — :class:`DeadlineQuorum`
    Close the round at ``quorum_deadline_factor ×`` the running mean of
    observed local-phase makespans
    (:attr:`~repro.core.scheduler.SchedulerStats.average_makespan`).  Units
    still in flight at the deadline are dropped; if even the fastest unit
    misses it, that one unit is kept so a round always aggregates
    something.  Rounds with no makespan history yet (or a degenerate zero
    mean) fall back to the fixed-fraction decision.
``"adaptive"`` — :class:`AdaptiveQuorum`
    Starts as a full barrier and tightens towards ``quorum_fraction`` as
    the coefficient of variation of observed makespans
    (:attr:`~repro.core.scheduler.SchedulerStats.makespan_cv`) stabilises:
    noisy early rounds keep everyone, steady-state rounds shed stragglers.

A policy returns a declarative :class:`QuorumDecision` — *how many* units
to wait for and/or an *absolute latest* closing offset — which the
runtime interprets event by event: the round closes as soon as the target
count of completions is reached, or at the deadline (with at least one
completion), whichever comes first.  :func:`resolve_quorum` is the closed
form of those semantics over a sorted duration list: what a round with no
mid-round dynamics keeps, and when it closes, exactly.  Tests use it as the
oracle of the runtime.

>>> policy = FixedFractionQuorum(0.5)
>>> decision = policy.decide([10.0, 20.0, 30.0, 40.0], SchedulerStats())
>>> decision.target_count
2
>>> resolve_quorum(decision, [10.0, 20.0, 30.0, 40.0])
(2, 20.0)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.scheduler import SchedulerStats
from repro.utils.validation import check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import ComDMLConfig


@dataclass(frozen=True)
class QuorumDecision:
    """What a policy decided for one round, before execution.

    Attributes
    ----------
    target_count:
        Number of completed units that closes the round (clamped to
        ``[1, n]`` by the executor).
    deadline_seconds:
        Optional latest closing time as an offset from the round start.
        ``None`` means the round closes purely by count.
    """

    target_count: int
    deadline_seconds: Optional[float] = None


class QuorumPolicy:
    """Decides when a semi-sync round has seen enough completed units."""

    #: Short name used in configs and reports.
    name: str = "abstract"

    def decide(
        self, unit_durations: Sequence[float], stats: SchedulerStats
    ) -> QuorumDecision:
        """Produce the round's quorum decision.

        Parameters
        ----------
        unit_durations:
            Projected unit durations of the round, sorted ascending.
        stats:
            The runtime's observed-makespan statistics over *previous*
            rounds (the current round is not yet recorded).
        """
        raise NotImplementedError


class FixedFractionQuorum(QuorumPolicy):
    """Keep a fixed fraction of the round's units (the original behaviour)."""

    name = "fixed"

    def __init__(self, fraction: float) -> None:
        check_probability(fraction, "fraction")
        if fraction <= 0:
            raise ValueError(f"fraction must be positive, got {fraction}")
        self.fraction = fraction

    def decide(
        self, unit_durations: Sequence[float], stats: SchedulerStats
    ) -> QuorumDecision:
        target = max(1, math.ceil(self.fraction * len(unit_durations)))
        return QuorumDecision(target_count=target)


class DeadlineQuorum(QuorumPolicy):
    """Close the round at a multiple of the running makespan mean.

    Parameters
    ----------
    factor:
        The deadline is ``factor × stats.average_makespan`` (the paper-style
        "wait a bit longer than a typical round" rule).
    fallback:
        Policy used while there is no makespan history (first round, or a
        degenerate all-zero history) — by default a fixed-fraction quorum.
    """

    name = "deadline"

    def __init__(
        self, factor: float, fallback: Optional[QuorumPolicy] = None
    ) -> None:
        check_positive(factor, "factor")
        self.factor = factor
        self.fallback = fallback if fallback is not None else FixedFractionQuorum(0.8)

    def decide(
        self, unit_durations: Sequence[float], stats: SchedulerStats
    ) -> QuorumDecision:
        if stats.makespan_count == 0 or stats.average_makespan <= 0:
            return self.fallback.decide(unit_durations, stats)
        return QuorumDecision(
            target_count=len(unit_durations),
            deadline_seconds=self.factor * stats.average_makespan,
        )


class AdaptiveQuorum(QuorumPolicy):
    """Tighten the quorum as observed makespans stabilise.

    The kept fraction interpolates between a full barrier (used while
    makespans are noisy or there is no history) and ``floor_fraction`` (the
    tightest quorum, reached once the makespan coefficient of variation
    drops to zero):

    ``fraction = floor + (1 − floor) × min(1, cv / 0.5)``

    Early rounds therefore behave like a full barrier — nothing is dropped
    while the system is still learning what a normal round looks like — and
    steady-state rounds shed the slowest ``1 − floor_fraction`` of units.
    A coefficient of variation of 0.5 or more keeps every unit.

    Parameters
    ----------
    floor_fraction:
        Tightest fraction of units ever kept (``ComDMLConfig.quorum_fraction``).
    """

    name = "adaptive"

    def __init__(self, floor_fraction: float) -> None:
        check_probability(floor_fraction, "floor_fraction")
        if floor_fraction <= 0:
            raise ValueError(f"floor_fraction must be positive, got {floor_fraction}")
        self.floor_fraction = floor_fraction

    def current_fraction(self, stats: SchedulerStats) -> float:
        """The fraction of units the policy keeps given the history so far."""
        if stats.makespan_count < 2:
            return 1.0
        instability = min(1.0, stats.makespan_cv / 0.5)
        return self.floor_fraction + (1.0 - self.floor_fraction) * instability

    def decide(
        self, unit_durations: Sequence[float], stats: SchedulerStats
    ) -> QuorumDecision:
        fraction = self.current_fraction(stats)
        target = max(1, math.ceil(fraction * len(unit_durations)))
        return QuorumDecision(target_count=target)


def resolve_quorum(
    decision: QuorumDecision, sorted_durations: Sequence[float]
) -> tuple[int, float]:
    """Closed-form quorum outcome over known unit durations.

    Interprets a :class:`QuorumDecision` the way the event-driven executor
    does — close at the ``target_count``-th completion or at the deadline,
    whichever comes first, always keeping at least one unit — and returns
    ``(kept_count, close_offset_seconds)``.

    Parameters
    ----------
    decision:
        The policy's decision for the round.
    sorted_durations:
        The round's unit durations sorted ascending (offsets from the round
        start).
    """
    n = len(sorted_durations)
    if n == 0:
        return 0, 0.0
    target = max(1, min(decision.target_count, n))
    deadline = decision.deadline_seconds
    if deadline is None or sorted_durations[target - 1] <= deadline:
        # Count-based closure (or quorum met before the deadline).
        return target, sorted_durations[target - 1]
    within = bisect_right(sorted_durations, deadline)
    if within == 0:
        # All-stragglers round: even the fastest unit misses the deadline;
        # keep it anyway so the round aggregates something.
        return 1, sorted_durations[0]
    return within, deadline


def make_quorum_policy(config: "ComDMLConfig") -> QuorumPolicy:
    """Build the policy selected by ``config.quorum_policy``."""
    if config.quorum_policy == "fixed":
        return FixedFractionQuorum(config.quorum_fraction)
    if config.quorum_policy == "deadline":
        return DeadlineQuorum(
            config.quorum_deadline_factor,
            fallback=FixedFractionQuorum(config.quorum_fraction),
        )
    if config.quorum_policy == "adaptive":
        return AdaptiveQuorum(floor_fraction=config.quorum_fraction)
    raise ValueError(f"unknown quorum policy {config.quorum_policy!r}")
