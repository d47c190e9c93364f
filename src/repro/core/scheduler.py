"""Decentralized pairing scheduler.

Thin wrapper around the :class:`~repro.core.planner.PrunedPlanner` that
applies per-round participation sampling and returns each round's
decisions as one :class:`~repro.core.pairing.PairingPlan`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.core.pairing import PairingPlan
# Not called here: perfbench's ``pairing.greedy`` probe wraps
# ``repro.core.scheduler.greedy_pairing``, and its tests fail when a probe
# target is missing.
from repro.core.pairing import greedy_pairing  # noqa: F401
from repro.core.planner import PrunedPlanner
from repro.core.profiling import SplitProfile
from repro.network.link import LinkModel
from repro.utils.validation import check_probability


@dataclass
class SchedulerStats:
    """Running statistics of the observed round makespans.

    Makespans are folded into running sums (O(1) memory) so million-round
    runs do not accumulate an ever-growing list.  The mean is
    ``makespan_sum / makespan_count``.  The dispersion measures
    (:attr:`makespan_std`, :attr:`makespan_cv`) the adaptive semi-sync
    quorum policy uses to detect that observed makespans have stabilised
    (see :mod:`repro.runtime.quorum`) come from Welford's update: a running
    mean and ``makespan_sq_dev_sum``, the sum of squared deviations from
    it.  Unlike ``E[x²] - mean²`` it cancels nothing, so identical
    makespans have a variance of exactly zero.
    """

    makespan_count: int = 0
    makespan_sum: float = 0.0
    makespan_sq_dev_sum: float = 0.0
    _running_mean: float = field(default=0.0, init=False, repr=False)

    def record_makespan(self, makespan: float) -> None:
        """Fold one round's makespan into the running mean/variance."""
        self.makespan_count += 1
        self.makespan_sum += makespan
        delta = makespan - self._running_mean
        self._running_mean += delta / self.makespan_count
        self.makespan_sq_dev_sum += delta * (makespan - self._running_mean)

    @property
    def average_makespan(self) -> float:
        """Mean estimated local-phase makespan per round."""
        return self.makespan_sum / self.makespan_count if self.makespan_count else 0.0

    @property
    def makespan_variance(self) -> float:
        """Population variance of the recorded makespans (0 with no history)."""
        if self.makespan_count == 0:
            return 0.0
        return self.makespan_sq_dev_sum / self.makespan_count

    @property
    def makespan_std(self) -> float:
        """Population standard deviation of the recorded makespans."""
        return self.makespan_variance**0.5

    @property
    def makespan_cv(self) -> float:
        """Coefficient of variation (std / mean); 0 with no or degenerate history."""
        mean = self.average_makespan
        if self.makespan_count == 0 or mean <= 0:
            return 0.0
        return self.makespan_std / mean


class DecentralizedPairingScheduler:
    """Produces a pairing plan for each training round.

    ``planner`` plans every round.  Without one, the scheduler builds a
    planner that keeps every candidate at every population size, which
    makes its plans decision-identical to
    :func:`~repro.core.pairing.greedy_pairing`.
    """

    def __init__(
        self,
        registry: AgentRegistry,
        link_model: LinkModel,
        profile: SplitProfile,
        participation_fraction: float = 1.0,
        improvement_threshold: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        planner: Optional[PrunedPlanner] = None,
    ) -> None:
        check_probability(participation_fraction, "participation_fraction")
        self.registry = registry
        self.link_model = link_model
        self.profile = profile
        self.participation_fraction = participation_fraction
        self.improvement_threshold = improvement_threshold
        if planner is None:
            planner = PrunedPlanner(
                profile,
                link_model,
                prune_threshold=sys.maxsize,
                improvement_threshold=improvement_threshold,
            )
        self.planner = planner
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def select_participants(self) -> list[Agent]:
        """Sample this round's participants (all agents when fraction is 1)."""
        if self.participation_fraction >= 1.0:
            return self.registry.agents
        return self.registry.sample_participants(self.participation_fraction, self._rng)

    def plan_round(
        self, participants: Optional[Sequence[Agent]] = None
    ) -> PairingPlan:
        """Produce the pairing decisions for one round (sampled when not given).

        The planner plans it: pruned candidate blocks at or above its
        ``prune_threshold``, every candidate below it, incremental across
        rounds either way.
        """
        if participants is None:
            participants = self.select_participants()
        return self.planner.plan(participants)
