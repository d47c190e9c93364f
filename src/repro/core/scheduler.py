"""Decentralized pairing scheduler.

Thin wrapper around :func:`~repro.core.pairing.greedy_pairing` and the
:class:`~repro.core.planner.PrunedPlanner` that applies per-round
participation sampling and picks the planning path for each round.  Both
paths return the round's decisions as one
:class:`~repro.core.pairing.PairingPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.registry import AgentRegistry
from repro.core.pairing import PairingPlan, greedy_pairing
from repro.core.planner import PrunedPlanner
from repro.core.profiling import SplitProfile
from repro.network.link import LinkModel
from repro.utils.validation import check_probability


@dataclass
class SchedulerStats:
    """Running statistics of the observed round makespans.

    Makespans are folded into running sums (O(1) memory) so million-round
    runs do not accumulate an ever-growing list.  Besides the mean, the
    running sum of squares supports the dispersion measures
    (:attr:`makespan_std`, :attr:`makespan_cv`) the adaptive semi-sync
    quorum policy uses to detect that observed makespans have stabilised
    (see :mod:`repro.runtime.quorum`).
    """

    makespan_count: int = 0
    makespan_sum: float = 0.0
    makespan_sq_sum: float = 0.0

    def record_makespan(self, makespan: float) -> None:
        """Fold one round's makespan into the running mean/variance."""
        self.makespan_count += 1
        self.makespan_sum += makespan
        self.makespan_sq_sum += makespan * makespan

    @property
    def average_makespan(self) -> float:
        """Mean estimated local-phase makespan per round."""
        return self.makespan_sum / self.makespan_count if self.makespan_count else 0.0

    @property
    def makespan_variance(self) -> float:
        """Population variance of the recorded makespans (0 with no history)."""
        if self.makespan_count == 0:
            return 0.0
        mean = self.average_makespan
        return max(0.0, self.makespan_sq_sum / self.makespan_count - mean * mean)

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
    """Produces a pairing plan for each training round."""

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
        #: Optional scalable planner (see :mod:`repro.core.planner`).  When
        #: set and engaged for a round's population, it replaces the dense
        #: kernel; otherwise the exact dense path below runs unchanged.
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
        """Produce the pairing decisions for one round.

        When a :class:`~repro.core.planner.PrunedPlanner` is attached and
        engages for this population, it plans the round (top-k pruned
        blocks, incremental across rounds); otherwise the exact dense
        kernel, :func:`~repro.core.pairing.greedy_pairing`, does.
        """
        if participants is None:
            participants = self.select_participants()
        if self.planner is not None and self.planner.engages(len(participants)):
            return self.planner.plan(participants)
        return PairingPlan.from_decisions(
            greedy_pairing(
                participants=participants,
                link_model=self.link_model,
                profile=self.profile,
                improvement_threshold=self.improvement_threshold,
            )
        )
