"""Dynamic resource churn.

The paper's Table II setup "randomly changed the profile of 20 % of the
agents after 100 rounds" to mimic real-world variation.  ``ResourceChurn``
generalises this: at configurable round intervals, a configurable fraction
of agents is re-assigned a fresh random profile from the paper's grid.

Round-interval churn (``ComDMLConfig.churn_fraction`` /
``churn_interval_rounds``) fires at round boundaries through
:meth:`ResourceChurn.maybe_apply`.  Timestamp-based churn — a
:class:`~repro.runtime.dynamics.DynamicsSchedule` churn event landing while
work is in flight — reuses the same re-assignment machinery via
:meth:`ResourceChurn.apply` (fraction-based) or :func:`churn_agent_profiles`
(explicit agent ids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agents.registry import AgentRegistry
from repro.agents.resources import (
    CONNECTED_BANDWIDTH_PROFILES_MBPS,
    CPU_PROFILES,
    ResourceProfile,
)
from repro.utils.validation import check_positive, check_probability


def churn_agent_profiles(
    registry: AgentRegistry,
    agent_ids: "list[int] | tuple[int, ...]",
    rng: np.random.Generator,
    cpu_profiles: tuple[float, ...] = CPU_PROFILES,
    bandwidth_profiles: tuple[float, ...] = CONNECTED_BANDWIDTH_PROFILES_MBPS,
) -> list[int]:
    """Re-assign fresh random profiles to the given agents.

    Unknown ids are skipped (the agent may have departed before the churn
    event fired).  Returns the ids whose profile actually changed, in the
    order given.

    Each profile entry is drawn as ``rng.integers(len(pool))``: that is the
    index ``rng.choice(pool)`` draws from a 1-D pool, so the profiles and
    the generator's state equal those of ``choice``, which first converts
    the pool to an array on every call.
    """
    changed: list[int] = []
    draw = rng.integers
    cpu_count, bandwidth_count = len(cpu_profiles), len(bandwidth_profiles)
    for agent_id in agent_ids:
        if agent_id not in registry:
            continue
        agent = registry.get(agent_id)
        new_profile = ResourceProfile(
            cpu_share=float(cpu_profiles[draw(cpu_count)]),
            bandwidth_mbps=float(bandwidth_profiles[draw(bandwidth_count)]),
        )
        agent.update_profile(new_profile)
        changed.append(agent_id)
    return changed


@dataclass
class ResourceChurn:
    """Re-randomise a fraction of agent profiles every ``interval_rounds`` rounds.

    Attributes
    ----------
    fraction:
        Fraction of agents whose profile changes at each churn point.
    interval_rounds:
        Number of rounds between churn points (the paper uses 100).
    cpu_profiles / bandwidth_profiles:
        Pools to draw new profiles from.
    """

    fraction: float = 0.2
    interval_rounds: int = 100
    cpu_profiles: tuple[float, ...] = CPU_PROFILES
    bandwidth_profiles: tuple[float, ...] = CONNECTED_BANDWIDTH_PROFILES_MBPS

    def __post_init__(self) -> None:
        check_probability(self.fraction, "fraction")
        check_positive(self.interval_rounds, "interval_rounds")

    def should_trigger(self, round_index: int) -> bool:
        """Whether churn fires at the *start* of the given (0-based) round."""
        if round_index == 0:
            return False
        return round_index % self.interval_rounds == 0

    def apply(self, registry: AgentRegistry, rng: np.random.Generator) -> list[int]:
        """Re-assign profiles to a random subset of agents.

        Returns the ids of agents whose profile changed.
        """
        ids = registry.id_column()
        count = int(round(self.fraction * len(ids)))
        if count == 0:
            return []
        chosen = rng.choice(len(ids), size=count, replace=False)
        return churn_agent_profiles(
            registry,
            ids[chosen].tolist(),
            rng,
            cpu_profiles=self.cpu_profiles,
            bandwidth_profiles=self.bandwidth_profiles,
        )

    def maybe_apply(
        self,
        round_index: int,
        registry: AgentRegistry,
        rng: np.random.Generator,
    ) -> list[int]:
        """Apply churn if this round is a churn point; return changed agent ids."""
        if not self.should_trigger(round_index):
            return []
        return self.apply(registry, rng)
