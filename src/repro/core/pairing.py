"""Dynamic decentralized pairing (Algorithm 1, ``Main`` loop + ``Pairing``).

Each round:

1. every available agent broadcasts its processing speed ``p_j`` and its
   individual training-time estimate ``τ̂_j`` to its connected neighbours;
2. agents are visited in descending order of ``τ̂`` (slowest first);
3. each still-unpaired agent evaluates, for every still-unpaired connected
   neighbour, the best split it could offload (``AgentTrainingTime``) and
   pairs with the neighbour giving the smallest estimated round time —
   provided that estimate actually improves on training alone;
4. the pair is removed from the pool and the next slowest agent proceeds.

The procedure needs only neighbour-local information (speeds, dataset
sizes, observed link speeds), which is what makes it decentralized: each
agent could run it independently from the shared list of training times and
arrive at the same pairing.

:func:`greedy_pairing` evaluates the (slow × candidate × split) cost
tensor through the vectorized :class:`~repro.core.fastpath.PairCostModel`
kernel; the pure-Python loop is kept as
:func:`greedy_pairing_reference`, the oracle the equivalence tests and
the trajectory benchmarks compare against.  Both produce *identical*
``PairingDecision`` lists — same floats, same tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.profiling import SplitProfile
from repro.core.workload import (
    OffloadEstimate,
    best_offload,
    individual_training_time,
)
from repro.network.link import LinkModel


@dataclass(frozen=True)
class PairingDecision:
    """One entry of the round's workload-balancing plan.

    Attributes
    ----------
    slow_id:
        Agent that offloads (or trains alone when ``fast_id`` is ``None``).
    fast_id:
        Helper agent receiving the offloaded workload, or ``None``.
    offloaded_layers:
        The chosen split ``m`` (0 when training alone).
    estimate:
        The timing estimate backing the decision.
    """

    slow_id: int
    fast_id: Optional[int]
    offloaded_layers: int
    estimate: OffloadEstimate

    @property
    def is_offloading(self) -> bool:
        """Whether this decision actually offloads work."""
        return self.fast_id is not None and self.offloaded_layers > 0


def greedy_pairing(
    participants: Sequence[Agent],
    link_model: LinkModel,
    profile: SplitProfile,
    batch_size: Optional[int] = None,
    improvement_threshold: float = 0.0,
) -> list[PairingDecision]:
    """Pair agents for one round using the paper's greedy scheduler.

    Pair times are evaluated through the vectorized
    :class:`~repro.core.fastpath.PairCostModel` kernel; the decisions are
    identical (to full float equality) to
    :func:`greedy_pairing_reference`.

    Parameters
    ----------
    participants:
        Agents taking part in this round (already sampled if a participation
        fraction applies).
    improvement_threshold:
        Minimum *relative* improvement over training alone required to form
        a pair (0 reproduces the paper; a small positive value avoids pairs
        that barely help, used in ablations).

    Returns
    -------
    One :class:`PairingDecision` per slow agent that offloads, plus one
    (with ``fast_id=None``) per agent that trains alone.  Fast agents that
    help a slow agent do not get their own entry — their own local task is
    accounted for inside the pair's estimate.
    """
    from repro.core.fastpath import PairCostModel

    agents = list(participants)
    if not agents:
        return []
    cost_model = PairCostModel(
        agents, profile, link_model=link_model, batch_size=batch_size
    )
    taus = cost_model.individual_times
    # The shared list A: agent positions in descending order of completion
    # time (stable, so ties keep participant order like the scalar sort).
    order = sorted(range(len(agents)), key=lambda k: taus[k], reverse=True)

    # Candidates must be reachable and actually offload (best split m > 0);
    # the `alive` mask below removes agents as they pair up or train alone.
    candidate = cost_model.pairable
    pair_times = cost_model.best_pair_times
    alive = np.ones(len(agents), dtype=bool)
    decisions: list[PairingDecision] = []

    for i in order:
        if not alive[i]:
            continue
        own_time = float(taus[i])

        row = np.where(candidate[i] & alive, pair_times[i], np.inf)
        best_j = int(np.argmin(row))  # first minimum, like the strict-< scan
        best_time = row[best_j]

        if best_time < own_time * (1.0 - improvement_threshold):
            estimate = cost_model.estimate(i, best_j)
            decisions.append(
                PairingDecision(
                    slow_id=agents[i].agent_id,
                    fast_id=agents[best_j].agent_id,
                    offloaded_layers=estimate.offloaded_layers,
                    estimate=estimate,
                )
            )
            alive[i] = False
            alive[best_j] = False
        else:
            decisions.append(_solo_decision(agents[i].agent_id, own_time))
            alive[i] = False

    return decisions


def _solo_decision(agent_id: int, own_time: float) -> PairingDecision:
    """Decision for an agent that trains the full model alone."""
    return PairingDecision(
        slow_id=agent_id,
        fast_id=None,
        offloaded_layers=0,
        estimate=OffloadEstimate(
            offloaded_layers=0,
            slow_time=own_time,
            fast_own_time=0.0,
            communication_time=0.0,
            fast_offload_time=0.0,
            pair_time=own_time,
        ),
    )


def greedy_pairing_reference(
    participants: Sequence[Agent],
    link_model: LinkModel,
    profile: SplitProfile,
    batch_size: Optional[int] = None,
    improvement_threshold: float = 0.0,
) -> list[PairingDecision]:
    """Scalar reference implementation of :func:`greedy_pairing`.

    One ``AgentTrainingTime`` minimisation per (slow, candidate) pair via
    :func:`~repro.core.workload.best_offload` — the pre-kernel pure-Python
    path, kept as the oracle the vectorized kernel is tested against and
    as the baseline of the round-planning trajectory benchmark.
    """
    agents = list(participants)
    # Step 2 of Algorithm 1: broadcast p_j and τ̂_j — here we simply compute
    # every participant's individual training time from shared information.
    individual_times = {
        agent.agent_id: individual_training_time(
            agent, profile, batch_size or agent.batch_size
        )
        for agent in agents
    }
    # The shared list A: agents in descending order of task completion time.
    order = sorted(agents, key=lambda agent: individual_times[agent.agent_id], reverse=True)

    unpaired: dict[int, Agent] = {agent.agent_id: agent for agent in agents}
    decisions: list[PairingDecision] = []

    for agent in order:
        if agent.agent_id not in unpaired:
            continue
        own_time = individual_times[agent.agent_id]

        best_decision: Optional[PairingDecision] = None
        for candidate_id, candidate in unpaired.items():
            if candidate_id == agent.agent_id:
                continue
            bandwidth = link_model.bandwidth(agent, candidate)
            if bandwidth <= 0:
                continue
            estimate = best_offload(
                slow_agent=agent,
                fast_agent=candidate,
                profile=profile,
                bandwidth_bytes_per_second=bandwidth,
                fast_agent_busy_time=individual_times[candidate_id],
                batch_size=batch_size,
                latency_seconds=link_model.latency_seconds,
            )
            if estimate.offloaded_layers == 0:
                continue
            if best_decision is None or estimate.pair_time < best_decision.estimate.pair_time:
                best_decision = PairingDecision(
                    slow_id=agent.agent_id,
                    fast_id=candidate_id,
                    offloaded_layers=estimate.offloaded_layers,
                    estimate=estimate,
                )

        improves = (
            best_decision is not None
            and best_decision.estimate.pair_time
            < own_time * (1.0 - improvement_threshold)
        )
        if improves:
            decisions.append(best_decision)
            del unpaired[best_decision.slow_id]
            del unpaired[best_decision.fast_id]
        else:
            solo_estimate = OffloadEstimate(
                offloaded_layers=0,
                slow_time=own_time,
                fast_own_time=0.0,
                communication_time=0.0,
                fast_offload_time=0.0,
                pair_time=own_time,
            )
            decisions.append(
                PairingDecision(
                    slow_id=agent.agent_id,
                    fast_id=None,
                    offloaded_layers=0,
                    estimate=solo_estimate,
                )
            )
            del unpaired[agent.agent_id]

    return decisions


def pairing_makespan(decisions: Sequence[PairingDecision]) -> float:
    """Estimated round makespan implied by a set of pairing decisions."""
    if not decisions:
        return 0.0
    return max(decision.estimate.pair_time for decision in decisions)
