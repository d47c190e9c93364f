"""Round timing: price a pairing plan.

Reduces a list of :class:`~repro.core.pairing.PairingDecision` to the
round makespan, the offload communication total and the pair count, then
adds the decentralized AllReduce aggregation cost over the round's
participants.  This is the pricing ComDML's orchestrator runs every round;
the Table I decomposition and the Figure 1 illustration read the per-pair
:class:`~repro.core.workload.OffloadEstimate` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.agents.agent import Agent
from repro.core.pairing import PairingDecision
from repro.core.profiling import SplitProfile
from repro.network.allreduce import allreduce_time
from repro.network.compression import GradientCompressor
from repro.utils.units import mbps_to_bytes_per_second


@dataclass(frozen=True)
class RoundTiming:
    """Timing of one full round (local work, makespan, aggregation).

    Attributes
    ----------
    makespan:
        Slowest pair/solo agent's completion time (local phase).
    aggregation_time:
        AllReduce duration (0 for a round with no participants).
    total_time:
        ``makespan + aggregation_time``.
    total_communication_time:
        Intermediate-activation/offload traffic time (excludes aggregation).
    num_pairs:
        Number of decisions that paired the slow agent with a helper.
    """

    makespan: float
    aggregation_time: float
    total_time: float
    total_communication_time: float
    num_pairs: int


def bottleneck_bandwidth(agents: Sequence[Agent]) -> float:
    """Slowest connected agent's link speed (bytes/s) among the participants."""
    connected = [
        agent.profile.bandwidth_bytes_per_second
        for agent in agents
        if agent.is_connected
    ]
    if not connected:
        # No usable links: fall back to the slowest nominal profile (10 Mbps)
        # so the aggregation still completes in the simulation.
        return mbps_to_bytes_per_second(10.0)
    return min(connected)


def compute_round_timing(
    decisions: Sequence[PairingDecision],
    participants: Sequence[Agent],
    profile: SplitProfile,
    allreduce_algorithm: str = "halving_doubling",
    compressor: Optional[GradientCompressor] = None,
) -> RoundTiming:
    """Price a round from its pairing decisions.

    ``participants`` are the agents the decisions were planned over; every
    one of them appears in exactly one decision, and all of them join the
    AllReduce.  The makespan, the communication total and the pair count
    are accumulated in one pass over the decisions (decision order,
    left-to-right additions — the exact float sequence the sync golden
    regression pins down).
    """
    makespan = 0.0
    total_communication = 0.0
    num_pairs = 0
    for decision in decisions:
        estimate = decision.estimate
        makespan = max(makespan, estimate.pair_time)
        total_communication += estimate.communication_time
        if decision.fast_id is not None:
            num_pairs += 1

    aggregation = (
        allreduce_time(
            model_bytes=profile.full_model_bytes,
            num_agents=len(participants),
            bottleneck_bandwidth_bytes_per_second=bottleneck_bandwidth(participants),
            algorithm=allreduce_algorithm,
            compressor=compressor,
        )
        if participants
        else 0.0
    )
    return RoundTiming(
        makespan=makespan,
        aggregation_time=aggregation,
        total_time=makespan + aggregation,
        total_communication_time=total_communication,
        num_pairs=num_pairs,
    )
