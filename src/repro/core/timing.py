"""Round timing: price a pairing plan.

Reduces the columns of a :class:`~repro.core.pairing.PairingPlan` to the
round makespan, the offload communication total and the pair count, then
adds the decentralized AllReduce aggregation cost over the round's
participants.  This is the pricing ComDML's orchestrator runs every round;
the Table I decomposition and the Figure 1 illustration read the per-pair
:class:`~repro.core.workload.OffloadEstimate` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.agents.registry import gather_columns
from repro.core.pairing import PairingPlan
from repro.core.profiling import SplitProfile
from repro.network.allreduce import allreduce_time
from repro.utils.units import BITS_PER_BYTE, mbps_to_bytes_per_second

#: Link speed an aggregation is priced at when no participant has a usable
#: link: the slowest nominal profile, so the aggregation still completes.
FALLBACK_BANDWIDTH_MBPS = 10.0


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
    """Slowest connected agent's link speed (bytes/s) among the participants.

    A registry selection is read as a gather of its ``bandwidth_mbps``
    cells; any other sequence one agent at a time.
    """
    columns = gather_columns(agents, "bandwidth_mbps")
    mbps = columns[0] if columns is not None else _link_speeds(agents)
    return bottleneck_of_mbps(mbps)


def _slowest_link_mbps(mbps: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """The bottleneck policy: the slowest link along ``axis``, in Mbps.

    Only positive speeds are links: 0 is a disconnected agent and NaN an
    unregistered one.  With no link, the aggregation runs at
    ``FALLBACK_BANDWIDTH_MBPS``.
    """
    slowest = np.where(mbps > 0, mbps, np.inf).min(axis=axis, initial=np.inf)
    return np.where(slowest < np.inf, slowest, FALLBACK_BANDWIDTH_MBPS)


def bottleneck_of_mbps(mbps: np.ndarray) -> float:
    """:func:`bottleneck_bandwidth` of a column of link speeds in Mbps.

    The minimum is taken in Mbps and converted once: the correctly rounded
    ``x * 10**6 / 8`` is monotone in ``x``, so this equals the minimum of
    the converted speeds.
    """
    return mbps_to_bytes_per_second(float(_slowest_link_mbps(mbps)))


def bottleneck_of_mbps_rows(*columns: np.ndarray) -> np.ndarray:
    """Row-wise :func:`bottleneck_of_mbps`: row ``i`` over each column's row ``i``.

    In bytes/s, converted as :func:`~repro.utils.units.mbps_to_bytes_per_second`
    converts, so a row gives the float its one-row column would.
    """
    slowest = _slowest_link_mbps(np.stack(columns), axis=0)
    return slowest * 1_000_000 / BITS_PER_BYTE


def _link_speeds(agents: Sequence[Agent]) -> np.ndarray:
    """The agents' ``bandwidth_mbps``, read one agent at a time."""
    return np.fromiter(
        (agent.profile.bandwidth_mbps for agent in agents),
        dtype=np.float64,
        count=len(agents),
    )


def compute_round_timing(
    decisions: PairingPlan,
    participants: Sequence[Agent],
    profile: SplitProfile,
) -> RoundTiming:
    """Price a round from its pairing plan.

    ``participants`` are the agents the decisions were planned over; every
    one of them appears in exactly one decision, and all of them join the
    AllReduce.  The makespan, the communication total and the pair count
    are column reductions (see :class:`~repro.core.pairing.PairingPlan`);
    the communication total adds left to right in decision order, the
    exact float sequence the sync golden regression pins down.
    """
    makespan = decisions.makespan()
    aggregation = (
        allreduce_time(
            model_bytes=profile.full_model_bytes,
            num_agents=len(participants),
            bottleneck_bandwidth_bytes_per_second=bottleneck_bandwidth(participants),
        )
        if participants
        else 0.0
    )
    return RoundTiming(
        makespan=makespan,
        aggregation_time=aggregation,
        total_time=makespan + aggregation,
        total_communication_time=decisions.total_communication(),
        num_pairs=decisions.num_pairs(),
    )
