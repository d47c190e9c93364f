"""Workload-balancing optimization (Section III-C / IV-A of the paper).

Given a slow agent ``i``, a candidate fast agent ``j`` and a candidate split
``m``, the estimated round time of the pair is (Algorithm 1, function
``AgentTrainingTime``):

    τ̂_ij^m = max( Ñ_i / p_i^m ,  τ̂_j + Ñ_i ν_m / c_ij + Ñ_i / p_j^m )

with ``p_i^m = p_i / T_s(m)`` and ``p_j^m = p_j / T_f(m)``.  The slow agent
picks the split minimizing this estimate, and the pairing scheduler picks
the helper minimizing over candidates.

The global problem — choose the pairing matrix ``γ_ij ∈ {0,1}`` and the
splits minimizing the makespan ``max_i τ_i`` — is an integer program
(Eq. 5).  :func:`exact_min_makespan` solves it exactly for small
populations (branch-and-bound over the matching tree, with the per-pair
cost tables memoized once per call through the vectorized kernel); it
exists as the optimal reference the greedy decentralized scheduler is
ablated against.

The scalar functions here (:func:`estimate_offload_time`,
:func:`best_offload`) are the *reference oracle*: the vectorized kernel in
:mod:`repro.core.fastpath` mirrors their arithmetic operation-for-operation
and is tested to produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.profiling import SplitProfile
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class OffloadEstimate:
    """Timing estimate for offloading from one agent to another with a given split.

    Attributes
    ----------
    offloaded_layers:
        The split index ``m``.
    slow_time:
        Slow agent's compute time for its retained sub-model.
    fast_own_time:
        Fast agent's time for its *own* local task (the paper's ``τ̂_j``).
    communication_time:
        Time to ship the intermediate activations for the round.
    fast_offload_time:
        Fast agent's compute time for the offloaded sub-model.
    pair_time:
        ``max(slow chain, fast chain)`` — the round time of the pair.
    """

    offloaded_layers: int
    slow_time: float
    fast_own_time: float
    communication_time: float
    fast_offload_time: float
    pair_time: float

    @property
    def fast_chain_time(self) -> float:
        """Total busy time of the fast agent: own task + receive + offloaded work."""
        return self.fast_own_time + self.communication_time + self.fast_offload_time

    @property
    def idle_time(self) -> float:
        """Combined idle time of the two agents within the pair."""
        return abs(self.slow_time - self.fast_chain_time)


def _batches_per_round(agent: Agent) -> float:
    """The paper's ``Ñ_i`` (scaled by local epochs)."""
    return float(agent.batches_per_round)


def agent_processing_speed(
    agent: Agent, profile: SplitProfile, batch_size: int
) -> float:
    """Full-model batches per second for an agent (the paper's ``p_i``)."""
    check_positive(batch_size, "batch_size")
    flops_per_batch = profile.full_train_flops_per_sample * batch_size
    return agent.processing_speed(flops_per_batch)


def individual_training_time(
    agent: Agent, profile: SplitProfile, batch_size: int
) -> float:
    """Round time without offloading (the paper's ``τ_i = Ñ_i / p_i``)."""
    speed = agent_processing_speed(agent, profile, batch_size)
    return _batches_per_round(agent) / speed


def estimate_offload_time(
    slow_agent: Agent,
    fast_agent: Agent,
    offloaded_layers: int,
    profile: SplitProfile,
    bandwidth_bytes_per_second: float,
    fast_agent_busy_time: Optional[float] = None,
) -> OffloadEstimate:
    """Implement the paper's ``AgentTrainingTime`` for one candidate split.

    Both agents' per-sample costs convert to per-batch costs at the slow
    agent's batch size.  Each of the ``Ñ_i`` activation messages pays
    :data:`~repro.sim.costs.DEFAULT_LINK_LATENCY_SECONDS` on top of its
    transfer time.

    Parameters
    ----------
    fast_agent_busy_time:
        The fast agent's estimated time for its own task (``τ̂_j``).  When
        omitted it is computed from the fast agent's dataset and speed, at
        the slow agent's batch size.
    """
    check_positive(bandwidth_bytes_per_second, "bandwidth_bytes_per_second")
    batch_size = slow_agent.batch_size

    slow_speed = agent_processing_speed(slow_agent, profile, batch_size)
    fast_speed = agent_processing_speed(fast_agent, profile, batch_size)
    slow_batches = _batches_per_round(slow_agent)

    slow_factor = profile.slow_time_factor(offloaded_layers)
    fast_factor = profile.fast_time_factor(offloaded_layers)

    # p_i^m = p_i / T_s(m): if the slow side costs a fraction T_s of the full
    # model, the slow agent processes batches 1 / T_s times faster.
    slow_time = (
        slow_batches * slow_factor / slow_speed if slow_factor > 0 else 0.0
    )
    fast_offload_time = (
        slow_batches * fast_factor / fast_speed if fast_factor > 0 else 0.0
    )

    if fast_agent_busy_time is None:
        fast_agent_busy_time = individual_training_time(fast_agent, profile, batch_size)

    intermediate_bytes = profile.intermediate_bytes(offloaded_layers) * batch_size
    if offloaded_layers > 0:
        communication_time = slow_batches * (
            DEFAULT_LINK_LATENCY_SECONDS
            + intermediate_bytes / bandwidth_bytes_per_second
        )
        # The offloaded sub-model itself is shipped once per round when the
        # pair forms (and returned before aggregation).
        communication_time += (
            2.0 * profile.offloaded_bytes(offloaded_layers) / bandwidth_bytes_per_second
        )
    else:
        communication_time = 0.0

    if offloaded_layers == 0:
        pair_time = max(
            individual_training_time(slow_agent, profile, batch_size),
            fast_agent_busy_time,
        )
        slow_time = individual_training_time(slow_agent, profile, batch_size)
        fast_offload_time = 0.0
        communication_time = 0.0
    else:
        fast_chain = fast_agent_busy_time + communication_time + fast_offload_time
        pair_time = max(slow_time, fast_chain)

    return OffloadEstimate(
        offloaded_layers=offloaded_layers,
        slow_time=slow_time,
        fast_own_time=fast_agent_busy_time,
        communication_time=communication_time,
        fast_offload_time=fast_offload_time,
        pair_time=pair_time,
    )


def best_offload(
    slow_agent: Agent,
    fast_agent: Agent,
    profile: SplitProfile,
    bandwidth_bytes_per_second: float,
    fast_agent_busy_time: Optional[float] = None,
) -> OffloadEstimate:
    """Minimize the pair time over all profiled splits (lines 15-22 of Algorithm 1)."""
    estimates = [
        estimate_offload_time(
            slow_agent,
            fast_agent,
            offloaded_layers=option,
            profile=profile,
            bandwidth_bytes_per_second=bandwidth_bytes_per_second,
            fast_agent_busy_time=fast_agent_busy_time,
        )
        for option in profile.offload_options
    ]
    return min(estimates, key=lambda estimate: estimate.pair_time)


# ----------------------------------------------------------------------
# Exact integer-programming reference (used by the ablation benchmark)
# ----------------------------------------------------------------------

def _pair_partitions(ids: Sequence[int]):
    """Yield all partitions of ``ids`` into unordered pairs and singletons.

    The enumeration order (first element solo, then paired with each later
    element in turn) is the tie-breaking contract of
    :func:`exact_min_makespan`: among partitions of equal makespan, the
    first one in this order wins.  The solver itself explores the same
    tree depth-first with branch-and-bound pruning instead of
    materializing every partition; this generator remains the executable
    specification the equivalence tests enumerate with.
    """
    ids = list(ids)
    if not ids:
        yield []
        return
    first, rest = ids[0], ids[1:]
    # First agent stays alone.
    for partition in _pair_partitions(rest):
        yield [(first,)] + partition
    # First agent pairs with each other agent.
    for index, partner in enumerate(rest):
        remaining = rest[:index] + rest[index + 1 :]
        for partition in _pair_partitions(remaining):
            yield [(first, partner)] + partition


def exact_min_makespan(
    agents: Sequence[Agent],
    profile: SplitProfile,
    bandwidth_lookup,
    max_agents: int = 10,
) -> tuple[float, list[tuple[int, Optional[int], int]]]:
    """Exactly solve the pairing/offloading integer program (Eq. 5).

    The group costs are precomputed *once per call*: the per-pair best
    split/time table comes from one vectorized
    :class:`~repro.core.fastpath.PairCostModel` evaluation over all agent
    pairs (the original solver re-derived it with scalar ``best_offload``
    calls for every partition containing the pair).  The partition tree is
    then explored depth-first in :func:`_pair_partitions` order with
    branch-and-bound pruning: a branch whose running makespan already
    reaches the incumbent can never *strictly* beat it, so pruning keeps
    the returned makespan and assignment identical to full enumeration.

    Parameters
    ----------
    bandwidth_lookup:
        Callable ``(agent_a, agent_b) -> bytes_per_second`` returning 0 when
        the two agents cannot communicate.
    max_agents:
        Safety bound — the number of matchings grows super-exponentially
        (pruning helps, but the worst case remains exponential).

    Returns
    -------
    ``(makespan, assignment)`` where each assignment entry is
    ``(slow_id, fast_id or None, offloaded_layers)``.  Within a pair the
    slower agent (larger individual time) is always the one offloading.
    """
    from repro.core.fastpath import PairCostModel

    if len(agents) > max_agents:
        raise ValueError(
            f"exact solver limited to {max_agents} agents, got {len(agents)}"
        )
    agents = list(agents)
    n = len(agents)
    if n == 0:
        return 0.0, []

    solo_times = [
        individual_training_time(agent, profile, agent.batch_size) for agent in agents
    ]

    # Pair tables, memoized once per call.  Bandwidths come from the
    # caller's lookup, queried (slow, fast) like the scalar path; the
    # kernel then yields every pair's best split and time in one shot.
    bandwidths = np.zeros((n, n))
    pair_bandwidth: dict[tuple[int, int], float] = {}
    for p in range(n):
        for q in range(p + 1, n):
            slow_pos, fast_pos = (
                (p, q) if solo_times[p] >= solo_times[q] else (q, p)
            )
            bandwidth = bandwidth_lookup(agents[slow_pos], agents[fast_pos])
            pair_bandwidth[(p, q)] = bandwidth
            bandwidths[p, q] = bandwidths[q, p] = bandwidth
    cost_model = PairCostModel(
        agents, profile, bandwidths=bandwidths, shared_busy_times=False
    )

    #: (p, q) with p < q -> (group makespan contribution, assignment entries)
    Entry = tuple[int, Optional[int], int]
    pair_table: dict[tuple[int, int], tuple[float, list[Entry]]] = {}
    for (p, q), bandwidth in pair_bandwidth.items():
        first, second = agents[p], agents[q]
        if bandwidth <= 0:
            # These two agents cannot pair; they both train alone.
            pair_table[(p, q)] = (
                max(solo_times[p], solo_times[q]),
                [(first.agent_id, None, 0), (second.agent_id, None, 0)],
            )
            continue
        slow_pos, fast_pos = (p, q) if solo_times[p] >= solo_times[q] else (q, p)
        offloaded = cost_model.best_offloaded_layers(slow_pos, fast_pos)
        pair_table[(p, q)] = (
            float(cost_model.best_pair_times[slow_pos, fast_pos]),
            [(agents[slow_pos].agent_id, agents[fast_pos].agent_id, offloaded)],
        )

    best_makespan = float("inf")
    best_groups: list[tuple[int, ...]] = []

    # Depth-first search over _pair_partitions' tree, pruned on the running
    # makespan.  Updates are strict-<, so cutting branches at >= preserves
    # the exact enumeration-order winner.
    def search(remaining: list[int], running: float, groups: list[tuple[int, ...]]):
        nonlocal best_makespan, best_groups
        if running >= best_makespan:
            return
        if not remaining:
            best_makespan = running
            best_groups = list(groups)
            return
        first, rest = remaining[0], remaining[1:]
        groups.append((first,))
        search(rest, max(running, solo_times[first]), groups)
        groups.pop()
        for index, partner in enumerate(rest):
            groups.append((first, partner))
            search(
                rest[:index] + rest[index + 1 :],
                max(running, pair_table[(first, partner)][0]),
                groups,
            )
            groups.pop()

    search(list(range(n)), 0.0, [])

    best_assignment: list[Entry] = []
    for group in best_groups:
        if len(group) == 1:
            best_assignment.append((agents[group[0]].agent_id, None, 0))
        else:
            best_assignment.extend(pair_table[group][1])
    return best_makespan, best_assignment
