"""A scalar reference for the baselines' round pricing.

The baselines price a round from their participants' columns
(``BaselineTrainer.plan_round``).  This module keeps the chains that
priced it one participant at a time, so a property can compare the two on
the same input bit for bit.  It is built only from the scalar primitives
``individual_training_time``, ``pairwise_bandwidth`` and
``mbps_to_bytes_per_second`` (plus the AllReduce cost model and the
constants the methods define), never from a trainer's own pricing: a
trainer passed in provides its profile and, for the methods that draw,
its ``_method_rng``.

``tests/gossip_reference.py`` adds Gossip's per-pair neighbour search on
top of :func:`push_time`.
"""

from __future__ import annotations

from repro.core.timing import FALLBACK_BANDWIDTH_MBPS
from repro.core.workload import individual_training_time
from repro.network.allreduce import allreduce_time
from repro.network.link import pairwise_bandwidth
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.units import mbps_to_bytes_per_second


def solo_time(trainer, agent) -> float:
    """Time for an agent to train the full model on its shard."""
    return individual_training_time(agent, trainer.profile, agent.batch_size)


def maxima(chains) -> tuple[float, float, float]:
    """Each position's maximum over a round's ``(total, compute, communication)`` chains."""
    return (
        max(chain[0] for chain in chains),
        max(chain[1] for chain in chains),
        max(chain[2] for chain in chains),
    )


def _access_bandwidth(agent) -> float:
    return mbps_to_bytes_per_second(agent.profile.bandwidth_mbps)


def fedavg_chain(trainer, agent) -> tuple[float, float, float]:
    """FedAvg's download, train and upload chain for one agent.

    A disconnected agent cannot reach the server, which skips it: its
    chain costs nothing.
    """
    compute = solo_time(trainer, agent)
    bandwidth = _access_bandwidth(agent)
    if bandwidth <= 0:
        return 0.0, 0.0, 0.0
    communication = 2.0 * (
        DEFAULT_LINK_LATENCY_SECONDS + trainer.profile.full_model_bytes / bandwidth
    )
    return compute + communication, compute, communication


def fedavg_unit_duration(trainer, agent) -> float:
    """A FedAvg unit: its chain, or the local training time of a skipped agent."""
    total = fedavg_chain(trainer, agent)[0]
    return total if total > 0 else solo_time(trainer, agent)


def fedavg_round_timing(trainer, participants) -> tuple[float, float, float]:
    """A FedAvg round: the slowest chain, compute and communication."""
    return maxima([fedavg_chain(trainer, agent) for agent in participants])


def _bottleneck(participants) -> float:
    """The slowest connected participant's link, or the fallback link."""
    speeds = [
        _access_bandwidth(agent)
        for agent in participants
        if agent.profile.bandwidth_mbps > 0
    ]
    if not speeds:
        return mbps_to_bytes_per_second(FALLBACK_BANDWIDTH_MBPS)
    return min(speeds)


def allreduce_round_timing(trainer, participants) -> tuple[float, float, float]:
    """An AllReduce round: the slowest local training, then the collective."""
    compute = max(solo_time(trainer, agent) for agent in participants)
    aggregation = allreduce_time(
        model_bytes=trainer.profile.full_model_bytes,
        num_agents=len(participants),
        bottleneck_bandwidth_bytes_per_second=_bottleneck(participants),
    )
    return compute + aggregation, compute, aggregation


def braintorrent_round_timing(trainer, participants) -> tuple[float, float, float]:
    """A BrainTorrent round: one drawn aggregator receives and sends back every model."""
    compute = max(solo_time(trainer, agent) for agent in participants)
    aggregator = participants[int(trainer._method_rng.integers(0, len(participants)))]
    bandwidth = _access_bandwidth(aggregator)
    if bandwidth <= 0:
        bandwidth = mbps_to_bytes_per_second(FALLBACK_BANDWIDTH_MBPS)
    per_transfer = DEFAULT_LINK_LATENCY_SECONDS + trainer.profile.full_model_bytes / bandwidth
    aggregation = 2.0 * (len(participants) - 1) * per_transfer
    return compute + aggregation, compute, aggregation


def push_time(trainer, sender, peer) -> float:
    """Gossip's per-pair exchange: one model push over the slower access link."""
    return (
        DEFAULT_LINK_LATENCY_SECONDS
        + trainer.profile.full_model_bytes / pairwise_bandwidth(sender, peer)
    )
