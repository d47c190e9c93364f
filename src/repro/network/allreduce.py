"""Decentralized AllReduce aggregation.

ComDML aggregates models at the end of each round with AllReduce rather
than a central server.  The paper considers the two classic
bandwidth-efficient algorithms:

* **ring AllReduce** — ``2 (K - 1)`` communication steps, each agent sends
  and receives ``2 (K - 1) / K × b`` bytes in total;
* **recursive halving-doubling** — ``2 log2(K)`` communication steps with the
  same total per-agent volume; chosen by the paper because the number of
  steps grows logarithmically with the number of agents.

This module provides both the *timing* cost model (used in the timing
plane) and the *numerical* averaging of actual model parameters (used in the
learning plane).  Both operate on flat numpy parameter vectors.  Runs price
their aggregation with :func:`allreduce_time`, the halving-doubling
algorithm uncompressed; the ring algorithm and the compressor are there for
the AllReduce ablation (:mod:`repro.experiments.ablations`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.network.compression import GradientCompressor, NoCompression
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class AllReduceResult:
    """Outcome of an AllReduce timing computation.

    Attributes
    ----------
    algorithm:
        ``"ring"`` or ``"halving_doubling"``.
    num_agents:
        Number of participants ``K``.
    steps:
        Number of synchronous communication steps.
    per_agent_bytes:
        Bytes sent (== received) by each agent over the whole operation.
    time_seconds:
        Simulated completion time of the collective.
    """

    algorithm: str
    num_agents: int
    steps: int
    per_agent_bytes: float
    time_seconds: float


def _per_agent_volume_bytes(model_bytes: float, num_agents: int) -> float:
    """Per-agent send volume ``2 (K-1)/K × b`` common to both algorithms."""
    if num_agents <= 1:
        return 0.0
    return 2.0 * (num_agents - 1) / num_agents * model_bytes


def ring_allreduce(
    model_bytes: float,
    num_agents: int,
    bottleneck_bandwidth_bytes_per_second: float,
    compressor: Optional[GradientCompressor] = None,
) -> AllReduceResult:
    """Timing of a ring AllReduce over ``num_agents`` participants.

    The completion time is governed by the slowest link in the ring
    (``bottleneck_bandwidth_bytes_per_second``); each of the ``2 (K - 1)``
    steps moves ``b / K`` bytes and pays one
    :data:`~repro.sim.costs.DEFAULT_LINK_LATENCY_SECONDS`.
    """
    check_non_negative(model_bytes, "model_bytes")
    check_positive(num_agents, "num_agents")
    compressor = compressor or NoCompression()
    effective_bytes = compressor.compressed_bytes(model_bytes)
    if num_agents == 1:
        return AllReduceResult("ring", 1, 0, 0.0, 0.0)
    check_positive(
        bottleneck_bandwidth_bytes_per_second, "bottleneck_bandwidth_bytes_per_second"
    )
    steps = 2 * (num_agents - 1)
    chunk = effective_bytes / num_agents
    time = steps * (
        DEFAULT_LINK_LATENCY_SECONDS + chunk / bottleneck_bandwidth_bytes_per_second
    )
    return AllReduceResult(
        algorithm="ring",
        num_agents=num_agents,
        steps=steps,
        per_agent_bytes=_per_agent_volume_bytes(effective_bytes, num_agents),
        time_seconds=time,
    )


def halving_doubling_allreduce(
    model_bytes: float,
    num_agents: int,
    bottleneck_bandwidth_bytes_per_second: float,
    compressor: Optional[GradientCompressor] = None,
) -> AllReduceResult:
    """Timing of a recursive halving-doubling AllReduce.

    ``2 ceil(log2 K)`` steps; the reduce-scatter phase halves the payload at
    every step and the all-gather phase doubles it back, so the total bytes
    moved per agent equal ``2 (K - 1)/K × b`` as in the ring algorithm, but
    far fewer latency terms are paid — which is why the paper prefers it for
    large agent counts.
    """
    check_non_negative(model_bytes, "model_bytes")
    check_positive(num_agents, "num_agents")
    compressor = compressor or NoCompression()
    effective_bytes = compressor.compressed_bytes(model_bytes)
    if num_agents == 1:
        return AllReduceResult("halving_doubling", 1, 0, 0.0, 0.0)
    check_positive(
        bottleneck_bandwidth_bytes_per_second, "bottleneck_bandwidth_bytes_per_second"
    )
    log_steps = max(1, math.ceil(math.log2(num_agents)))
    steps = 2 * log_steps
    volume = _per_agent_volume_bytes(effective_bytes, num_agents)
    time = (
        steps * DEFAULT_LINK_LATENCY_SECONDS
        + volume / bottleneck_bandwidth_bytes_per_second
    )
    return AllReduceResult(
        algorithm="halving_doubling",
        num_agents=num_agents,
        steps=steps,
        per_agent_bytes=volume,
        time_seconds=time,
    )


def allreduce_time(
    model_bytes: float,
    num_agents: int,
    bottleneck_bandwidth_bytes_per_second: float,
) -> float:
    """Completion time in seconds of the paper's halving-doubling AllReduce."""
    return halving_doubling_allreduce(
        model_bytes, num_agents, bottleneck_bandwidth_bytes_per_second
    ).time_seconds


def allreduce_average(
    parameter_vectors: Sequence[np.ndarray],
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Numerical result of the AllReduce: the (weighted) average of parameters.

    The learning plane calls this after the timing plane has accounted for
    the collective's cost.  When ``weights`` are supplied (e.g. local dataset
    sizes ``N_i / N``), a weighted average is returned, matching the global
    objective of Eq. (1) in the paper.
    """
    if not parameter_vectors:
        raise ValueError("need at least one parameter vector to average")
    shapes = {vector.shape for vector in parameter_vectors}
    if len(shapes) != 1:
        raise ValueError(f"parameter vectors have mismatched shapes: {shapes}")
    stacked = np.stack([np.asarray(vector, dtype=np.float64) for vector in parameter_vectors])
    if weights is None:
        return stacked.mean(axis=0)
    weights_array = np.asarray(weights, dtype=np.float64)
    if weights_array.shape[0] != stacked.shape[0]:
        raise ValueError(
            f"got {weights_array.shape[0]} weights for {stacked.shape[0]} vectors"
        )
    if np.any(weights_array < 0):
        raise ValueError("weights must be non-negative")
    total = weights_array.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    normalized = weights_array / total
    return np.tensordot(normalized, stacked, axes=(0, 0))
