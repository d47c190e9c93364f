"""Decentralized AllReduce baseline.

"In decentralized learning utilizing AllReduce aggregation, agents update
their models independently and then employ AllReduce to aggregate them,
eliminating the need for a central server."  No workload balancing happens,
so the round is bottlenecked by the slowest agent training the full model,
followed by the collective aggregation.
"""

from __future__ import annotations

from typing import Sequence

from repro.agents.agent import Agent
from repro.baselines.base import BaselineTrainer
from repro.core.timing import bottleneck_bandwidth
from repro.network.allreduce import allreduce_time


class AllReduceDML(BaselineTrainer):
    """Independent local training + decentralized AllReduce aggregation."""

    method_name = "AllReduce"
    curve_method_key = "allreduce"

    def round_timing(self, participants: Sequence[Agent]) -> tuple[float, float, float]:
        if not participants:
            return 0.0, 0.0, 0.0
        compute = max(self.full_model_training_time(agent) for agent in participants)
        aggregation = allreduce_time(
            model_bytes=self.model_bytes(),
            num_agents=len(participants),
            bottleneck_bandwidth_bytes_per_second=bottleneck_bandwidth(participants),
        )
        return compute + aggregation, compute, aggregation
