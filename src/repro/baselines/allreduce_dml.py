"""Decentralized AllReduce baseline.

"In decentralized learning utilizing AllReduce aggregation, agents update
their models independently and then employ AllReduce to aggregate them,
eliminating the need for a central server."  No workload balancing happens,
so the round is bottlenecked by the slowest agent training the full model,
followed by the collective aggregation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineTrainer
from repro.core.fastpath import AgentAttrs
from repro.core.timing import bottleneck_of_mbps
from repro.network.allreduce import allreduce_time


class AllReduceDML(BaselineTrainer):
    """Independent local training + decentralized AllReduce aggregation."""

    method_name = "AllReduce"
    curve_method_key = "allreduce"

    def round_timing(self, attrs: AgentAttrs, times: np.ndarray) -> tuple[float, float, float]:
        compute = float(times.max())
        aggregation = allreduce_time(
            model_bytes=self.model_bytes(),
            num_agents=len(times),
            bottleneck_bandwidth_bytes_per_second=bottleneck_of_mbps(
                attrs.bandwidth_mbps
            ),
        )
        return compute + aggregation, compute, aggregation
