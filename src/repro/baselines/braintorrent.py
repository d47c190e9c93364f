"""BrainTorrent baseline (Roy et al., 2019).

A peer-to-peer framework in which, each round, one randomly selected agent
acts as the aggregator: every other agent trains the full model
independently and sends its update to the aggregator, which averages the
models and sends the result back.  There is no permanent server, but the
per-round aggregator's access link carries all of the aggregation traffic,
which makes rounds longer than AllReduce when the selected aggregator has a
slow link.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineTrainer
from repro.core.fastpath import AgentAttrs
from repro.core.timing import FALLBACK_BANDWIDTH_MBPS
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.units import mbps_to_bytes_per_second


class BrainTorrent(BaselineTrainer):
    """Rotating-aggregator peer-to-peer training."""

    method_name = "BrainTorrent"
    curve_method_key = "braintorrent"

    def round_timing(self, attrs: AgentAttrs, times: np.ndarray) -> tuple[float, float, float]:
        compute = float(times.max())

        # A random participant becomes this round's aggregator.
        count = len(times)
        aggregator_mbps = float(
            attrs.bandwidth_mbps[int(self._method_rng.integers(0, count))]
        )
        if aggregator_mbps <= 0:
            aggregator_mbps = FALLBACK_BANDWIDTH_MBPS
        aggregator_bandwidth = mbps_to_bytes_per_second(aggregator_mbps)

        # Receive every other agent's model, then broadcast the average back.
        # The aggregator's access link serialises both directions.
        per_transfer = DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / aggregator_bandwidth
        aggregation = 2.0 * (count - 1) * per_transfer
        return compute + aggregation, compute, aggregation
