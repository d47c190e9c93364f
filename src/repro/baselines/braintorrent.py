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

from typing import Sequence

from repro.agents.agent import Agent
from repro.baselines.base import BaselineTrainer
from repro.core.timing import FALLBACK_BANDWIDTH_MBPS
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.units import mbps_to_bytes_per_second


class BrainTorrent(BaselineTrainer):
    """Rotating-aggregator peer-to-peer training."""

    method_name = "BrainTorrent"
    curve_method_key = "braintorrent"

    def round_timing(self, participants: Sequence[Agent]) -> tuple[float, float, float]:
        if not participants:
            return 0.0, 0.0, 0.0
        compute = max(self.full_model_training_time(agent) for agent in participants)

        # A random participant becomes this round's aggregator.
        aggregator: Agent = participants[
            int(self._method_rng.integers(0, len(participants)))
        ]
        aggregator_bandwidth = aggregator.profile.bandwidth_bytes_per_second
        if aggregator_bandwidth <= 0:
            aggregator_bandwidth = mbps_to_bytes_per_second(FALLBACK_BANDWIDTH_MBPS)

        other_count = max(0, len(participants) - 1)
        # Receive every other agent's model, then broadcast the average back.
        # The aggregator's access link serialises both directions.
        per_transfer = DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / aggregator_bandwidth
        aggregation = 2.0 * other_count * per_transfer
        return compute + aggregation, compute, aggregation
