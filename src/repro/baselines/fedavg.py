"""FedAvg baseline (McMahan et al., 2017).

Server-coordinated federated averaging: every selected agent downloads the
global model, trains it on its full local shard, and uploads it back to the
central server, which averages the updates.  The round finishes when the
slowest agent's download + training + upload chain completes; the server's
own link is assumed not to be the bottleneck (it is a datacenter endpoint),
so each agent's chain is limited by its own access link — the configuration
most favourable to FedAvg.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineTrainer
from repro.core.fastpath import AgentAttrs
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS


class FedAvg(BaselineTrainer):
    """Central-server federated averaging."""

    method_name = "FedAvg"
    curve_method_key = "fedavg"

    def _chains(
        self, attrs: AgentAttrs, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each agent's (total, compute, communication) chain, as columns."""
        bandwidth = attrs.access_bandwidth()
        connected = bandwidth > 0
        # Download the global model, then upload the update.
        communication = np.zeros(len(times))
        communication[connected] = 2.0 * (
            DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / bandwidth[connected]
        )
        # Disconnected agents cannot interact with the server this round;
        # they contribute no time (the server simply skips them).
        compute = np.where(connected, times, 0.0)
        return compute + communication, compute, communication

    def unit_durations(self, attrs: AgentAttrs, times: np.ndarray) -> np.ndarray:
        """An agent's unit completes after its full download+train+upload chain.

        Disconnected agents contribute a zero-cost chain (the server skips
        them), but their unit still takes the local training time — a zero
        duration would let idle agents instantly fill a semi-sync quorum and
        crowd out agents that are actually training.
        """
        total = self._chains(attrs, times)[0]
        return np.where(total > 0, total, times)

    # FedAvg's communication is priced inside each agent's chain (and thus in
    # unit_durations); the server's averaging itself is free.  Without these
    # overrides the default mode pricing would re-add the round-level
    # communication on top of the chains, double-counting it.
    def semi_sync_aggregation_seconds(self, plan, kept) -> float:
        return 0.0

    def async_unit_aggregation_seconds(self, plan, rows) -> np.ndarray:
        return np.zeros(len(rows))

    def round_timing(self, attrs: AgentAttrs, times: np.ndarray) -> tuple[float, float, float]:
        total, compute, communication = self._chains(attrs, times)
        return float(total.max()), float(compute.max()), float(communication.max())
