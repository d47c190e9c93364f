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

from typing import Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.baselines.base import BaselineTrainer
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS


class FedAvg(BaselineTrainer):
    """Central-server federated averaging."""

    method_name = "FedAvg"
    curve_method_key = "fedavg"

    def agent_round_time(self, agent: Agent) -> tuple[float, float, float]:
        """(total, compute, communication) chain for one agent's round."""
        compute = self.full_model_training_time(agent)
        bandwidth = agent.profile.bandwidth_bytes_per_second
        if bandwidth <= 0:
            # Disconnected agents cannot interact with the server this round;
            # they contribute no time (the server simply skips them).
            return 0.0, 0.0, 0.0
        # Download the global model, then upload the update.
        communication = 2.0 * (
            DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / bandwidth
        )
        return compute + communication, compute, communication

    def unit_duration(self, agent: Agent, training_time: float) -> float:
        """An agent's unit completes after its full download+train+upload chain.

        Disconnected agents contribute a zero-cost chain (the server skips
        them), but their unit still takes the local training time — a zero
        duration would let idle agents instantly fill a semi-sync quorum and
        crowd out agents that are actually training.
        """
        total = self.agent_round_time(agent)[0]
        return total if total > 0 else training_time

    # FedAvg's communication is priced inside each agent's chain (and thus in
    # unit_duration); the server's averaging itself is free.  Without these
    # overrides the default mode pricing would re-add the round-level
    # communication on top of the chains, double-counting it.
    def semi_sync_aggregation_seconds(self, plan, kept) -> float:
        return 0.0

    def async_unit_aggregation_seconds(self, plan, rows) -> np.ndarray:
        return np.zeros(len(rows))

    def round_timing(self, participants: Sequence[Agent]) -> tuple[float, float, float]:
        chains = [self.agent_round_time(agent) for agent in participants]
        if not chains:
            return 0.0, 0.0, 0.0
        total = max(chain[0] for chain in chains)
        compute = max(chain[1] for chain in chains)
        communication = max(chain[2] for chain in chains)
        return total, compute, communication
