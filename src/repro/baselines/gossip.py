"""Gossip Learning baseline (Hegedűs et al., 2019).

Each agent trains the full model on its local shard and then exchanges its
model with one randomly chosen connected neighbour, averaging the two.
There is no global synchronisation point, but for comparability with the
other methods a "round" is one train-and-exchange cycle of every agent; the
round time is set by the slowest agent's training plus its model exchange.

Gossip's information mixes much more slowly than a global average — each
round an agent only sees one neighbour's model — which is why its
statistical efficiency in the learning-curve model is the lowest of the
compared methods, matching its longer time-to-accuracy in the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.baselines.base import BaselineTrainer
from repro.network.link import pairwise_bandwidth
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS


class GossipLearning(BaselineTrainer):
    """Neighbour-to-neighbour model exchange with local averaging."""

    method_name = "Gossip Learning"
    curve_method_key = "gossip"

    def _peers(self, participants: Sequence[Agent]) -> tuple[np.ndarray, np.ndarray]:
        """Each participant's connected peers, as positions in participant order.

        A peer is another connected participant the topology links to it,
        so one link query over the round's participants finds them all (no
        all-pairs scan).  Participants missing from the topology get no
        peers.  Returns each participant's peer count and the peers,
        grouped by participant and ascending within each group.
        """
        topology = self.link_model.topology
        rows, cols = topology.links_for(
            topology.translation([agent.agent_id for agent in participants])
        )
        connected = np.fromiter(
            (agent.is_connected for agent in participants),
            dtype=bool,
            count=len(participants),
        )
        linked = connected[rows] & connected[cols]
        return np.bincount(rows[linked], minlength=len(participants)), cols[linked]

    def _exchange_times(self, participants: Sequence[Agent]) -> np.ndarray:
        """Each participant's model push to a random peer (0.0 without one).

        ``_method_rng`` draws one index per participant that has peers, in
        participant order; one vectorised draw takes the same values as
        one scalar draw per participant.  Peers are linked and connected,
        so a push runs at the slower access link.
        """
        counts, peers = self._peers(participants)
        senders = np.nonzero(counts)[0]
        exchange = np.zeros(len(participants))
        if senders.size == 0:
            return exchange
        draws = self._method_rng.integers(0, counts[senders])
        chosen = peers[(np.cumsum(counts) - counts)[senders] + draws]
        bandwidth = np.array(
            [
                pairwise_bandwidth(participants[i], participants[peer])
                for i, peer in zip(senders.tolist(), chosen.tolist())
            ],
            dtype=np.float64,
        )
        exchange[senders] = DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / bandwidth
        return exchange

    def round_timing(self, participants: Sequence[Agent]) -> tuple[float, float, float]:
        if not participants:
            return 0.0, 0.0, 0.0
        compute = np.array(
            [self.full_model_training_time(agent) for agent in participants]
        )
        exchange = self._exchange_times(participants)
        return (
            max((compute + exchange).tolist()),
            max(compute.tolist()),
            max(exchange.tolist()),
        )
