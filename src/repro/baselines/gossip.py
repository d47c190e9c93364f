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

import numpy as np

from repro.baselines.base import BaselineTrainer
from repro.core.fastpath import AgentAttrs
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS


class GossipLearning(BaselineTrainer):
    """Neighbour-to-neighbour model exchange with local averaging."""

    method_name = "Gossip Learning"
    curve_method_key = "gossip"

    def _peers(self, attrs: AgentAttrs) -> tuple[np.ndarray, np.ndarray]:
        """Each participant's connected peers, as positions in participant order.

        A peer is another connected participant the topology links to it,
        so one link query over the round's participants finds them all (no
        all-pairs scan).  Participants missing from the topology get no
        peers.  Returns each participant's peer count and the peers,
        grouped by participant and ascending within each group.
        """
        topology = self.link_model.topology
        rows, cols = topology.links_for(topology.translation(attrs.agent_id.tolist()))
        connected = attrs.bandwidth_mbps > 0
        linked = connected[rows] & connected[cols]
        return np.bincount(rows[linked], minlength=len(connected)), cols[linked]

    def _exchange_times(self, attrs: AgentAttrs) -> np.ndarray:
        """Each participant's model push to a random peer (0.0 without one).

        ``_method_rng`` draws one index per participant that has peers, in
        participant order; one vectorised draw takes the same values as
        one scalar draw per participant.  Peers are linked and connected,
        so a push runs at the slower of the two access links.
        """
        counts, peers = self._peers(attrs)
        senders = np.nonzero(counts)[0]
        exchange = np.zeros(len(counts))
        if senders.size == 0:
            return exchange
        draws = self._method_rng.integers(0, counts[senders])
        chosen = peers[(np.cumsum(counts) - counts)[senders] + draws]
        access = attrs.access_bandwidth()
        bandwidth = np.minimum(access[senders], access[chosen])
        exchange[senders] = DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / bandwidth
        return exchange

    def round_timing(self, attrs: AgentAttrs, times: np.ndarray) -> tuple[float, float, float]:
        exchange = self._exchange_times(attrs)
        return (
            float((times + exchange).max()),
            float(times.max()),
            float(exchange.max()),
        )
