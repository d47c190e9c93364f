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
from repro.core.fastpath import _uses_default_links
from repro.network.link import pairwise_bandwidth
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS


class GossipLearning(BaselineTrainer):
    """Neighbour-to-neighbour model exchange with local averaging."""

    method_name = "Gossip Learning"
    curve_method_key = "gossip"

    def _peers(
        self, participants: Sequence[Agent], default_links: bool
    ) -> list[list[int]]:
        """Each participant's connected peers, as positions in participant order.

        A peer is another participant the topology links to it, so the
        round reads each participant's adjacency once, intersected with the
        round's participants at C speed (no all-pairs scan).  Under the
        default link semantics both ends must be connected; a link model
        that overrides them is asked :meth:`~LinkModel.can_communicate`
        only for linked pairs, since off-topology pairs never communicate
        under the :class:`~repro.network.link.LinkModel` contract.
        Participants missing from the topology get no peers.
        """
        position = {
            agent.agent_id: index
            for index, agent in enumerate(participants)
            if agent.is_connected or not default_links
        }
        adjacency = self.link_model.topology.adjacency()
        peers: list[list[int]] = []
        for agent in participants:
            links = adjacency.get(agent.agent_id)
            if links is None or (default_links and not agent.is_connected):
                peers.append([])
                continue
            common = position.keys() & links.keys()
            common.discard(agent.agent_id)
            linked = sorted(map(position.__getitem__, common))
            if not default_links:
                linked = [
                    index
                    for index in linked
                    if self.link_model.can_communicate(agent, participants[index])
                ]
            peers.append(linked)
        return peers

    def _exchange_times(self, participants: Sequence[Agent]) -> np.ndarray:
        """Each participant's model push to a random peer (0.0 without one).

        ``_method_rng`` draws one index per participant that has peers, in
        participant order; one vectorised draw takes the same values as
        one scalar draw per participant.
        """
        default_links = _uses_default_links(self.link_model)
        peers = self._peers(participants, default_links)
        counts = np.fromiter(map(len, peers), dtype=np.int64, count=len(peers))
        senders = np.nonzero(counts)[0]
        exchange = np.zeros(len(participants))
        if senders.size == 0:
            return exchange
        draws = self._method_rng.integers(0, counts[senders])
        pairs = [
            (participants[i], participants[peers[i][draw]])
            for i, draw in zip(senders.tolist(), draws.tolist())
        ]
        # Peers under the default semantics are linked and connected, so
        # their bandwidth is the slower access link.
        bandwidth_of = pairwise_bandwidth if default_links else self.link_model.bandwidth
        bandwidth = np.array(
            [bandwidth_of(sender, peer) for sender, peer in pairs], dtype=np.float64
        )
        usable = bandwidth > 0
        exchange[senders[usable]] = (
            DEFAULT_LINK_LATENCY_SECONDS + self.model_bytes() / bandwidth[usable]
        )
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
