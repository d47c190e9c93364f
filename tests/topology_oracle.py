"""A networkx reference for :class:`~repro.network.topology.Topology`.

:class:`NxTopology` keeps the links as a :class:`networkx.Graph` and
answers the topology's queries from it, the way the topology worked
before it stored its links as a CSR.  Properties apply the same edits to
both and compare every answer; :func:`to_networkx` reads a built topology
back into a graph for the graph-level checks (connectivity, link
fraction) the topology itself does not offer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import networkx as nx
import numpy as np


class NxTopology:
    """The topology's edits and queries over a networkx graph."""

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph

    @property
    def nodes(self) -> list[int]:
        return sorted(self.graph.nodes)

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def neighbors(self, agent_id: int) -> list[int]:
        return sorted(self.graph.neighbors(agent_id))

    def add_agent(
        self, agent_id: int, neighbors: Optional[Iterable[int]] = None
    ) -> None:
        graph = self.graph
        if neighbors is None:
            targets = [node for node in graph.nodes if node != agent_id]
        else:
            targets = [node for node in neighbors if node in graph and node != agent_id]
        graph.add_node(agent_id)
        graph.add_edges_from((agent_id, target) for target in targets)

    def attach_agent(self, agent_id: int, policy: str) -> None:
        """The ``"ring"`` policy: link to the smallest and the largest id,
        dropping the link between them when three or more nodes remain."""
        assert policy == "ring"
        existing = [node for node in self.nodes if node != agent_id]
        if len(existing) <= 1:
            self.add_agent(agent_id, None)
            return
        lo, hi = existing[0], existing[-1]
        if len(existing) >= 3 and self.graph.has_edge(lo, hi):
            self.graph.remove_edge(lo, hi)
        self.add_agent(agent_id, (lo, hi))

    def remove_agent(self, agent_id: int) -> None:
        if agent_id in self.graph:
            self.graph.remove_node(agent_id)

    def links(self, ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """``links_for`` of a translation of ``ids``: position pairs, sorted."""
        position = {agent_id: index for index, agent_id in enumerate(ids)}
        pairs = sorted(
            (position[a], position[b])
            for a in ids
            if a in self.graph
            for b in self.graph.neighbors(a)
            if b in position
        )
        return [row for row, _ in pairs], [col for _, col in pairs]


def to_networkx(topology) -> nx.Graph:
    """The topology's nodes and links as a graph."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    graph.add_edges_from(
        (node, neighbor)
        for node in topology.nodes
        for neighbor in topology.neighbors(node)
    )
    return graph


def oracle_of(topology) -> NxTopology:
    """An oracle holding a copy of the topology's current graph."""
    return NxTopology(to_networkx(topology))


def is_connected(topology) -> bool:
    """Whether the topology forms a single connected component."""
    return topology.num_nodes == 0 or nx.is_connected(to_networkx(topology))


def connectivity_fraction(topology) -> float:
    """Fraction of full-graph links present (1.0 for a complete graph)."""
    n = topology.num_nodes
    if n < 2:
        return 1.0
    return topology.num_edges / (n * (n - 1) / 2)


def assert_matches(
    topology, oracle: NxTopology, ids: Optional[Sequence[int]] = None
) -> None:
    """Every query of ``topology`` answers like the oracle's graph.

    ``ids`` is the participant tuple the link query translates (default:
    every node in ascending order).
    """
    assert topology.nodes == oracle.nodes
    assert topology.num_nodes == oracle.num_nodes
    assert topology.num_edges == oracle.num_edges
    for node in oracle.nodes:
        assert topology.neighbors(node) == oracle.neighbors(node)
    ids = oracle.nodes if ids is None else list(ids)
    rows, cols = topology.links_for(topology.translation(ids))
    assert (rows.tolist(), cols.tolist()) == oracle.links(ids)
    assert rows.dtype == cols.dtype == np.int64
