"""Peer-to-peer network topologies.

ComDML is evaluated on full graphs, ring graphs, and random graphs that
retain only a fraction of the full graph's links (Figure 3 uses 20 %
connectivity).  ``Topology`` wraps a :class:`networkx.Graph` whose nodes are
agent ids, and exposes the neighbour queries the pairing scheduler needs.

Every mutation made through the :class:`Topology` API is additionally
recorded in a bounded **edge-delta journal**: a monotonically versioned
event list consumers (the planner's incremental CSR engine,
:mod:`repro.core.csr`) drain with :meth:`Topology.events_since` to apply
O(Δ) edits instead of rebuilding their structures from the full graph.
Mutating ``topology.graph`` directly bypasses the journal — callers doing
so must fall back to ``planner.invalidate_all()`` exactly as before.

Arrivals read the node ids in ascending order (the ring's ends, the
random-k pool).  The topology keeps that order as a list, updated by
bisection as its own methods add and remove nodes, so an arrival costs no
sort of the whole graph.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

import networkx as nx
import numpy as np

from repro.utils.validation import check_positive, check_probability

#: Journal length at which the oldest events are discarded.  A consumer
#: whose cursor falls behind the discarded range receives ``None`` from
#: :meth:`Topology.events_since` and must rebuild from the graph — bounded
#: memory, never silent staleness.
MAX_JOURNAL_EVENTS = 65_536


class Topology:
    """Undirected communication topology over agent ids."""

    def __init__(self, graph: nx.Graph) -> None:
        self._graph = graph
        #: Edge-delta journal: ``_events[i]`` is the transition from
        #: version ``_events_base + i`` to ``_events_base + i + 1``.
        self._events: list[tuple] = []
        self._events_base = 0
        #: Every node id in ascending order, or ``None`` until an arrival
        #: needs it again (see :attr:`graph`).
        self._sorted_ids: Optional[list[int]] = None

    # ------------------------------------------------------------------
    # Edge-delta journal
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter (one increment per recorded event)."""
        return self._events_base + len(self._events)

    def events_since(self, cursor: int) -> Optional[list[tuple]]:
        """Events recorded after ``cursor`` (a prior :attr:`version` value).

        Returns ``None`` when the requested range was already discarded
        from the bounded journal — the caller must rebuild from the graph.
        Event tuples are ``("add_node", id)``, ``("add_edge", u, v)``,
        ``("remove_edge", u, v)`` and ``("remove_node", id, neighbors)``
        where ``neighbors`` is the tuple of ids the node was linked to at
        removal time.
        """
        if cursor < self._events_base:
            return None
        return self._events[cursor - self._events_base :]

    def _record(self, event: tuple) -> None:
        self._events.append(event)
        overflow = len(self._events) - MAX_JOURNAL_EVENTS
        if overflow > 0:
            del self._events[:overflow]
            self._events_base += overflow

    def _journal_add_node(self, node: int) -> bool:
        if node in self._graph:
            return False
        self._graph.add_node(node)
        if self._sorted_ids is not None:
            bisect.insort(self._sorted_ids, node)
        self._record(("add_node", node))
        return True

    def _journal_add_edge(self, u: int, v: int) -> bool:
        if u == v or self._graph.has_edge(u, v):
            return False
        self._graph.add_edge(u, v)
        self._record(("add_edge", u, v))
        return True

    def _journal_remove_edge(self, u: int, v: int) -> bool:
        if not self._graph.has_edge(u, v):
            return False
        self._graph.remove_edge(u, v)
        self._record(("remove_edge", u, v))
        return True

    @property
    def graph(self) -> nx.Graph:
        """The underlying :class:`networkx.Graph`.

        A mutation made through it bypasses the journal and the sorted id
        list, so handing it out drops the list; the next arrival sorts the
        nodes afresh.
        """
        self._sorted_ids = None
        return self._graph

    def _ids_in_order(self) -> list[int]:
        """Every node id in ascending order (the live list: do not mutate)."""
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self._graph.nodes)
        return self._sorted_ids

    @property
    def num_nodes(self) -> int:
        """Number of agents in the topology."""
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of communication links."""
        return self._graph.number_of_edges()

    @property
    def nodes(self) -> list[int]:
        """Agent ids in sorted order."""
        return sorted(self._graph.nodes)

    def neighbors(self, agent_id: int) -> list[int]:
        """Agents directly connected to ``agent_id`` (sorted for determinism)."""
        if agent_id not in self._graph:
            raise KeyError(f"agent {agent_id} not in topology")
        return sorted(self._graph.neighbors(agent_id))

    def are_connected(self, a: int, b: int) -> bool:
        """Whether agents ``a`` and ``b`` share a direct link."""
        return self._graph.has_edge(a, b)

    def degree(self, agent_id: int) -> int:
        """Number of direct neighbours of an agent."""
        if agent_id not in self._graph:
            raise KeyError(f"agent {agent_id} not in topology")
        return self._graph.degree[agent_id]

    @property
    def is_connected_graph(self) -> bool:
        """Whether the topology forms a single connected component."""
        if self.num_nodes == 0:
            return True
        return nx.is_connected(self._graph)

    def connectivity_fraction(self) -> float:
        """Fraction of full-graph links present (1.0 for a complete graph)."""
        n = self.num_nodes
        if n < 2:
            return 1.0
        full_edges = n * (n - 1) / 2
        return self.num_edges / full_edges

    def subgraph(self, agent_ids: Iterable[int]) -> "Topology":
        """Topology restricted to the given agents (e.g. round participants)."""
        return Topology(self._graph.subgraph(list(agent_ids)).copy())

    def copy(self) -> "Topology":
        """Independent deep copy (runs that mutate the topology get their own)."""
        return Topology(self._graph.copy())

    def add_agent(
        self, agent_id: int, neighbors: Optional[Iterable[int]] = None
    ) -> None:
        """Wire a newly arrived agent into the topology.

        Parameters
        ----------
        agent_id:
            Id of the arriving agent (adding an existing id only adds edges).
        neighbors:
            Ids to connect the agent to; ``None`` connects it to every
            existing node (the full-graph arrival used by flash-crowd
            scenarios).  Unknown neighbour ids are ignored.
        """
        if neighbors is None:
            targets = set(self._graph.nodes) - {agent_id}
        else:
            targets = {n for n in neighbors if n in self._graph and n != agent_id}
        self._journal_add_node(agent_id)
        for target in targets:
            self._journal_add_edge(agent_id, target)

    def attach_agent(
        self,
        agent_id: int,
        policy: str = "full",
        k: int = 2,
        rng: Optional[np.random.Generator] = None,
        neighbors: Optional[Iterable[int]] = None,
    ) -> list[int]:
        """Wire an arriving agent in via a named attachment policy.

        Explicit ``neighbors`` always win.  Otherwise:

        * ``"full"`` — connect to every existing node (same as
          :meth:`add_agent` with no neighbours);
        * ``"ring"`` — splice the newcomer into the ring's wrap-around
          position: the edge between the smallest and largest existing id
          (the wrap edge) is removed if present and the newcomer links to
          both endpoints, keeping a ring a ring;
        * ``"random-k"`` — connect to ``min(k, n)`` existing nodes sampled
          uniformly without replacement from ``rng`` (required).

        Returns the newcomer's neighbour list after wiring (sorted).
        """
        if neighbors is not None:
            self.add_agent(agent_id, neighbors)
            return self.neighbors(agent_id)
        existing = self._ids_in_order()
        if agent_id in self._graph:
            existing = [node for node in existing if node != agent_id]
        if policy == "full" or len(existing) <= 1:
            self.add_agent(agent_id, None)
        elif policy == "ring":
            lo, hi = existing[0], existing[-1]
            self._journal_remove_edge(lo, hi)
            self.add_agent(agent_id, (lo, hi))
        elif policy == "random-k":
            if rng is None:
                raise ValueError("random-k attachment needs an rng")
            count = min(max(1, k), len(existing))
            chosen = rng.choice(len(existing), size=count, replace=False)
            self.add_agent(agent_id, [existing[int(index)] for index in chosen])
        else:
            raise ValueError(
                f"unknown attachment policy {policy!r}; expected "
                "'full', 'ring' or 'random-k'"
            )
        return self.neighbors(agent_id)

    def remove_agent(self, agent_id: int) -> None:
        """Drop a departed agent and all its links (no-op if absent)."""
        if agent_id in self._graph:
            neighbors = tuple(self._graph.neighbors(agent_id))
            self._graph.remove_node(agent_id)
            if self._sorted_ids is not None:
                ids = self._sorted_ids
                del ids[bisect.bisect_left(ids, agent_id)]
            self._record(("remove_node", agent_id, neighbors))

    def __repr__(self) -> str:
        return (
            f"Topology(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"connectivity={self.connectivity_fraction():.2f})"
        )


def full_topology(agent_ids: Sequence[int]) -> Topology:
    """Complete graph: every agent can talk to every other agent."""
    graph = nx.complete_graph(list(agent_ids))
    return Topology(graph)


def ring_topology(agent_ids: Sequence[int]) -> Topology:
    """Ring graph: each agent has exactly two neighbours."""
    ids = list(agent_ids)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    if len(ids) >= 2:
        for index, agent_id in enumerate(ids):
            graph.add_edge(agent_id, ids[(index + 1) % len(ids)])
    return Topology(graph)


def random_topology(
    agent_ids: Sequence[int],
    link_fraction: float,
    rng: np.random.Generator,
    ensure_connected: bool = True,
) -> Topology:
    """Random graph keeping ``link_fraction`` of the full graph's links.

    This matches the Figure 3 setting ("agents are randomly connected through
    only 20 % of the links present in a full graph").  When
    ``ensure_connected`` is true, a random spanning chain is added first so
    that no agent is isolated; the remaining link budget is filled with
    uniformly sampled extra edges.
    """
    check_probability(link_fraction, "link_fraction")
    ids = list(agent_ids)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    n = len(ids)
    if n < 2:
        return Topology(graph)

    full_edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    target_edges = max(1, int(round(link_fraction * len(full_edges))))

    chosen: set[tuple[int, int]] = set()
    if ensure_connected:
        order = list(rng.permutation(ids))
        for a, b in zip(order, order[1:]):
            chosen.add((min(a, b), max(a, b)))

    remaining = [edge for edge in full_edges if edge not in chosen]
    extra_needed = max(0, target_edges - len(chosen))
    if extra_needed > 0 and remaining:
        extra_indices = rng.choice(
            len(remaining), size=min(extra_needed, len(remaining)), replace=False
        )
        for index in extra_indices:
            chosen.add(remaining[int(index)])

    graph.add_edges_from(chosen)
    return Topology(graph)


def random_k_topology(
    agent_ids: Sequence[int],
    k: int,
    rng: np.random.Generator,
    ensure_connected: bool = True,
) -> Topology:
    """Sparse random graph with ~``k`` links per agent, built in O(n·k).

    :func:`random_topology` enumerates all n·(n−1)/2 candidate links, which
    is what the Figure 3 setting (a *fraction* of the full graph) asks for
    but becomes unusable at the 10k+ populations the scalable planner
    targets.  Here each agent draws ``k`` peers uniformly at random
    (duplicates and self-links discarded), optionally on top of a random
    spanning chain, so construction cost follows the edge count rather
    than the population squared.
    """
    check_positive(k, "k")
    ids = list(agent_ids)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    n = len(ids)
    if n < 2:
        return Topology(graph)

    if ensure_connected:
        order = rng.permutation(n)
        graph.add_edges_from(
            (ids[int(a)], ids[int(b)]) for a, b in zip(order, order[1:])
        )
    sources = np.repeat(np.arange(n), k)
    targets = rng.integers(0, n, size=n * k)
    keep = sources != targets
    graph.add_edges_from(
        (ids[int(a)], ids[int(b)])
        for a, b in zip(sources[keep], targets[keep])
    )
    return Topology(graph)
