"""Peer-to-peer network topologies, stored as one editable CSR.

ComDML is evaluated on full graphs, ring graphs, and random graphs that
retain only a fraction of the full graph's links (Figure 3 uses 20 %
connectivity).  The pairing scheduler only ever asks a topology for
neighbour lists, so :class:`Topology` keeps its links as a
compressed-sparse-row structure in *slot space*, one slot per node, and
edits it in place:

* the builders (:func:`full_topology`, :func:`ring_topology`,
  :func:`random_topology`, :func:`random_k_topology`) build the base
  ``indptr`` / ``cols`` arrays in O(E) from edge arrays, slots in
  ascending id order;
* an arrival appends a slot, and a new link is staged in both endpoints'
  per-slot delta lists;
* removing a base link marks its packed (slot, slot) key removed;
* a departure tombstones the slot, and every query skips dead slots;
* lazy compaction folds tombstones, delta lists and removed keys back into
  a fresh base once their volume passes a quarter of the base, so queries
  never degrade unboundedly.

Consumers read links in *participant space*: :meth:`Topology.translation`
maps a participant tuple to slots once, and :meth:`Topology.links_for`
lists the participants' links as position pairs.  The planner, Gossip's
peer draw and the dense kernel's bandwidth matrix all use that one query.

A mutation counter, :attr:`Topology.version`, and a per-slot stamp of the
version that last changed the slot's row tell a consumer what changed
since it last looked: :meth:`Topology.touched_since`.  A departed node's
stamp goes when compaction drops its slot, so a consumer that needs to
know a node left compares memberships (the translation's ``slots >= 0``).

Arrivals read the node ids in ascending order (the ring's ends, the
random-k pool).  The topology keeps that order as a list, built on the
first arrival and updated by bisection, so an arrival costs no sort.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive, check_probability

__all__ = [
    "CsrTranslation",
    "Topology",
    "full_topology",
    "random_k_topology",
    "random_topology",
    "ring_topology",
]

#: Packing stride for directed removed-link keys (slot_u·STRIDE + slot_v).
#: Slot indices stay far below 2³¹, so packed keys fit int64 exactly.
_STRIDE = np.int64(1) << 31

#: Staged volume (delta-list links, removed keys and dead links), as a
#: fraction of the base links, past which an edit compacts.
_COMPACT_FRACTION = 0.25

#: Base link count under which compaction is never triggered (tiny
#: structures stay staged; folding them back buys nothing).
_COMPACT_FLOOR = 256

_EMPTY = np.empty(0, dtype=np.int64)


class CsrTranslation:
    """Slot ↔ participant-position translation for one participant tuple.

    ``slots[p]`` is the slot of the participant at position ``p`` (−1 when
    the participant is not a topology node), ``pos_of_slot[s]`` the
    position of slot ``s`` (−1 for non-participants and tombstones).
    ``monotonic`` records whether slot order implies position order, which
    lets queries skip the (row, col) sort.  A translation is valid in the
    topology ``epoch`` it was built in.
    """

    __slots__ = ("ids", "slots", "pos_of_slot", "monotonic", "epoch")

    def __init__(
        self,
        ids: tuple[int, ...],
        slots: np.ndarray,
        pos_of_slot: np.ndarray,
        monotonic: bool,
        epoch: int,
    ) -> None:
        self.ids = ids
        self.slots = slots
        self.pos_of_slot = pos_of_slot
        self.monotonic = monotonic
        self.epoch = epoch


class Topology:
    """Undirected communication topology over agent ids.

    Build one with the module's builders.  ``ids`` are the nodes in
    ascending order; slot ``s`` (node ``ids[s]``) links to the slots
    ``cols[indptr[s]:indptr[s + 1]]``, ascending, and every edge is listed
    in both directions.
    """

    def __init__(self, ids: np.ndarray, indptr: np.ndarray, cols: np.ndarray) -> None:
        count = int(ids.size)
        self._ids = ids
        self._alive = np.ones(count, dtype=bool)
        #: Version that last changed each slot's row.
        self._stamp = np.zeros(count, dtype=np.int64)
        self._indptr = indptr
        self._cols = cols
        self._slot_of: dict[int, int] = dict(zip(ids.tolist(), range(count)))
        #: Staged links past the base: slot → neighbour slots.
        self._added: dict[int, list[int]] = {}
        #: Packed keys of removed base links, and their sorted array.
        self._removed: set[int] = set()
        self._removed_sorted: Optional[np.ndarray] = None
        self._slot_count = count
        self._base_slots = count
        #: Directed links outside the base, dead ones included.
        self._delta_links = 0
        self._node_count = count
        self._edge_count = int(cols.size) // 2
        #: Every node id in ascending order, or ``None`` until an arrival
        #: needs it.
        self._sorted_ids: Optional[list[int]] = None
        #: Monotonic mutation counter: one increment per changed row set.
        self.version = 0
        #: Bumped whenever a slot is added, tombstoned or renumbered;
        #: translations are valid only in the epoch they were built in.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of agents in the topology."""
        return self._node_count

    @property
    def num_edges(self) -> int:
        """Number of communication links."""
        return self._edge_count

    @property
    def nodes(self) -> list[int]:
        """Agent ids in sorted order."""
        return list(self._ids_in_order())

    def neighbors(self, agent_id: int) -> list[int]:
        """Agents directly connected to ``agent_id`` (sorted for determinism)."""
        return sorted(self._ids[self._row(self._slot(agent_id))].tolist())

    def degree(self, agent_id: int) -> int:
        """Number of direct neighbours of an agent."""
        return int(self._row(self._slot(agent_id)).size)

    def are_connected(self, a: int, b: int) -> bool:
        """Whether agents ``a`` and ``b`` share a direct link."""
        source = self._slot_of.get(a, -1)
        target = self._slot_of.get(b, -1)
        return source >= 0 and target >= 0 and self._linked(source, target)

    def touched_since(self, version: int) -> np.ndarray:
        """Ids of the nodes whose links changed after ``version``.

        ``version`` is an earlier :attr:`version`.  A node added since then
        counts as changed; a node removed since then is not listed, but
        every node it was linked to is.
        """
        if version >= self.version:
            return _EMPTY
        count = self._slot_count
        slots = np.flatnonzero(
            (self._stamp[:count] > version) & self._alive[:count]
        )
        return self._ids[slots]

    def translation(
        self, ids: Sequence[int], columns: Optional[CsrTranslation] = None
    ) -> CsrTranslation:
        """The slot ↔ position translation of a participant tuple.

        :meth:`links_for` then lists the links among those participants.
        With ``columns``, the rows are ``ids`` but the columns keep
        ``columns``' positions: the links from ``ids`` to that
        translation's participants.
        """
        ids_tuple = tuple(ids)
        n = len(ids_tuple)
        slot_of = self._slot_of
        slots = np.fromiter(
            (slot_of.get(agent_id, -1) for agent_id in ids_tuple),
            dtype=np.int64,
            count=n,
        )
        if columns is not None:
            return CsrTranslation(
                ids_tuple, slots, columns.pos_of_slot, False, self.epoch
            )
        pos_of_slot = np.full(self._slot_count, -1, dtype=np.int64)
        valid = slots >= 0
        pos_of_slot[slots[valid]] = np.flatnonzero(valid)
        monotonic = bool(valid.all()) and (n < 2 or bool((np.diff(slots) > 0).all()))
        return CsrTranslation(ids_tuple, slots, pos_of_slot, monotonic, self.epoch)

    def links_for(
        self,
        translation: CsrTranslation,
        positions: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat participant-space links of the given (ascending) positions.

        Returns ``(rows, cols)`` position arrays sorted by ``(row, col)``,
        both directions of every link among the participants.
        ``positions=None`` queries every participant row.  ``translation``
        must come from this topology's current :attr:`epoch`.
        """
        if translation.epoch != self.epoch:
            raise ValueError("translation predates the topology's last slot change")
        if positions is None:
            slots = translation.slots
            pos = np.arange(len(translation.ids), dtype=np.int64)
        else:
            pos = np.asarray(positions, dtype=np.int64)
            slots = translation.slots[pos]
        pos_of_slot = translation.pos_of_slot

        in_base = (slots >= 0) & (slots < self._base_slots)
        total = 0
        if in_base.any():
            base = np.where(in_base, slots, 0)
            starts = self._indptr[base]
            counts = np.where(in_base, self._indptr[base + 1] - starts, 0)
            total = int(counts.sum())
        if total:
            ends = np.cumsum(counts)
            flat = np.repeat(starts - ends + counts, counts) + np.arange(
                total, dtype=np.int64
            )
            col_slots = self._cols[flat]
            col_pos = pos_of_slot[col_slots]
            keep = col_pos >= 0
            if self._removed:
                packed = np.repeat(slots, counts) * _STRIDE + col_slots
                keep &= ~np.isin(packed, self._removed_array())
            rows_out = np.repeat(pos, counts)[keep]
            cols_out = col_pos[keep]
        else:
            rows_out, cols_out = _EMPTY, _EMPTY

        staged_rows: list[np.ndarray] = []
        staged_cols: list[np.ndarray] = []
        if self._added:
            added = self._added
            for index, slot in enumerate(slots.tolist()):
                staged = added.get(slot)
                if not staged:
                    continue
                cols = pos_of_slot[np.asarray(staged, dtype=np.int64)]
                cols = cols[cols >= 0]
                if cols.size:
                    staged_rows.append(np.full(cols.size, pos[index], dtype=np.int64))
                    staged_cols.append(cols)
        if staged_rows:
            rows_out = np.concatenate([rows_out, *staged_rows])
            cols_out = np.concatenate([cols_out, *staged_cols])
        if rows_out.size and (staged_rows or not translation.monotonic):
            order = np.lexsort((cols_out, rows_out))
            rows_out = rows_out[order]
            cols_out = cols_out[order]
        return rows_out, cols_out

    def copy(self) -> "Topology":
        """Independent copy (runs that mutate the topology get their own)."""
        clone = object.__new__(Topology)
        clone.__dict__.update(self.__dict__)
        # The base arrays and the sorted removed keys are replaced, never
        # written in place, so the copy shares them.
        clone._ids = self._ids.copy()
        clone._alive = self._alive.copy()
        clone._stamp = self._stamp.copy()
        clone._slot_of = dict(self._slot_of)
        clone._added = {slot: list(staged) for slot, staged in self._added.items()}
        clone._removed = set(self._removed)
        if self._sorted_ids is not None:
            clone._sorted_ids = list(self._sorted_ids)
        return clone

    def __repr__(self) -> str:
        return f"Topology(nodes={self.num_nodes}, edges={self.num_edges})"

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
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
        slot_of = self._slot_of
        if neighbors is None:
            targets = [slot for node, slot in slot_of.items() if node != agent_id]
        else:
            targets = {
                slot_of[node]
                for node in neighbors
                if node in slot_of and node != agent_id
            }
        slot = self._add_node(agent_id)
        for target in targets:
            self._add_edge(slot, target)
        self._maybe_compact()

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
          position: it links to the smallest and the largest existing id,
          and the edge between them (the wrap edge) is removed when at
          least three nodes then remain on the ring, keeping a ring a ring;
        * ``"random-k"`` — connect to ``min(k, n)`` existing nodes sampled
          uniformly without replacement from ``rng`` (required).

        Returns the newcomer's neighbour list after wiring (sorted).
        """
        if neighbors is not None:
            self.add_agent(agent_id, neighbors)
            return self.neighbors(agent_id)
        existing = self._ids_in_order()
        if agent_id in self._slot_of:
            existing = [node for node in existing if node != agent_id]
        if policy == "full" or len(existing) <= 1:
            self.add_agent(agent_id, None)
        elif policy == "ring":
            lo, hi = existing[0], existing[-1]
            if len(existing) >= 3:
                self._remove_edge(self._slot_of[lo], self._slot_of[hi])
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
        slot = self._slot_of.get(agent_id, -1)
        if slot < 0:
            return
        neighbours = self._row(slot)
        del self._slot_of[agent_id]
        self._alive[slot] = False
        self._node_count -= 1
        self._edge_count -= int(neighbours.size)
        # The dead row keeps its storage until compaction; both directions
        # of every dead link are garbage now.
        self._delta_links += 2 * int(neighbours.size)
        if self._sorted_ids is not None:
            ids = self._sorted_ids
            del ids[bisect.bisect_left(ids, agent_id)]
        self.epoch += 1
        self.version += 1
        self._stamp[neighbours] = self.version
        self._stamp[slot] = self.version
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _slot(self, agent_id: int) -> int:
        slot = self._slot_of.get(agent_id, -1)
        if slot < 0:
            raise KeyError(f"agent {agent_id} not in topology")
        return slot

    def _ids_in_order(self) -> list[int]:
        """Every node id in ascending order (the live list: do not mutate)."""
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self._slot_of)
        return self._sorted_ids

    def _row(self, slot: int) -> np.ndarray:
        """The live neighbour slots of a live slot, unsorted."""
        cols = _EMPTY
        if slot < self._base_slots:
            cols = self._cols[self._indptr[slot] : self._indptr[slot + 1]]
            if self._removed:
                cols = cols[~np.isin(slot * _STRIDE + cols, self._removed_array())]
        staged = self._added.get(slot)
        if staged:
            cols = np.concatenate([cols, np.asarray(staged, dtype=np.int64)])
        return cols[self._alive[cols]]

    def _linked(self, source: int, target: int) -> bool:
        """Whether two live slots share a link."""
        if source < self._base_slots:
            lo = int(self._indptr[source])
            hi = int(self._indptr[source + 1])
            index = lo + int(np.searchsorted(self._cols[lo:hi], target))
            if index < hi and self._cols[index] == target:
                return int(source * _STRIDE + target) not in self._removed
        return target in self._added.get(source, ())

    def _touch(self, slot: int) -> None:
        self.version += 1
        self._stamp[slot] = self.version

    def _add_node(self, node: int) -> int:
        slot = self._slot_of.get(node, -1)
        if slot >= 0:
            return slot
        slot = self._slot_count
        if slot == self._ids.size:
            grow = max(64, slot)
            self._ids = np.concatenate([self._ids, np.full(grow, -1, dtype=np.int64)])
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
            self._stamp = np.concatenate([self._stamp, np.zeros(grow, dtype=np.int64)])
        self._ids[slot] = node
        self._alive[slot] = True
        self._slot_of[node] = slot
        self._slot_count += 1
        self._node_count += 1
        if self._sorted_ids is not None:
            bisect.insort(self._sorted_ids, node)
        self.epoch += 1
        self._touch(slot)
        return slot

    def _add_edge(self, source: int, target: int) -> None:
        if source == target or self._linked(source, target):
            return
        self._stage_add(source, target)
        self._stage_add(target, source)
        self._edge_count += 1
        self._touch(source)
        self._stamp[target] = self.version

    def _remove_edge(self, source: int, target: int) -> None:
        if not self._linked(source, target):
            return
        self._stage_remove(source, target)
        self._stage_remove(target, source)
        self._edge_count -= 1
        self._touch(source)
        self._stamp[target] = self.version

    def _stage_add(self, source: int, target: int) -> None:
        key = int(source * _STRIDE + target)
        if key in self._removed:
            # Re-adding a base link: unmasking it restores the base entry.
            self._removed.discard(key)
            self._removed_sorted = None
            self._delta_links -= 1
            return
        self._added.setdefault(source, []).append(target)
        self._delta_links += 1

    def _stage_remove(self, source: int, target: int) -> None:
        staged = self._added.get(source)
        if staged is not None and target in staged:
            staged.remove(target)
            if not staged:
                del self._added[source]
            self._delta_links -= 1
            return
        self._removed.add(int(source * _STRIDE + target))
        self._removed_sorted = None
        self._delta_links += 1

    def _removed_array(self) -> np.ndarray:
        if self._removed_sorted is None:
            self._removed_sorted = np.fromiter(
                self._removed, dtype=np.int64, count=len(self._removed)
            )
            self._removed_sorted.sort()
        return self._removed_sorted

    def _maybe_compact(self) -> None:
        if self._delta_links > _COMPACT_FRACTION * max(
            int(self._cols.size), _COMPACT_FLOOR
        ):
            self._compact()

    def _compact(self) -> None:
        """Fold tombstones, delta lists and removed keys into a fresh base."""
        count = self._slot_count
        live = np.flatnonzero(self._alive[:count])
        new_of_old = np.full(count, -1, dtype=np.int64)
        new_of_old[live] = np.arange(live.size)
        rows, cols = self._live_links()
        self._indptr, self._cols = _csr(
            new_of_old[rows] * live.size + new_of_old[cols], live.size
        )
        self._ids = self._ids[live]
        self._alive = np.ones(live.size, dtype=bool)
        self._stamp = self._stamp[live]
        self._slot_of = dict(zip(self._ids.tolist(), range(live.size)))
        self._slot_count = self._base_slots = int(live.size)
        self._added = {}
        self._removed = set()
        self._removed_sorted = None
        self._delta_links = 0
        self.epoch += 1

    def _live_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Every live directed link as (old) slot arrays, unsorted."""
        base_rows = np.repeat(
            np.arange(self._base_slots, dtype=np.int64), np.diff(self._indptr)
        )
        base_cols = self._cols
        keep = self._alive[base_rows] & self._alive[base_cols]
        if self._removed:
            keep &= ~np.isin(base_rows * _STRIDE + base_cols, self._removed_array())
        rows = [base_rows[keep]]
        cols = [base_cols[keep]]
        for slot, staged in self._added.items():
            if not self._alive[slot]:
                continue
            staged_cols = np.asarray(staged, dtype=np.int64)
            staged_cols = staged_cols[self._alive[staged_cols]]
            rows.append(np.full(staged_cols.size, slot, dtype=np.int64))
            cols.append(staged_cols)
        return np.concatenate(rows), np.concatenate(cols)


def _csr(packed: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``cols`` of distinct directed links packed as row·count + col."""
    packed = np.sort(packed)
    rows, cols = np.divmod(packed, max(count, 1))
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=count), out=indptr[1:])
    return indptr, cols


def _from_edges(
    agent_ids: Sequence[int], first: np.ndarray, second: np.ndarray
) -> Topology:
    """A topology over ``agent_ids`` linking ``agent_ids[first[e]]`` and
    ``agent_ids[second[e]]`` for every ``e`` (self-links and repeats dropped)."""
    ids, slot_of_position = np.unique(
        np.asarray(agent_ids, dtype=np.int64), return_inverse=True
    )
    count = int(ids.size)
    source = slot_of_position[first]
    target = slot_of_position[second]
    distinct = source != target
    source, target = source[distinct], target[distinct]
    edges = np.unique(np.minimum(source, target) * count + np.maximum(source, target))
    lo, hi = np.divmod(edges, max(count, 1))
    indptr, cols = _csr(np.concatenate([edges, hi * count + lo]), count)
    return Topology(ids, indptr, cols)


def full_topology(agent_ids: Sequence[int]) -> Topology:
    """Complete graph: every agent can talk to every other agent."""
    ids = list(agent_ids)
    first, second = np.triu_indices(len(ids), 1)
    return _from_edges(ids, first, second)


def ring_topology(agent_ids: Sequence[int]) -> Topology:
    """Ring graph: each agent has exactly two neighbours."""
    ids = list(agent_ids)
    first = np.arange(len(ids)) if len(ids) >= 2 else _EMPTY
    return _from_edges(ids, first, (first + 1) % max(len(ids), 1))


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
    uniformly sampled extra edges.  Links are drawn as pairs of positions in
    ``agent_ids``, the full graph's listed row by row.
    """
    check_probability(link_fraction, "link_fraction")
    ids = list(agent_ids)
    n = len(ids)
    if n < 2:
        return _from_edges(ids, _EMPTY, _EMPTY)

    first, second = np.triu_indices(n, 1)
    target_edges = max(1, int(round(link_fraction * first.size)))

    chosen = np.zeros(first.size, dtype=bool)
    if ensure_connected:
        order = rng.permutation(n)
        lo = np.minimum(order[:-1], order[1:])
        hi = np.maximum(order[:-1], order[1:])
        # Index of the position pair (lo, hi) in the row-by-row listing.
        chosen[lo * (2 * n - lo - 1) // 2 + hi - lo - 1] = True

    remaining = np.flatnonzero(~chosen)
    extra_needed = max(0, target_edges - int(np.count_nonzero(chosen)))
    if extra_needed > 0 and remaining.size:
        extra_indices = rng.choice(
            remaining.size, size=min(extra_needed, remaining.size), replace=False
        )
        chosen[remaining[extra_indices]] = True
    return _from_edges(ids, first[chosen], second[chosen])


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
    n = len(ids)
    if n < 2:
        return _from_edges(ids, _EMPTY, _EMPTY)

    chain = rng.permutation(n) if ensure_connected else _EMPTY
    sources = np.repeat(np.arange(n), k)
    targets = rng.integers(0, n, size=n * k)
    return _from_edges(
        ids,
        np.concatenate([chain[:-1], sources]),
        np.concatenate([chain[1:], targets]),
    )
