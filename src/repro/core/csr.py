"""Incremental topology engine: an editable CSR with O(Δ) wiring edits.

The pruned planner's candidate selection consumes the communication
topology as a CSR neighbor structure.  Rebuilding that structure from the
graph is O(E) — at 500k agents and ~7M directed links it dominates every
arrival wave, because a single wiring change used to drop the whole cached
structure.  :class:`IncrementalCsr` instead *edits* the structure in
place, driven by the :class:`~repro.network.topology.Topology` edge-delta
journal:

* **arrivals** append a new slot (row) and stage its neighbor columns into
  per-slot delta lists;
* **departures** tombstone the slot — neighbor rows need no touch-up,
  because every query filters columns through the participant translation
  and a dead slot translates to no position;
* **rewires** (edge add/remove between live nodes) stage a delta-list
  insert or a removed-key mark, patching the structure without moving the
  base arrays;
* **lazy compaction** folds tombstones and delta lists back into a fresh
  base once their volume crosses ``compaction_threshold`` × the base size,
  so queries never degrade unboundedly.

The structure lives in **slot space** — one slot per topology node, *not*
per round participant — so participant sampling and membership churn never
invalidate it; a cheap vectorized translation (slot ↔ participant
position) is all that changes between rounds.  Equivalence with a
from-scratch build is enforced structurally: ``tests/test_csr.py`` drives
random arrival/departure/rewire sequences through both paths and asserts
identical materialised links (and identical planner decisions).
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

__all__ = ["CsrTranslation", "IncrementalCsr"]

#: Packing stride for directed removed-link keys (slot_u·STRIDE + slot_v).
#: Slot indices stay far below 2³¹, so packed keys fit int64 exactly.
_STRIDE = np.int64(1) << 31

#: Base directed-link floor under which compaction is never triggered
#: (tiny structures rebuild in microseconds; hysteresis is pointless).
_COMPACT_FLOOR = 256


class _NullStats:
    """Counter sink used when no stats object is supplied."""

    csr_edits = 0
    csr_rebuilds = 0
    csr_compactions = 0


class CsrTranslation:
    """Slot ↔ participant-position translation for one participant set.

    ``slots[p]`` is the slot of the participant at position ``p`` (−1 when
    the participant is not a topology node), ``pos_of_slot[s]`` the
    position of slot ``s`` (−1 for non-participants and tombstones).
    ``monotonic`` records whether slot order implies position order, which
    lets steady-state queries skip the (row, col) lexsort entirely.
    """

    __slots__ = ("ids", "slots", "pos_of_slot", "monotonic", "slot_count", "epoch")

    def __init__(
        self,
        ids: tuple[int, ...],
        slots: np.ndarray,
        pos_of_slot: np.ndarray,
        monotonic: bool,
        slot_count: int,
        epoch: int,
    ) -> None:
        self.ids = ids
        self.slots = slots
        self.pos_of_slot = pos_of_slot
        self.monotonic = monotonic
        self.slot_count = slot_count
        self.epoch = epoch


class IncrementalCsr:
    """Editable slot-space CSR over a topology, synced via its journal.

    Parameters
    ----------
    topology:
        The :class:`~repro.network.topology.Topology` whose journal drives
        the edits.
    compaction_threshold:
        Staged-delta volume (directed links in delta lists, removed marks,
        and tombstoned rows) as a fraction of the base structure at which
        :meth:`sync` folds everything back into a fresh base.
    stats:
        Optional counter sink with ``csr_edits`` / ``csr_rebuilds`` /
        ``csr_compactions`` attributes (the planner passes its
        :class:`~repro.core.planner.PlannerStats`).
    """

    def __init__(
        self,
        topology,
        *,
        compaction_threshold: float = 0.25,
        stats=None,
    ) -> None:
        if compaction_threshold <= 0:
            raise ValueError(
                f"compaction_threshold must be > 0, got {compaction_threshold}"
            )
        self.topology = topology
        self.compaction_threshold = compaction_threshold
        self.stats = stats if stats is not None else _NullStats()
        self._built = False
        self._cursor = 0
        #: Bumped on every rebuild / compaction (slots are renumbered);
        #: translations cache against it.
        self.epoch = 0
        self._reset_empty()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_empty(self) -> None:
        self._ids = np.empty(0, dtype=np.int64)
        self._alive = np.empty(0, dtype=bool)
        self._indptr = np.zeros(1, dtype=np.int64)
        self._cols = np.empty(0, dtype=np.int64)
        self._slot_of: dict[int, int] = {}
        self._added: dict[int, list[int]] = {}
        self._removed: set[int] = set()
        self._removed_sorted: Optional[np.ndarray] = None
        self._slot_count = 0
        self._base_slots = 0
        self._delta_links = 0
        self.node_count = 0
        self.edge_count = 0

    @property
    def built(self) -> bool:
        return self._built

    @property
    def cursor(self) -> int:
        """Topology journal version this structure is synced to."""
        return self._cursor

    @property
    def slot_count(self) -> int:
        return self._slot_count

    @property
    def staged_deltas(self) -> int:
        """Directed links currently staged outside the base structure."""
        return self._delta_links

    def counts(self) -> tuple[int, int]:
        """(live nodes, live undirected edges) — O(1) once built."""
        return self.node_count, self.edge_count

    # ------------------------------------------------------------------
    # Sync / rebuild
    # ------------------------------------------------------------------
    def sync(self) -> Optional[set[int]]:
        """Bring the structure up to the topology's journal head.

        Returns the set of node ids whose rows were affected by the
        applied edits (possibly empty), or ``None`` when the structure had
        to be rebuilt from the graph — callers must then treat every row
        as changed.
        """
        if not self._built:
            self.rebuild()
            return None
        version = self.topology.version
        if version == self._cursor:
            return set()
        events = self.topology.events_since(self._cursor)
        if events is None:
            # Journal truncated past our cursor: the O(Δ) window is gone.
            self.rebuild()
            return None
        affected: set[int] = set()
        for event in events:
            self._apply(event, affected)
        self._cursor = version
        self.stats.csr_edits += len(events)
        base_links = max(int(self._cols.size), _COMPACT_FLOOR)
        if self._delta_links > self.compaction_threshold * base_links:
            self._compact()
        return affected

    def rebuild(self) -> None:
        """Full build from the topology graph (the O(E) fallback path)."""
        graph = self.topology.graph
        self._reset_empty()
        node_ids = sorted(graph.nodes)
        count = len(node_ids)
        self._ids = np.asarray(node_ids, dtype=np.int64)
        self._alive = np.ones(count, dtype=bool)
        self._slot_of = {node: slot for slot, node in enumerate(node_ids)}
        self._slot_count = count
        self._base_slots = count
        self.node_count = count
        self.edge_count = graph.number_of_edges()
        edges = np.fromiter(
            chain.from_iterable(graph.edges()),
            dtype=np.int64,
            count=2 * self.edge_count,
        ).reshape(-1, 2)
        link_rows, link_cols = _serial_links(self._ids, edges)
        counts = np.bincount(link_rows, minlength=count)
        self._indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._cols = link_cols
        self._cursor = self.topology.version
        self._built = True
        self.epoch += 1
        self.stats.csr_rebuilds += 1

    # ------------------------------------------------------------------
    # O(Δ) edits
    # ------------------------------------------------------------------
    def _slot(self, node: int, create: bool = False) -> int:
        slot = self._slot_of.get(node, -1)
        if slot < 0 and create:
            slot = self._new_slot(node)
        return slot

    def _new_slot(self, node: int) -> int:
        slot = self._slot_count
        if slot >= len(self._ids):
            grow = max(64, len(self._ids))
            self._ids = np.concatenate(
                [self._ids, np.full(grow, -1, dtype=np.int64)]
            )
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
        self._ids[slot] = node
        self._alive[slot] = True
        self._slot_of[node] = slot
        self._slot_count += 1
        return slot

    def _apply(self, event: tuple, affected: set[int]) -> None:
        kind = event[0]
        if kind == "add_node":
            node = event[1]
            if self._slot_of.get(node, -1) < 0:
                self._new_slot(node)
                self.node_count += 1
            affected.add(node)
        elif kind == "add_edge":
            _, u, v = event
            su = self._slot(u, create=True)
            sv = self._slot(v, create=True)
            self._stage_add(su, sv)
            self._stage_add(sv, su)
            self.edge_count += 1
            affected.add(u)
            affected.add(v)
        elif kind == "remove_edge":
            _, u, v = event
            su = self._slot(u)
            sv = self._slot(v)
            if su >= 0 and sv >= 0:
                self._stage_remove(su, sv)
                self._stage_remove(sv, su)
                self.edge_count -= 1
            affected.add(u)
            affected.add(v)
        elif kind == "remove_node":
            _, node, neighbors = event
            slot = self._slot(node)
            if slot >= 0 and self._alive[slot]:
                self._alive[slot] = False
                del self._slot_of[node]
                self.node_count -= 1
                self.edge_count -= len(neighbors)
                # Tombstoned rows keep their storage until compaction;
                # both directions of every dead link are garbage now.
                self._delta_links += 2 * len(neighbors)
            affected.add(node)
            affected.update(neighbors)
        else:  # pragma: no cover - future event kinds force a rebuild
            raise ValueError(f"unknown topology event {kind!r}")

    def _stage_add(self, src: int, dst: int) -> None:
        key = int(src * _STRIDE + dst)
        if key in self._removed:
            # Re-adding a base link: unmasking it restores the base entry.
            self._removed.discard(key)
            self._removed_sorted = None
            self._delta_links -= 1
            return
        self._added.setdefault(src, []).append(dst)
        self._delta_links += 1

    def _stage_remove(self, src: int, dst: int) -> None:
        staged = self._added.get(src)
        if staged is not None and dst in staged:
            staged.remove(dst)
            if not staged:
                del self._added[src]
            self._delta_links -= 1
            return
        self._removed.add(int(src * _STRIDE + dst))
        self._removed_sorted = None
        self._delta_links += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Fold tombstones and delta lists into a fresh base structure."""
        live = np.nonzero(self._alive[: self._slot_count])[0]
        rows, cols = self._live_slot_links()
        new_of_old = np.full(self._slot_count, -1, dtype=np.int64)
        new_of_old[live] = np.arange(live.size)
        rows = new_of_old[rows]
        cols = new_of_old[cols]
        ids = self._ids[live].copy()

        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        counts = np.bincount(rows, minlength=live.size)

        self._ids = ids
        self._alive = np.ones(live.size, dtype=bool)
        self._slot_of = {int(node): slot for slot, node in enumerate(ids.tolist())}
        self._slot_count = live.size
        self._base_slots = live.size
        self._indptr = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._cols = cols
        self._added = {}
        self._removed = set()
        self._removed_sorted = None
        self._delta_links = 0
        self.epoch += 1
        self.stats.csr_compactions += 1

    def _live_slot_links(self) -> tuple[np.ndarray, np.ndarray]:
        """All live directed links in (old) slot space, unsorted."""
        base_rows = np.repeat(
            np.arange(self._base_slots, dtype=np.int64),
            np.diff(self._indptr),
        )
        base_cols = self._cols
        keep = self._alive[base_rows] & self._alive[base_cols]
        if self._removed:
            packed = base_rows * _STRIDE + base_cols
            keep &= ~np.isin(packed, self._removed_array())
        parts_r = [base_rows[keep]]
        parts_c = [base_cols[keep]]
        for slot, staged in self._added.items():
            if not staged or not self._alive[slot]:
                continue
            staged_cols = np.asarray(staged, dtype=np.int64)
            staged_cols = staged_cols[self._alive[staged_cols]]
            if staged_cols.size:
                parts_r.append(np.full(staged_cols.size, slot, dtype=np.int64))
                parts_c.append(staged_cols)
        return np.concatenate(parts_r), np.concatenate(parts_c)

    def _removed_array(self) -> np.ndarray:
        if self._removed_sorted is None:
            self._removed_sorted = np.fromiter(
                self._removed, dtype=np.int64, count=len(self._removed)
            )
            self._removed_sorted.sort()
        return self._removed_sorted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def translation(self, ids: Sequence[int]) -> CsrTranslation:
        """Build the slot ↔ position translation for one participant tuple."""
        ids_tuple = tuple(ids)
        n = len(ids_tuple)
        slots = np.fromiter(
            (self._slot_of.get(agent_id, -1) for agent_id in ids_tuple),
            dtype=np.int64,
            count=n,
        )
        pos_of_slot = np.full(self._slot_count, -1, dtype=np.int64)
        valid = slots >= 0
        pos_of_slot[slots[valid]] = np.nonzero(valid)[0]
        monotonic = bool(valid.all()) and (
            n < 2 or bool((np.diff(slots) > 0).all())
        )
        return CsrTranslation(
            ids_tuple, slots, pos_of_slot, monotonic, self._slot_count, self.epoch
        )

    def translation_current(self, translation: Optional[CsrTranslation]) -> bool:
        """Whether a cached translation still matches the structure."""
        return (
            translation is not None
            and translation.epoch == self.epoch
            and translation.slot_count == self._slot_count
        )

    def links_for(
        self,
        translation: CsrTranslation,
        positions: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat participant-space links of the given (ascending) positions.

        Returns ``(rows, cols)`` position arrays sorted by ``(row, col)``
        — exactly the order a from-scratch participant CSR build yields,
        which the downstream first-minimum tie-breaking relies on.
        ``positions=None`` queries every participant row.
        """
        if positions is None:
            slots = translation.slots
            pos = np.arange(len(translation.ids), dtype=np.int64)
        else:
            pos = np.asarray(positions, dtype=np.int64)
            slots = translation.slots[pos]

        empty = np.empty(0, dtype=np.int64)
        base = np.minimum(slots, self._base_slots - 1)
        in_base = (slots >= 0) & (slots < self._base_slots)
        if self._base_slots and in_base.any():
            safe = np.where(in_base, base, 0)
            counts = np.where(
                in_base, self._indptr[safe + 1] - self._indptr[safe], 0
            )
            total = int(counts.sum())
        else:
            counts = np.zeros(len(slots), dtype=np.int64)
            total = 0
        if total:
            starts = self._indptr[np.where(in_base, base, 0)]
            ends = np.cumsum(counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                ends - counts, counts
            )
            flat = np.repeat(starts, counts) + offsets
            col_slots = self._cols[flat]
            row_slots = np.repeat(slots, counts)
            keep = np.ones(total, dtype=bool)
            if self._removed:
                packed = row_slots * _STRIDE + col_slots
                keep &= ~np.isin(packed, self._removed_array())
            col_pos = translation.pos_of_slot[col_slots]
            keep &= col_pos >= 0
            rows_out = np.repeat(pos, counts)[keep]
            cols_out = col_pos[keep]
        else:
            rows_out, cols_out = empty, empty

        has_added = False
        if self._added:
            add_rows: list[np.ndarray] = []
            add_cols: list[np.ndarray] = []
            added = self._added
            for index, slot in enumerate(slots.tolist()):
                staged = added.get(slot)
                if not staged:
                    continue
                staged_cols = translation.pos_of_slot[
                    np.asarray(staged, dtype=np.int64)
                ]
                staged_cols = staged_cols[staged_cols >= 0]
                if staged_cols.size:
                    add_rows.append(
                        np.full(staged_cols.size, pos[index], dtype=np.int64)
                    )
                    add_cols.append(staged_cols)
            if add_rows:
                has_added = True
                rows_out = np.concatenate([rows_out] + add_rows)
                cols_out = np.concatenate([cols_out] + add_cols)

        if rows_out.size and (has_added or not translation.monotonic):
            order = np.lexsort((cols_out, rows_out))
            rows_out = rows_out[order]
            cols_out = cols_out[order]
        return rows_out, cols_out


def _serial_links(ids: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized slot-space directed links from a flat edge-id array.

    ``ids`` is the slot-ordered (sorted) node-id array; both directions of
    every edge are kept, sorted by ``(row, col)``.
    """
    empty = np.empty(0, dtype=np.int64)
    if edges.shape[0] == 0:
        return empty, empty
    # Slot order is ascending node id at build time, so a searchsorted maps
    # edge endpoints without any dict.
    slots = np.searchsorted(ids, edges)
    source = slots[:, 0]
    target = slots[:, 1]
    distinct = source != target
    source = source[distinct]
    target = target[distinct]
    rows = np.concatenate([source, target])
    cols = np.concatenate([target, source])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]
