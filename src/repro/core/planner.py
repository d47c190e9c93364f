"""The round planner: candidate pruning, sparse bandwidth, incremental replanning.

Every ComDML round is planned here, at every population size.  The dense
:class:`~repro.core.fastpath.PairCostModel` kernel materialises the full
``(slow × candidate × split)`` tensor — O(n²·s) time and memory — and
stays only behind :func:`~repro.core.pairing.greedy_pairing` (the
ablations and the benchmarks) and
:func:`~repro.core.workload.exact_min_makespan`; the scalar oracle
(:func:`~repro.core.pairing.greedy_pairing_reference`) remains the
correctness contract.  This module plans through three cooperating
mechanisms:

**Candidate pruning.**  For each slow agent the pair-time evaluation is
restricted to its ``top_k`` fastest reachable peers — a vectorized
rank-selection over the broadcast τ̂ vector gathered along the topology's
neighbor lists — so only a pruned ``(slow × k × split)`` block is ever
computed.  With ``k ≥ n − 1`` no candidate is dropped and the planner is
*decision-identical* to the dense kernel (Hypothesis-enforced in
``tests/test_planner.py``): every elementwise expression mirrors the exact
operation order of :func:`~repro.core.workload.estimate_offload_time`, the
split reduction uses strict-``<`` first-minimum tie-breaking, candidates
are ranked by (τ̂, participant position) and kept in participant-position
order so the row argmin breaks ties like the dense scan, and each formed
pair's :class:`~repro.core.workload.OffloadEstimate` fields are computed
from the same elementwise mirror, reproducing the scalar oracle bit for
bit.  The plan comes out as one :class:`~repro.core.pairing.PairingPlan`
of columns.

**Sparse / blocked bandwidth.**  Adjacency and bandwidth are consumed as
neighbor lists (the topology graph's native structure, or the
:class:`~repro.core.csr.IncrementalCsr` link index) instead of the dense
``n × n`` :func:`~repro.core.fastpath.bandwidth_matrix`, so ring and
random-k topologies cost O(E), not O(n²).  Complete graphs — where a
neighbor list *is* O(n²) — short-circuit to a shared pool of the k+1
fastest agents, which holds every row's top-k, keeping even full
topologies at O(n·k).

**Incremental replanning.**  A :class:`PlannerState` keeps each
participant's pruned candidate block in a row across rounds.  A row's
block depends on its own profile, its neighbour set and its neighbours'
profiles, so each plan re-costs a row only when one of those changed:

* a *profile seed* — a participant whose signature changed, an id passed
  to :meth:`PrunedPlanner.invalidate`, or a participant new this round —
  re-costs its own row and its neighbours' rows;
* a *journal endpoint* — an agent the topology's edge-delta journal names
  because an edge or node was added or removed next to it — re-costs its
  own row only;
* a participant that left the round re-costs the rows that list it: its
  graph neighbours if it only left the sample, the journal endpoints if
  it left the topology.

Every plan drains the journal itself, so wiring changes need no call.
Rows stay in place: arrivals append rows, participants that leave
tombstone theirs, and tombstones compact lazily.  A round with ``d``
changed agents therefore evaluates O(d·k·s) pair times —
:class:`PlannerStats` counts them so tests can assert the bound.

The candidate budget is one rule, set where :meth:`PrunedPlanner.plan`
computes ``k``: a round with fewer than ``prune_threshold`` participants
keeps every candidate (``k = n − 1``, decision-identical to the dense
kernel), and a round at or above it keeps ``top_k``.
:class:`~repro.core.comdml.ComDML` builds the planner with
``prune_threshold =``
:attr:`~repro.core.config.ComDMLConfig.planner_threshold`.  A round whose
``k`` differs from the previous round's starts a fresh state (every row
re-costs): a population that crosses the threshold is one such change,
and so is any change of ``n`` below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.csr import CsrTranslation, IncrementalCsr
from repro.core.fastpath import (
    AgentVectors,
    _uses_default_links,
    agent_attrs,
    agent_vectors_from_attrs,
)
from repro.core.pairing import PairingPlan
from repro.core.profiling import SplitProfile
from repro.network.link import LinkModel
from repro.utils.validation import check_positive

__all__ = ["PlannerState", "PlannerStats", "PrunedPlanner"]

#: Tombstoned rows, as a fraction of the rows handed out, past which the
#: next membership change compacts the state (``IncrementalCsr``'s default).
_COMPACT_FRACTION = 0.25

#: Row count under which tombstones never trigger a compaction.
_COMPACT_FLOOR = 256


@dataclass
class PlannerStats:
    """Operation counters of a :class:`PrunedPlanner` (for tests and reports).

    ``pairs_evaluated`` counts (slow, candidate, split) cost evaluations —
    the quantity the incremental-replanning bound O(d·k·s) is stated in.
    The ``csr_*`` counters observe the incremental topology engine
    (:mod:`repro.core.csr`): ``csr_edits`` is the number of journal events
    applied as O(Δ) edits, ``csr_rebuilds`` the O(E) from-graph builds, and
    ``csr_compactions`` the lazy delta/tombstone fold-backs.
    """

    rounds: int = 0
    full_rebuilds: int = 0
    rows_recomputed: int = 0
    rows_reused: int = 0
    pairs_evaluated: int = 0
    last_rows_recomputed: int = 0
    last_rows_reused: int = 0
    last_pairs_evaluated: int = 0
    csr_edits: int = 0
    csr_rebuilds: int = 0
    csr_compactions: int = 0

    def report(self) -> dict:
        """Plain-dict view (campaign ``execution_report`` serialisation)."""
        return {
            "rounds": self.rounds,
            "full_rebuilds": self.full_rebuilds,
            "rows_recomputed": self.rows_recomputed,
            "rows_reused": self.rows_reused,
            "pairs_evaluated": self.pairs_evaluated,
            "csr_edits": self.csr_edits,
            "csr_rebuilds": self.csr_rebuilds,
            "csr_compactions": self.csr_compactions,
        }


@dataclass
class PlannerState:
    """Per-participant planning cache carried across rounds.

    Rows are not participant positions.  A participant keeps its row for
    as long as it stays in the round; arrivals append rows, and
    participants that leave tombstone theirs until a lazy compaction.
    ``row_of_pos`` maps this round's participant positions to rows,
    ``pos_of_row`` maps back (−1 for tombstoned and unused rows), and
    ``used`` rows have been handed out, ``dead`` of them tombstoned.

    Each row holds its candidates in the greedy scan's walk order:
    ascending by (pair time, participant position), padded past the last
    finite time with time ``+inf`` and row −1.  ``scan_rows`` are the
    candidates' rows, ``scan_split`` the best split index and ``scan_bw``
    the pair bandwidth.  ``ids``, ``ids_array`` and the ``(n, 5)``
    signature matrix ``sig`` (cpu share, bandwidth, samples, batch size,
    local epochs as float64) are this round's, by position; the next plan
    diffs against them.
    """

    ids: tuple[int, ...]
    ids_array: np.ndarray
    k: int
    sig: np.ndarray
    row_of_pos: np.ndarray
    pos_of_row: np.ndarray
    used: int
    dead: int
    scan_times: np.ndarray
    scan_rows: np.ndarray
    scan_split: np.ndarray
    scan_bw: np.ndarray


class PrunedPlanner:
    """Top-k pruned, sparse-bandwidth, incrementally replanning scheduler core.

    The one planner: :class:`~repro.core.comdml.ComDML` always builds it,
    from ``ComDMLConfig.planner_top_k`` and
    ``ComDMLConfig.planner_threshold``, and plans every round with it.
    The threshold says where pruning starts: smaller rounds keep every
    candidate, so they plan exactly like the dense kernel, and
    ``planner_threshold=1`` prunes at every size.

    Parameters
    ----------
    profile:
        Split profile of the architecture being trained.
    link_model:
        Source of adjacency and pairwise bandwidths.
    top_k:
        Candidate budget per slow agent in rounds of at least
        ``prune_threshold`` participants.  ``k ≥ n − 1`` makes the planner
        decision-identical to the dense kernel.
    prune_threshold:
        Participant count at or above which each row keeps only ``top_k``
        candidates; a smaller round keeps every candidate (``k = n − 1``).
        ``None`` prunes at every size.  A round whose budget differs from
        the previous round's starts a fresh state.
    batch_size:
        Optional positive batch-size override (same semantics as the dense
        kernel; validated at this boundary).
    improvement_threshold:
        Minimum relative improvement over training alone required to pair.
    """

    def __init__(
        self,
        profile: SplitProfile,
        link_model: LinkModel,
        *,
        top_k: int = 32,
        prune_threshold: Optional[int] = None,
        batch_size: Optional[int] = None,
        improvement_threshold: float = 0.0,
    ) -> None:
        check_positive(top_k, "top_k")
        if prune_threshold is not None:
            check_positive(prune_threshold, "prune_threshold")
        if batch_size is not None:
            check_positive(batch_size, "batch_size")
        self.profile = profile
        self.link_model = link_model
        self.top_k = top_k
        self.prune_threshold = prune_threshold
        self.batch_size = batch_size
        self.improvement_threshold = improvement_threshold
        self.latency_seconds = link_model.latency_seconds
        self.stats = PlannerStats()
        self.state: Optional[PlannerState] = None
        #: Profile seeds named by :meth:`invalidate` since the last plan.
        self._seed_ids: set[int] = set()
        #: Journal endpoints (and :meth:`invalidate_topology` ids) since
        #: the last plan.
        self._endpoint_ids: set[int] = set()
        self._pending_all = False
        #: Set when the journal was truncated past the planner's cursor —
        #: every row must re-cost.
        self._pending_all_rows = False
        #: Topology journal version the planner has drained to.
        self._cursor = link_model.topology.version
        #: Incremental topology engine (built lazily on the first plan
        #: that takes the CSR path) and its cached participant translation.
        self._csr: Optional[IncrementalCsr] = None
        self._translation: Optional[CsrTranslation] = None
        #: (topology version, nodes, edges) — caches the complete-graph
        #: check when the CSR engine is not engaged.
        self._counts_cache: Optional[tuple[int, int, int]] = None
        #: (ids tuple, sorted ids, argsort order) — id → position lookup cache.
        self._ids_sort_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Invalidation API
    # ------------------------------------------------------------------
    def invalidate(self, agent_ids: Sequence[int]) -> None:
        """Mark agents' profiles changed: profile seeds at the next plan.

        Each named participant re-costs its own row and its neighbours'
        rows.  The planner also diffs per-agent signatures on every plan,
        so churn that changes a profile value is caught without this call.
        Wiring changes need no call either: every plan drains the
        topology's edge-delta journal.
        """
        self._seed_ids.update(int(agent_id) for agent_id in agent_ids)

    def invalidate_topology(self, agent_ids: Sequence[int] = ()) -> None:
        """Apply the topology journal now, and re-cost the named agents' rows.

        Drains the edge-delta journal into the CSR structure (O(Δ) edits)
        ahead of the next plan, which would otherwise drain it itself.
        The named agents are treated like journal endpoints: each named
        participant re-costs its own row only.
        """
        self._endpoint_ids.update(int(agent_id) for agent_id in agent_ids)
        self._drain_journal()

    def _drain_journal(self) -> None:
        """Collect the journal's endpoints since the last drain.

        The CSR applies the events as O(Δ) edits when it is built; without
        it (complete-graph pool, custom link models) the planner reads the
        journal itself.  A journal truncated past the cursor re-costs
        every row.
        """
        topology = self.link_model.topology
        if topology.version == self._cursor:
            return
        csr = self._csr
        if csr is not None and csr.built:
            affected = csr.sync()
        else:
            events = topology.events_since(self._cursor)
            affected = None if events is None else _journal_endpoints(events)
        self._cursor = topology.version
        if affected is None:
            self._pending_all_rows = True
        else:
            self._endpoint_ids.update(affected)

    def invalidate_all(self) -> None:
        """Drop the entire cache (next plan is a full rebuild).

        Also the escape hatch for wiring changes made directly on the
        ``networkx`` graph, which bypass the topology journal.
        """
        self._pending_all = True
        self._csr = None
        self._translation = None
        self._counts_cache = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, participants: Sequence[Agent]) -> PairingPlan:
        """Plan one round; returns the pairing decisions as columns."""
        agents = list(participants)
        n = len(agents)
        if n == 0:
            return PairingPlan.empty()
        self._drain_journal()
        attrs = agent_attrs(agents)
        vectors = agent_vectors_from_attrs(attrs, self.profile, self.batch_size)
        taus = vectors.individual_times
        sig = attrs.signature_matrix()
        access = attrs.access_bandwidth()
        ids = tuple(agent.agent_id for agent in agents)
        ids_array = np.fromiter(ids, dtype=np.int64, count=n)
        threshold = self.prune_threshold
        budget = self.top_k if threshold is None or n >= threshold else n - 1
        k = max(min(budget, n - 1), 1)

        state, dirty = self._realign(ids, ids_array, sig, k)
        self._recompute_rows(state, agents, vectors, access, dirty)
        # Stable argsort on -τ̂ = descending τ̂ with ties in first-seen
        # order, exactly like the dense kernel's stable reverse sort.
        order = np.argsort(-taus, kind="stable")

        dirty_count = int(dirty.size)
        self.stats.rounds += 1
        self.stats.last_rows_recomputed = dirty_count
        self.stats.last_rows_reused = n - dirty_count
        self.stats.rows_recomputed += dirty_count
        self.stats.rows_reused += n - dirty_count
        if dirty_count == n:
            self.stats.full_rebuilds += 1

        return self._greedy_scan(state, taus, order, vectors)

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _realign(
        self,
        ids: tuple[int, ...],
        ids_array: np.ndarray,
        sig: np.ndarray,
        k: int,
    ) -> tuple[PlannerState, np.ndarray]:
        """Carry the rows over to this round's participants; find dirty ones.

        Returns the state and the ascending positions whose rows re-cost.
        An unchanged participant tuple keeps every row where it is; a
        membership change tombstones the rows of participants that left
        and appends rows for new ones (:meth:`_move_rows`).  A fresh state
        is built on the first plan, after :meth:`invalidate_all`, when the
        candidate budget or the retained participants' order changed, and
        when the journal was truncated.
        """
        n = len(ids)
        state = self.state
        seed_ids, self._seed_ids = self._seed_ids, set()
        endpoint_ids, self._endpoint_ids = self._endpoint_ids, set()
        rebuild = (
            self._pending_all
            or self._pending_all_rows
            or state is None
            or state.k != k
        )
        if not rebuild:
            if ids == state.ids:
                seeds = (sig != state.sig).any(axis=1)
                left = np.empty(0, dtype=np.int64)
            else:
                moved = self._move_rows(state, ids_array, sig)
                rebuild = moved is None
                if not rebuild:
                    seeds, left = moved
        if rebuild:
            self._pending_all = False
            self._pending_all_rows = False
            self.state = _fresh_state(ids, ids_array, k, sig)
            return self.state, np.arange(n, dtype=np.int64)

        state.ids = ids
        state.ids_array = ids_array
        state.sig = sig
        if seed_ids:
            seeds[self._positions_of(state, seed_ids)] = True
        endpoints = self._positions_of(state, endpoint_ids)
        return state, self._dirty_closure(state, seeds, endpoints, left)

    def _move_rows(
        self, state: PlannerState, ids_array: np.ndarray, sig: np.ndarray
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Membership change, rows in place.

        Retained participants keep their rows; the rows of participants
        that left are tombstoned, and new participants get rows appended
        past ``used``, compacting or growing the arrays first when the
        tombstones pass :data:`_COMPACT_FRACTION` or the capacity runs out.
        Candidate rows stay valid, so nothing is remapped outside a
        compaction.

        Returns the profile-seed mask by new position (new participants
        and retained ones whose signature changed) and the ids of the
        participants that left, or ``None`` when the retained participants
        changed their relative order: every cached row's candidate order
        follows participant positions, so that takes a fresh state.
        """
        n = len(ids_array)
        previous_ids = state.ids_array
        sorted_ids, sort_order = self._sorted_ids(state.ids, previous_ids)
        slot = np.minimum(
            np.searchsorted(sorted_ids, ids_array), len(previous_ids) - 1
        )
        retained = sorted_ids[slot] == ids_array
        old_pos = sort_order[slot[retained]]
        if old_pos.size > 1 and not (np.diff(old_pos) > 0).all():
            return None

        kept = np.zeros(len(previous_ids), dtype=bool)
        kept[old_pos] = True
        left_rows = state.row_of_pos[~kept]
        state.pos_of_row[left_rows] = -1
        state.dead += int(left_rows.size)

        seeds = ~retained
        seeds[retained] = (sig[retained] != state.sig[old_pos]).any(axis=1)
        rows = np.empty(n, dtype=np.int64)
        rows[retained] = state.row_of_pos[old_pos]
        arrivals = n - int(old_pos.size)
        capacity = state.scan_times.shape[0]
        if state.used + arrivals > capacity or state.dead > _COMPACT_FRACTION * max(
            state.used, _COMPACT_FLOOR
        ):
            rows[retained] = _compact(state, rows[retained], arrivals)
        rows[~retained] = np.arange(state.used, state.used + arrivals)
        state.used += arrivals
        state.row_of_pos = rows
        state.pos_of_row[rows] = np.arange(n)
        return seeds, previous_ids[~kept]

    def _sorted_ids(
        self, ids: tuple[int, ...], ids_array: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached (sorted ids, argsort order) for id → position lookups."""
        cached = self._ids_sort_cache
        if cached is not None and (cached[0] is ids or cached[0] == ids):
            return cached[1], cached[2]
        order = np.argsort(ids_array, kind="stable")
        sorted_ids = ids_array[order]
        self._ids_sort_cache = (ids, sorted_ids, order)
        return sorted_ids, order

    def _positions_of(self, state: PlannerState, agent_ids: Iterable[int]) -> np.ndarray:
        """This round's positions of the given ids (absent ids dropped)."""
        query = np.fromiter(agent_ids, dtype=np.int64)
        if query.size == 0:
            return query
        sorted_ids, order = self._sorted_ids(state.ids, state.ids_array)
        slot = np.minimum(np.searchsorted(sorted_ids, query), len(sorted_ids) - 1)
        return order[slot[sorted_ids[slot] == query]]

    def _dirty_closure(
        self,
        state: PlannerState,
        seeds: np.ndarray,
        endpoints: np.ndarray,
        left: np.ndarray,
    ) -> np.ndarray:
        """Ascending positions whose rows re-cost, by cause.

        Profile seeds (``seeds``, a mask by position) re-cost their own
        rows and their neighbours' rows; journal endpoints (``endpoints``,
        positions) their own rows only; participants that left the round
        (``left``, ids) the rows of their graph neighbours.  One that left
        the topology has no neighbours left, and the rows that listed it
        are journal endpoints already.  On a complete graph every row
        neighbours every seed, so a seed or a participant that left marks
        every row without a walk.
        """
        seed_positions = np.nonzero(seeds)[0]
        dirty = seeds
        dirty[endpoints] = True
        if seed_positions.size or left.size:
            if self._complete_graph():
                dirty[:] = True
            else:
                dirty[self._neighbor_positions(state, seed_positions, left)] = True
        return np.nonzero(dirty)[0]

    def _neighbor_positions(
        self, state: PlannerState, seed_positions: np.ndarray, left: np.ndarray
    ) -> np.ndarray:
        """Positions of the seeds' and the leavers' participating neighbours.

        The seeds' neighbours come from the CSR when the link model is the
        default one; the leavers', and every neighbour under a custom link
        model, from the graph.
        """
        walk = left.tolist()
        found = [np.empty(0, dtype=np.int64)]
        if seed_positions.size:
            if _uses_default_links(self.link_model):
                csr = self._live_csr()
                _, columns = csr.links_for(
                    self._participant_translation(state), seed_positions
                )
                found.append(columns)
            else:
                walk.extend(state.ids_array[seed_positions].tolist())
        if walk:
            graph = self.link_model.topology.graph
            neighbours = [
                neighbour
                for agent_id in walk
                if graph.has_node(agent_id)
                for neighbour in graph.neighbors(agent_id)
            ]
            found.append(self._positions_of(state, neighbours))
        return np.concatenate(found)

    # ------------------------------------------------------------------
    # Candidate selection + pruned block costing
    # ------------------------------------------------------------------
    def _topology_counts(self) -> tuple[int, int]:
        """(nodes, edges) of the topology — O(1) in the steady state.

        Served by the CSR engine when it is live, else cached against the
        topology's journal version (mutations made directly on the
        ``networkx`` graph bypass both, which is why they require
        :meth:`invalidate_all`).
        """
        if self._csr is not None and self._csr.built:
            return self._csr.counts()
        version = self.link_model.topology.version
        cached = self._counts_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        graph = self.link_model.topology.graph
        nodes = graph.number_of_nodes()
        edges = graph.number_of_edges()
        self._counts_cache = (version, nodes, edges)
        return nodes, edges

    def _complete_graph(self) -> bool:
        """Whether the topology is a complete graph on at least two nodes."""
        nodes, edges = self._topology_counts()
        return nodes >= 2 and edges == nodes * (nodes - 1) // 2

    def _live_csr(self) -> IncrementalCsr:
        """The incremental topology engine, built from the graph on first use."""
        if self._csr is None:
            csr = IncrementalCsr(self.link_model.topology, stats=self.stats)
            csr.rebuild()
            self._csr = csr
            self._translation = None
        return self._csr

    def _participant_translation(self, state: PlannerState) -> CsrTranslation:
        """Cached slot ↔ position translation for the current participants."""
        csr = self._csr
        translation = self._translation
        if (
            csr.translation_current(translation)
            and translation.ids == state.ids
        ):
            return translation
        translation = csr.translation(state.ids)
        self._translation = translation
        return translation

    def _candidate_rows(
        self,
        state: PlannerState,
        agents: list[Agent],
        access: np.ndarray,
        taus: np.ndarray,
        positions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-k fastest reachable peers of the given (ascending) positions.

        Returns flat ``(positions, candidate positions, bandwidths)``
        arrays grouped by ascending position with ascending candidate
        positions inside each group — the order the dense kernel's
        first-minimum argmin tie-breaking relies on.
        """
        k = state.k
        default_links = _uses_default_links(self.link_model)
        if default_links and self._complete_graph():
            # Complete graph: a neighbor structure would be O(n²); use the
            # shared pool instead (never builds the CSR).
            return _complete_graph_candidates(taus, access, positions, k)

        if default_links:
            csr = self._live_csr()
            translation = self._participant_translation(state)
            sel_rows, sel_cols = csr.links_for(
                translation, None if positions.size == len(agents) else positions
            )
            bandwidth = np.minimum(access[sel_rows], access[sel_cols])
        else:
            # Custom link-model semantics: query per ordered pair, but only
            # for the dirty rows' neighborhoods.
            graph = self.link_model.topology.graph
            position_of = {agent.agent_id: pos for pos, agent in enumerate(agents)}
            flat_rows: list[int] = []
            flat_cols: list[int] = []
            flat_bw: list[float] = []
            for row in positions.tolist():
                agent = agents[row]
                if not graph.has_node(agent.agent_id):
                    continue
                for neighbor in graph.neighbors(agent.agent_id):
                    col = position_of.get(neighbor)
                    if col is None:
                        continue
                    value = self.link_model.bandwidth(agent, agents[col])
                    if value > 0.0:
                        flat_rows.append(row)
                        flat_cols.append(col)
                        flat_bw.append(value)
            sel_rows = np.asarray(flat_rows, dtype=np.int64)
            sel_cols = np.asarray(flat_cols, dtype=np.int64)
            bandwidth = np.asarray(flat_bw, dtype=np.float64)
            if sel_rows.size:
                # graph.neighbors order is arbitrary; restore (row, col).
                order = np.lexsort((sel_cols, sel_rows))
                sel_rows = sel_rows[order]
                sel_cols = sel_cols[order]
                bandwidth = bandwidth[order]

        return _top_k_by_tau(sel_rows, sel_cols, bandwidth, taus, len(agents), k)

    def _recompute_rows(
        self,
        state: PlannerState,
        agents: list[Agent],
        vectors: AgentVectors,
        access: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Re-cost the rows of the given (ascending) positions.

        Each row's candidates are written back in the greedy scan's walk
        order (:func:`_store_scan_order`).
        """
        if positions.size == 0:
            self.stats.last_pairs_evaluated = 0
            return
        rows = state.row_of_pos[positions]
        state.scan_times[rows] = np.inf
        state.scan_rows[rows] = -1
        pos_flat, cols_flat, bw_flat = self._candidate_rows(
            state, agents, access, vectors.individual_times, positions
        )
        total = int(pos_flat.size)
        self.stats.last_pairs_evaluated = total * self.profile.num_options
        self.stats.pairs_evaluated += self.stats.last_pairs_evaluated
        if total == 0:
            return
        best_time, best_index = _pair_block_times(
            self.profile, vectors, pos_flat, cols_flat, bw_flat,
            self.latency_seconds,
        )
        _store_scan_order(
            state, pos_flat, cols_flat, bw_flat, best_time, best_index,
            self.profile.options_array,
        )

    # ------------------------------------------------------------------
    # Greedy scan (Algorithm 1's Pairing over the pruned blocks)
    # ------------------------------------------------------------------
    def _greedy_scan(
        self,
        state: PlannerState,
        taus: np.ndarray,
        order: np.ndarray,
        vectors: AgentVectors,
    ) -> PairingPlan:
        """Algorithm 1's greedy pairing over the pruned candidate blocks.

        Visits rows in ``order`` (positions by descending τ̂) and walks each
        row's candidates in scan order — ascending by (pair time,
        participant position) — so the first alive candidate *is* the
        row's first minimum, the dense tie-break.  The loop first tries
        scan column 0 through two precomputed column-0 lists and falls
        back to the full row walk when that fastest candidate was already
        claimed.  That fallback is the common case on random-k graphs: at
        50k agents with ``top_k = 8``, 20 975 of the 27 466 visited rows
        (76 %) found their first candidate claimed, against 5 312 of
        29 457 (18 %) on a ring.  The loop records rows and scan columns
        only; :meth:`_plan_columns` turns them into the plan's columns in
        one vectorized pass.
        """
        k = state.k
        infinity = float("inf")
        first_row = state.scan_rows[:, 0].tolist()
        first_time = state.scan_times[:, 0].tolist()
        scan_rows = state.scan_rows
        scan_times = state.scan_times
        alive = (state.pos_of_row >= 0).tolist()
        improvement = 1.0 - self.improvement_threshold
        # Per decision, in decision order: the slow row and the helper row
        # (-1 when training alone); per pair: the chosen scan column.
        slow_rows: list[int] = []
        fast_rows: list[int] = []
        pair_columns: list[int] = []

        for i, own_time in zip(
            state.row_of_pos[order].tolist(), taus[order].tolist()
        ):
            if not alive[i]:
                continue
            best_time = infinity
            best_column = -1
            j = first_row[i]
            if j >= 0:
                if alive[j]:
                    best_time = first_time[i]
                    best_column = 0
                else:
                    # Fastest candidate already claimed: walk the rest of
                    # the row's scan order.
                    row_rows = scan_rows[i].tolist()
                    row_times = scan_times[i].tolist()
                    for column in range(1, k):
                        j = row_rows[column]
                        if j < 0:
                            break
                        if alive[j]:
                            best_time = row_times[column]
                            best_column = column
                            break
            slow_rows.append(i)
            alive[i] = False
            if best_time < own_time * improvement:
                fast_rows.append(j)
                pair_columns.append(best_column)
                alive[j] = False
            else:
                fast_rows.append(-1)

        return self._plan_columns(
            state, taus, vectors, slow_rows, fast_rows, pair_columns
        )

    def _plan_columns(
        self,
        state: PlannerState,
        taus: np.ndarray,
        vectors: AgentVectors,
        slow_rows: list[int],
        fast_rows: list[int],
        pair_columns: list[int],
    ) -> PairingPlan:
        """The plan's columns from the scan's row lists.

        Solo rows carry their τ̂ as slow and pair time.  The pairs'
        estimates are a vectorized
        :func:`~repro.core.workload.estimate_offload_time`: every float is
        computed with the scalar oracle's exact operation order (same
        IEEE-754 results element for element), batched over the round's
        formed pairs instead of one oracle call per pair.  Chosen splits
        always offload (> 0 layers), so only the oracle's offloading branch
        is mirrored.
        """
        slow_row_all = np.asarray(slow_rows, dtype=np.int64)
        fast_row_all = np.asarray(fast_rows, dtype=np.int64)
        slow_all = state.pos_of_row[slow_row_all]
        count = len(slow_all)
        paired = fast_row_all >= 0
        fast_id = np.full(count, -1, dtype=np.int64)
        layers = np.zeros(count, dtype=np.int64)
        slow_time = taus[slow_all]
        fast_own_time = np.zeros(count)
        communication_time = np.zeros(count)
        fast_offload_time = np.zeros(count)
        pair_time = slow_time.copy()

        if pair_columns:
            profile = self.profile
            columns = np.asarray(pair_columns, dtype=np.int64)
            pair_rows = slow_row_all[paired]
            slow_idx = slow_all[paired]
            fast_idx = state.pos_of_row[fast_row_all[paired]]
            split_idx = state.scan_split[pair_rows, columns]
            bandwidth = state.scan_bw[pair_rows, columns]
            busy = taus[fast_idx]

            slow_batches = vectors.batches[slow_idx]
            slow_speed = vectors.slow_speed[slow_idx]
            fast_speed = vectors.throughput[fast_idx] / vectors.flops[slow_idx]
            slow_factor = profile.slow_time_array[split_idx]
            fast_factor = profile.fast_time_array[split_idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                pair_slow = np.where(
                    slow_factor > 0, slow_batches * slow_factor / slow_speed, 0.0
                )
                fast_offload = np.where(
                    fast_factor > 0, slow_batches * fast_factor / fast_speed, 0.0
                )
                intermediate_bytes = (
                    profile.intermediate_bytes_array[split_idx]
                    * vectors.batch_sizes[slow_idx]
                )
                communication = slow_batches * (
                    self.latency_seconds + intermediate_bytes / bandwidth
                ) + (2.0 * profile.offloaded_bytes_array[split_idx]) / bandwidth
                fast_chain = busy + communication + fast_offload
                pair_time[paired] = np.maximum(pair_slow, fast_chain)

            fast_id[paired] = state.ids_array[fast_idx]
            layers[paired] = profile.options_array[split_idx]
            slow_time[paired] = pair_slow
            fast_own_time[paired] = busy
            communication_time[paired] = communication
            fast_offload_time[paired] = fast_offload

        return PairingPlan(
            slow_id=state.ids_array[slow_all],
            fast_id=fast_id,
            offloaded_layers=layers,
            slow_time=slow_time,
            fast_own_time=fast_own_time,
            communication_time=communication_time,
            fast_offload_time=fast_offload_time,
            pair_time=pair_time,
        )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _headroom(rows: int) -> int:
    """Spare rows allocated past ``rows`` so arrivals append in place."""
    return max(64, rows // 8)


def _row_arrays(capacity: int, k: int) -> dict:
    """Padding-filled ``(capacity, k)`` scan arrays."""
    return {
        "scan_times": np.full((capacity, k), np.inf),
        "scan_rows": np.full((capacity, k), -1, dtype=np.int64),
        "scan_split": np.zeros((capacity, k), dtype=np.int64),
        "scan_bw": np.zeros((capacity, k)),
    }


def _fresh_state(
    ids: tuple[int, ...], ids_array: np.ndarray, k: int, sig: np.ndarray
) -> PlannerState:
    """A state whose row ``r`` is participant ``r``; every row re-costs."""
    n = len(ids)
    capacity = n + _headroom(n)
    pos_of_row = np.full(capacity, -1, dtype=np.int64)
    pos_of_row[:n] = np.arange(n)
    return PlannerState(
        ids=ids,
        ids_array=ids_array,
        k=k,
        sig=sig,
        row_of_pos=np.arange(n, dtype=np.int64),
        pos_of_row=pos_of_row,
        used=n,
        dead=0,
        **_row_arrays(capacity, k),
    )


def _compact(state: PlannerState, retained_rows: np.ndarray, arrivals: int) -> np.ndarray:
    """Drop tombstoned rows, leaving room for ``arrivals`` appended rows.

    Copies the live rows, in row order, to the front of new arrays sized
    with headroom, and remaps candidate rows.  A live row that lists a
    tombstoned row re-costs this plan, so that reference simply becomes
    −1.  Returns the new rows of ``retained_rows``.
    """
    live = np.nonzero(state.pos_of_row[: state.used] >= 0)[0]
    new_of_old = np.full(state.scan_times.shape[0] + 1, -1, dtype=np.int64)
    new_of_old[live] = np.arange(live.size)
    needed = int(live.size) + arrivals
    capacity = needed + _headroom(needed)
    arrays = _row_arrays(capacity, state.k)
    for name, array in arrays.items():
        array[: live.size] = getattr(state, name)[live]
    # Index -1 (padding) reads the table's extra last slot, which is -1.
    arrays["scan_rows"][: live.size] = new_of_old[arrays["scan_rows"][: live.size]]
    for name, array in arrays.items():
        setattr(state, name, array)
    state.pos_of_row = np.full(capacity, -1, dtype=np.int64)
    state.used = int(live.size)
    state.dead = 0
    return new_of_old[retained_rows]


def _journal_endpoints(events: list[tuple]) -> set[int]:
    """Every agent a topology journal event names (``IncrementalCsr.sync``'s set)."""
    affected: set[int] = set()
    for event in events:
        if event[0] == "remove_node":
            affected.add(event[1])
            affected.update(event[2])
        else:
            affected.update(event[1:])
    return affected


def _top_k_by_tau(
    sel_rows: np.ndarray,
    sel_cols: np.ndarray,
    bandwidth: np.ndarray,
    taus: np.ndarray,
    n: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop unusable links, then keep each row's ``k`` fastest candidates."""
    usable = bandwidth > 0.0
    if not usable.all():
        sel_rows = sel_rows[usable]
        sel_cols = sel_cols[usable]
        bandwidth = bandwidth[usable]
    if sel_rows.size == 0:
        return sel_rows, sel_cols, bandwidth

    counts = np.bincount(sel_rows, minlength=n)
    if counts.max() > k:
        # Rank each row's links by candidate τ̂, keeping the k fastest.
        # Sorting by the packed unique key ``row·n + tau_rank[col]``
        # equals a stable lexsort on (row, τ̂): tau_rank orders equal
        # τ̂ values by ascending position, the dense tie-break order.
        tau_rank = np.empty(n, dtype=np.int64)
        tau_rank[np.argsort(taus, kind="stable")] = np.arange(n)
        order = np.argsort(sel_rows * np.int64(n) + tau_rank[sel_cols])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranks = np.arange(sel_rows.size) - starts[sel_rows[order]]
        kept = order[ranks < k]
        # The pre-selection arrays were (row, col)-ascending, so sorting
        # the kept indices restores that order without a second lexsort.
        kept.sort()
        sel_rows = sel_rows[kept]
        sel_cols = sel_cols[kept]
        bandwidth = bandwidth[kept]
    return sel_rows, sel_cols, bandwidth


def _store_scan_order(
    state: PlannerState,
    pos_flat: np.ndarray,
    cols_flat: np.ndarray,
    bw_flat: np.ndarray,
    best_time: np.ndarray,
    best_index: np.ndarray,
    options_array: np.ndarray,
) -> None:
    """Write re-costed candidates into their rows in greedy scan order.

    ``pos_flat`` is grouped by ascending position with candidate positions
    ascending inside each group (the selection helpers guarantee it).  A
    candidate whose best split offloads nothing cannot pair, so it sorts
    last with time ``+inf``.  ``np.lexsort`` is stable, so equal times keep
    ascending candidate position — the dense kernel's first-minimum
    tie-break.
    """
    times = np.where(options_array[np.maximum(best_index, 0)] > 0, best_time, np.inf)
    order = np.lexsort((times, pos_flat))
    pos_sorted = pos_flat[order]
    times = times[order]
    counts = np.bincount(pos_sorted, minlength=len(state.row_of_pos))
    starts = np.cumsum(counts) - counts
    offsets = np.arange(pos_sorted.size) - starts[pos_sorted]
    rows = state.row_of_pos[pos_sorted]
    state.scan_times[rows, offsets] = times
    state.scan_rows[rows, offsets] = np.where(
        np.isfinite(times), state.row_of_pos[cols_flat[order]], -1
    )
    state.scan_split[rows, offsets] = best_index[order]
    state.scan_bw[rows, offsets] = bw_flat[order]


def _complete_graph_candidates(
    taus: np.ndarray, access: np.ndarray, positions: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate selection on a complete graph without materialising O(n²).

    Every connected agent reaches every other, so the k+1 fastest
    connected agents, ranked by (τ̂, position), form one pool that holds
    every row's top-k: a row outside the pool takes the pool's k fastest,
    and a pool member the other pool members.  That is exactly the
    per-row top-k the neighbour-list path computes, so rows cached here
    stay exact when the graph stops being complete.  Rows come out in
    ascending position, each with its candidates ascending.
    """
    connected = np.nonzero(access > 0.0)[0]
    pool = connected[np.argsort(taus[connected], kind="stable")[: k + 1]]
    rows = positions[access[positions] > 0.0]
    member = np.isin(rows, pool)
    shared = np.sort(pool[:k])
    sorted_pool = np.sort(pool)
    counts = np.where(member, sorted_pool.size - 1, shared.size)
    rows_flat = np.repeat(rows, counts)
    cols_flat = np.empty(rows_flat.size, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    outside = starts[~member]
    cols_flat[(outside[:, None] + np.arange(shared.size)).ravel()] = np.tile(
        shared, outside.size
    )
    # A member's candidates are the sorted pool without the member itself.
    inside = starts[member]
    pool_rows = np.broadcast_to(sorted_pool, (inside.size, sorted_pool.size))
    cols_flat[(inside[:, None] + np.arange(sorted_pool.size - 1)).ravel()] = (
        pool_rows[pool_rows != rows[member][:, None]]
    )
    return rows_flat, cols_flat, np.minimum(access[rows_flat], access[cols_flat])


def _pair_block_times(
    profile: SplitProfile,
    vectors: AgentVectors,
    rows: np.ndarray,
    cols: np.ndarray,
    bandwidths: np.ndarray,
    latency_seconds: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Best split time/index for each (slow=rows[p], fast=cols[p]) pair.

    Mirrors :class:`~repro.core.fastpath.PairCostModel`'s elementwise
    expressions exactly (same per-agent vectors, same operation order,
    strict-``<`` first-minimum split reduction), evaluated only on the
    pruned pair list instead of the full n × n slice — bit-identical
    times wherever both compute a pair.
    """
    batches = vectors.batches
    busy = vectors.individual_times[cols]
    fast_speed = vectors.throughput[cols] / vectors.flops[rows]
    total = len(rows)
    best_time = np.full(total, np.inf)
    best_index = np.full(total, -1, dtype=np.int64)
    slow_factors = profile.slow_time_array
    fast_factors = profile.fast_time_array
    intermediate = profile.intermediate_bytes_array
    offloaded = profile.offloaded_bytes_array
    with np.errstate(divide="ignore", invalid="ignore"):
        for index, option in enumerate(profile.offload_options):
            if option == 0:
                pair_time = np.maximum(vectors.solo_times[rows], busy)
            else:
                slow_factor = slow_factors[index]
                fast_factor = fast_factors[index]
                slow_time = (
                    batches * slow_factor / vectors.slow_speed
                    if slow_factor > 0
                    else np.zeros(len(batches))
                )
                fast_offload = (
                    (batches * fast_factor)[rows] / fast_speed
                    if fast_factor > 0
                    else np.zeros(total)
                )
                intermediate_bytes = (intermediate[index] * vectors.batch_sizes)[rows]
                communication = batches[rows] * (
                    latency_seconds + intermediate_bytes / bandwidths
                ) + (2.0 * offloaded[index]) / bandwidths
                fast_chain = (busy + communication) + fast_offload
                pair_time = np.maximum(slow_time[rows], fast_chain)
            better = pair_time < best_time
            best_time[better] = pair_time[better]
            best_index[better] = index
    return best_time, best_index
