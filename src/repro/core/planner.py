"""Scalable round planner: candidate pruning, sparse bandwidth, incremental replanning.

The dense :class:`~repro.core.fastpath.PairCostModel` kernel materialises
the full ``(slow × candidate × split)`` tensor — O(n²·s) time and memory —
which is exact and fast at paper scale (n ≈ 50) but hopeless at the
10k–1M-agent populations the campaign engine targets.  This module layers
three cooperating mechanisms on *top* of that kernel (never instead of it;
the dense path and the scalar oracle remain the correctness contract):

**Candidate pruning.**  For each slow agent the pair-time evaluation is
restricted to its ``top_k`` fastest reachable peers — a vectorized
rank-selection over the broadcast τ̂ vector gathered along the topology's
neighbor lists — so only a pruned ``(slow × k × split)`` block is ever
computed.  With ``k ≥ n − 1`` no candidate is dropped and the planner is
*decision-identical* to the dense kernel (Hypothesis-enforced in
``tests/test_planner.py``): every elementwise expression mirrors the exact
operation order of :func:`~repro.core.workload.estimate_offload_time`, the
split reduction uses strict-``<`` first-minimum tie-breaking, candidate
lists are kept ascending by participant position so the row argmin breaks
ties like the dense scan, and each formed pair's
:class:`~repro.core.workload.OffloadEstimate` is built from the same
elementwise mirror, reproducing the scalar oracle bit for bit.

**Sparse / blocked bandwidth.**  Adjacency and bandwidth are consumed as
neighbor lists (the topology graph's native structure, or the CSR
:class:`~repro.core.fastpath.SparseBandwidth` view) instead of the dense
``n × n`` :func:`~repro.core.fastpath.bandwidth_matrix`, so ring and
random-k topologies cost O(E), not O(n²).  Complete graphs — where a
neighbor list *is* O(n²) — short-circuit to a shared global top-(k+1)
candidate pool, keeping even full topologies at O(n·k).

**Incremental replanning.**  A :class:`PlannerState` persists each agent's
τ̂, speed signature, and pruned neighbor-block costs across rounds.  At
every plan the planner diffs cheap per-agent signatures (plus membership
and any explicit :meth:`PrunedPlanner.invalidate` calls driven by dynamics
events) and re-costs only the rows whose inputs actually changed: a dirty
agent invalidates its own row, its topology neighborhood (its τ̂ feeds
their candidate selection), and any cached row still referencing it.  A
round with ``d`` changed agents therefore evaluates O(d·k·s) pair times —
:class:`PlannerStats` counts them so tests can assert the bound.

Selection is one threshold: :class:`~repro.core.comdml.ComDML` builds the
planner with ``engage_threshold =``
:attr:`~repro.core.config.ComDMLConfig.planner_threshold`, and the
scheduler keeps the byte-identical dense path for every round the planner
does not engage.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.csr import CsrTranslation, IncrementalCsr
from repro.core.fastpath import (
    AgentVectors,
    _uses_default_links,
    agent_attrs,
    agent_vectors_from_attrs,
)
from repro.core.pairing import PairingDecision
from repro.core.profiling import SplitProfile
from repro.core.workload import OffloadEstimate
from repro.network.link import LinkModel
from repro.utils.validation import check_positive

__all__ = ["PlannerState", "PlannerStats", "PrunedPlanner"]


@contextmanager
def _gc_paused():
    """Pause generational GC over an allocation burst.

    The greedy scan builds one decision object pair per formed pair; at
    hundreds of thousands of agents those allocations trip gen-0
    collections every few hundred objects, and each collection re-scans a
    live heap that holds the whole population.  None of the objects built
    here are garbage, so the collections can only waste time — pause
    collection for the burst and restore the collector's prior state
    after (nothing is re-enabled for callers that run with GC off).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _fast_pair_decision(
    slow_id: int,
    fast_id: int,
    layers: int,
    slow_time: float,
    fast_own_time: float,
    communication: float,
    fast_offload: float,
    pair_time: float,
) -> PairingDecision:
    """Build one pair decision without the frozen-dataclass ``__init__``.

    ``PairingDecision`` and ``OffloadEstimate`` are frozen, so their
    generated ``__init__`` routes every field through
    ``object.__setattr__`` — measurably the planner's hottest call at
    scale (two objects per formed pair).  Filling the instance
    ``__dict__`` wholesale produces an identical object (same fields,
    equality, and hash; neither class defines ``__post_init__`` or
    ``__slots__``) at half the cost.  ``test_fast_decision_paths_match``
    pins the equivalence.
    """
    estimate = object.__new__(OffloadEstimate)
    estimate.__dict__.update(
        offloaded_layers=layers,
        slow_time=slow_time,
        fast_own_time=fast_own_time,
        communication_time=communication,
        fast_offload_time=fast_offload,
        pair_time=pair_time,
    )
    decision = object.__new__(PairingDecision)
    decision.__dict__.update(
        slow_id=slow_id,
        fast_id=fast_id,
        offloaded_layers=layers,
        estimate=estimate,
    )
    return decision


def _fast_solo_decision(agent_id: int, own_time: float) -> PairingDecision:
    """:func:`repro.core.pairing._solo_decision` on the fast build path."""
    estimate = object.__new__(OffloadEstimate)
    estimate.__dict__.update(
        offloaded_layers=0,
        slow_time=own_time,
        fast_own_time=0.0,
        communication_time=0.0,
        fast_offload_time=0.0,
        pair_time=own_time,
    )
    decision = object.__new__(PairingDecision)
    decision.__dict__.update(
        slow_id=agent_id, fast_id=None, offloaded_layers=0, estimate=estimate
    )
    return decision


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
    """Per-agent planning cache carried across rounds.

    All block arrays are ``(n, k)`` padded: absent candidates hold
    position/id ``-1``, time ``+inf``, and ``valid`` ``False``.  Candidate
    columns are ascending by participant position within each row, which
    is what keeps the greedy row argmin's first-minimum tie-breaking
    identical to the dense kernel's.

    ``sig`` is the ``(n, 5)`` per-agent signature matrix (cpu share,
    bandwidth, samples, batch size, local epochs as float64) the planner
    diffs vectorized each round.  The ``scan_*`` arrays are the greedy
    scan's per-row candidate walk order, maintained incrementally: each
    row's candidates sorted ascending by (pair time, candidate column) —
    ``scan_times`` the sorted times, ``scan_pos`` the candidate participant
    positions in that order (−1 past the last finite time), ``scan_cols``
    the original candidate columns.  Only recomputed rows re-sort.
    """

    ids: tuple[int, ...]
    ids_array: np.ndarray
    k: int
    sig: np.ndarray
    taus: np.ndarray
    cand_pos: np.ndarray
    cand_ids: np.ndarray
    cand_bw: np.ndarray
    best_times: np.ndarray
    best_split: np.ndarray
    valid: np.ndarray
    scan_times: np.ndarray
    scan_pos: np.ndarray
    scan_cols: np.ndarray


class PrunedPlanner:
    """Top-k pruned, sparse-bandwidth, incrementally replanning scheduler core.

    The one production planner: :class:`~repro.core.comdml.ComDML` always
    builds it, from ``ComDMLConfig.planner_top_k`` and
    ``ComDMLConfig.planner_threshold``, and the scheduler asks
    :meth:`engages` every round.  Rounds below the threshold run the dense
    kernel instead; ``planner_threshold=1`` plans every round here.

    Parameters
    ----------
    profile:
        Split profile of the architecture being trained.
    link_model:
        Source of adjacency and pairwise bandwidths.
    top_k:
        Candidate budget per slow agent.  ``k ≥ n − 1`` makes the planner
        decision-identical to the dense kernel.
    engage_threshold:
        Population size at or above which :meth:`engages` returns true;
        ``None`` engages at any size.
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
        engage_threshold: Optional[int] = None,
        batch_size: Optional[int] = None,
        improvement_threshold: float = 0.0,
    ) -> None:
        check_positive(top_k, "top_k")
        if engage_threshold is not None:
            check_positive(engage_threshold, "engage_threshold")
        if batch_size is not None:
            check_positive(batch_size, "batch_size")
        self.profile = profile
        self.link_model = link_model
        self.top_k = top_k
        self.engage_threshold = engage_threshold
        self.batch_size = batch_size
        self.improvement_threshold = improvement_threshold
        self.latency_seconds = link_model.latency_seconds
        self.stats = PlannerStats()
        self.state: Optional[PlannerState] = None
        self._pending_dirty: set[int] = set()
        self._pending_all = False
        #: Set when the CSR had to rebuild from the graph (journal lost) —
        #: every row must re-cost even though signatures were kept.
        self._pending_all_rows = False
        #: Incremental topology engine (built lazily on the first plan
        #: that takes the CSR path) and its cached participant translation.
        self._csr: Optional[IncrementalCsr] = None
        self._translation: Optional[CsrTranslation] = None
        #: (topology version, nodes, edges) — caches the complete-graph
        #: check when the CSR engine is not engaged.
        self._counts_cache: Optional[tuple[int, int, int]] = None
        #: (ids tuple, sorted ids, argsort order) — id → row lookup cache.
        self._ids_sort_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Selection / invalidation API
    # ------------------------------------------------------------------
    def engages(self, population: int) -> bool:
        """Whether the pruned planner should plan a round of this size."""
        if self.engage_threshold is None:
            return True
        return population >= self.engage_threshold

    def invalidate(self, agent_ids: Sequence[int]) -> None:
        """Mark agents dirty (profile-level state changed).

        The planner also diffs per-agent signatures on every plan, so churn
        that changes a profile value is caught without this call.  Profile
        invalidation deliberately keeps the cached CSR topology structure —
        wiring changes go through :meth:`invalidate_topology` (driven by
        the topology's edge-delta journal) or :meth:`invalidate_all`.
        """
        self._pending_dirty.update(int(agent_id) for agent_id in agent_ids)

    def invalidate_topology(self, agent_ids: Sequence[int] = ()) -> None:
        """Mark a wiring change: agents arrived, departed, or rewired.

        The CSR structure is patched **eagerly** here with O(Δ) edits from
        the topology's edge-delta journal — off the plan's critical path,
        so dynamics invalidation overlaps the round gap instead of
        serialising into the next plan.  Rows of every affected agent (the
        explicit ids plus every endpoint the journal names) re-cost at the
        next plan.  Every plan also drains the journal itself
        (:meth:`_sync_topology`), so this call is an optimisation, not a
        correctness requirement, for mutations made through the
        :class:`~repro.network.topology.Topology` API.
        """
        self._pending_dirty.update(int(agent_id) for agent_id in agent_ids)
        self._sync_topology()

    def _sync_topology(self) -> None:
        """Drain the topology journal into the CSR (O(Δ) edits)."""
        if self._csr is None or not self._csr.built:
            return
        if self.link_model.topology.version == self._csr.cursor:
            return
        affected = self._csr.sync()
        if affected is None:
            self._pending_all_rows = True
        else:
            self._pending_dirty.update(affected)

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
    def plan(
        self, participants: Sequence[Agent]
    ) -> tuple[list[PairingDecision], dict[int, float]]:
        """Plan one round; returns (decisions, broadcast τ̂ list by id)."""
        agents = list(participants)
        n = len(agents)
        if n == 0:
            return [], {}
        with _gc_paused():
            return self._plan_body(agents, n)

    def _plan_body(
        self, agents: list[Agent], n: int
    ) -> tuple[list[PairingDecision], dict[int, float]]:
        """:meth:`plan` body, under the GC pause (see :func:`_gc_paused`)."""
        self._sync_topology()
        attrs = agent_attrs(agents)
        vectors = agent_vectors_from_attrs(attrs, self.profile, self.batch_size)
        taus = vectors.individual_times
        sig = attrs.signature_matrix()
        access = attrs.access_bandwidth()
        ids = tuple(agent.agent_id for agent in agents)
        ids_array = np.fromiter(ids, dtype=np.int64, count=n)
        k = min(self.top_k, max(n - 1, 0))

        state, dirty_rows = self._realign(agents, ids, ids_array, sig, taus, k)
        self._recompute_rows(state, agents, vectors, access, ids_array, dirty_rows)
        self._refresh_scan_rows(state, dirty_rows)
        taus_by_id = dict(zip(ids, taus.tolist()))
        # Stable argsort on -τ̂ = descending τ̂ with ties in first-seen
        # order, exactly like the dense scheduler's stable reverse sort.
        order = np.argsort(-taus, kind="stable")

        dirty_count = int(dirty_rows.size)
        self.stats.rounds += 1
        self.stats.last_rows_recomputed = dirty_count
        self.stats.last_rows_reused = n - dirty_count
        self.stats.rows_recomputed += dirty_count
        self.stats.rows_reused += n - dirty_count
        if dirty_count == n:
            self.stats.full_rebuilds += 1

        decisions = self._greedy_scan(state, ids, taus, order, vectors, agents)
        return decisions, taus_by_id

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _realign(
        self,
        agents: list[Agent],
        ids: tuple[int, ...],
        ids_array: np.ndarray,
        sig: np.ndarray,
        taus: np.ndarray,
        k: int,
    ) -> tuple[PlannerState, np.ndarray]:
        """Carry the cache over to this round's participants; find dirty rows.

        Returns the (possibly in-place updated) state and the ascending
        dirty-row array.  When the participant tuple is unchanged the
        previous state's block arrays are reused **in place** — no copies
        — and the dirty set is found by a vectorized signature-matrix
        diff.  Membership changes take the remap path below.
        """
        n = len(agents)
        previous = self.state
        all_rows = self._pending_all or previous is None or previous.k != k
        if not all_rows and self._pending_all_rows:
            # CSR rebuilt from the graph (journal truncated): every row
            # re-costs, so a fresh state is equivalent and simpler.
            all_rows = True
        if all_rows:
            self._pending_all = False
            self._pending_all_rows = False
            self._pending_dirty.clear()
            state = _empty_state(ids, ids_array, k, sig, taus)
            self.state = state
            return state, np.arange(n, dtype=np.int64)

        # Map this round's pending-dirty ids to rows (ids in the round are
        # consumed; ids still in the topology stay pending; gone-for-good
        # ids are dropped so the set stays bounded).
        pending_rows = np.empty(0, dtype=np.int64)
        if self._pending_dirty:
            sorted_ids, sort_order = self._sorted_ids(ids, ids_array)
            pend = np.fromiter(
                self._pending_dirty, dtype=np.int64, count=len(self._pending_dirty)
            )
            pos = np.searchsorted(sorted_ids, pend)
            pos = np.minimum(pos, n - 1)
            found = sorted_ids[pos] == pend
            pending_rows = sort_order[pos[found]]
            graph = self.link_model.topology.graph
            self._pending_dirty = {
                int(agent_id)
                for agent_id in pend[~found].tolist()
                if graph.has_node(agent_id)
            }

        if ids == previous.ids:
            state = previous
            state.sig, old_sig = sig, state.sig
            state.taus = taus
            dirty_mask = (sig != old_sig).any(axis=1)
            if pending_rows.size:
                dirty_mask[pending_rows] = True
            if not dirty_mask.any():
                return state, np.empty(0, dtype=np.int64)
            dirty_mask = self._dirty_closure(
                state, ids_array, dirty_mask, np.empty(0, dtype=np.int64)
            )
            return state, np.nonzero(dirty_mask)[0]

        # Membership or order changed: pull retained rows over and remap
        # cached candidate (and scan) positions old → new.
        state = _empty_state(ids, ids_array, k, sig, taus)
        n_prev = len(previous.ids)
        prev_sorted = np.sort(previous.ids_array)
        prev_order = np.argsort(previous.ids_array, kind="stable")
        pos = np.minimum(np.searchsorted(prev_sorted, ids_array), n_prev - 1)
        retained = prev_sorted[pos] == ids_array
        old_rows = np.where(retained, prev_order[pos], -1)
        for name in ("cand_pos", "cand_ids", "cand_bw", "best_times",
                     "best_split", "valid", "scan_times", "scan_pos",
                     "scan_cols"):
            getattr(state, name)[retained] = getattr(previous, name)[
                old_rows[retained]
            ]
        new_pos_of_old = np.full(n_prev, -1, dtype=np.int64)
        new_pos_of_old[old_rows[retained]] = np.nonzero(retained)[0]
        for name in ("cand_pos", "scan_pos"):
            positions = getattr(state, name)
            remappable = positions >= 0
            positions[remappable] = new_pos_of_old[positions[remappable]]
        stale = (state.cand_pos < 0) & state.valid
        state.valid[stale] = False
        state.best_times[stale] = np.inf

        dirty_mask = ~retained
        if retained.any():
            kept = np.nonzero(retained)[0]
            changed = (sig[kept] != previous.sig[old_rows[kept]]).any(axis=1)
            dirty_mask[kept[changed]] = True
        if pending_rows.size:
            dirty_mask[pending_rows] = True
        departed_mask = np.ones(n_prev, dtype=bool)
        departed_mask[old_rows[retained]] = False
        departed = previous.ids_array[departed_mask]

        dirty_mask = self._dirty_closure(state, ids_array, dirty_mask, departed)
        self.state = state
        return state, np.nonzero(dirty_mask)[0]

    def _sorted_ids(
        self, ids: tuple[int, ...], ids_array: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached (sorted ids, argsort order) for id → row lookups."""
        cached = getattr(self, "_ids_sort_cache", None)
        if cached is not None and cached[0] == ids:
            return cached[1], cached[2]
        order = np.argsort(ids_array, kind="stable")
        sorted_ids = ids_array[order]
        self._ids_sort_cache = (ids, sorted_ids, order)
        return sorted_ids, order

    def _dirty_closure(
        self,
        state: PlannerState,
        ids_array: np.ndarray,
        dirty_mask: np.ndarray,
        departed: np.ndarray,
    ) -> np.ndarray:
        """Expand dirty rows to their full invalidation closure.

        A dirty agent invalidates its own row, its topology neighborhood
        (its τ̂ feeds their candidate selection), and any cached row still
        referencing it or a departed id (covers candidates that are no
        longer reachable).
        """
        dirty_rows = np.nonzero(dirty_mask)[0]
        if dirty_rows.size == 0 and departed.size == 0:
            return dirty_mask
        if self._complete_graph():
            # Every participant neighbours every row, so the walk below
            # would visit n neighbours per id only to mark every row.  With
            # default links every row's candidates also come from one pool
            # shared by all participants, which any dirty or departed agent
            # can change, even one already removed from the graph.
            dirty_mask[:] = True
            return dirty_mask
        # The referencing check below keys on the *seed* dirty ids — the
        # agents whose own inputs changed.  Rows referencing a mere
        # neighbor of a dirty agent stay clean: the neighbor's τ̂ did not
        # move, so every cached pair time involving it is still exact.
        affected = ids_array[dirty_rows]
        if departed.size:
            affected = np.concatenate([affected, departed])

        # Neighbor expansion of current dirty rows: through the CSR when
        # the engine is live (vectorized), through the graph otherwise.
        if dirty_rows.size:
            csr = self._csr
            if csr is not None and csr.built:
                translation = self._participant_translation(state)
                _, neighbor_cols = csr.links_for(translation, dirty_rows)
                dirty_mask[neighbor_cols] = True
            else:
                graph = self.link_model.topology.graph
                row_lookup = self._row_lookup(state, ids_array)
                for agent_id in ids_array[dirty_rows].tolist():
                    if graph.has_node(agent_id):
                        for neighbor in graph.neighbors(agent_id):
                            row = row_lookup(neighbor)
                            if row is not None:
                                dirty_mask[row] = True
        if departed.size:
            graph = self.link_model.topology.graph
            row_lookup = self._row_lookup(state, ids_array)
            for agent_id in departed.tolist():
                if graph.has_node(agent_id):
                    for neighbor in graph.neighbors(agent_id):
                        row = row_lookup(neighbor)
                        if row is not None:
                            dirty_mask[row] = True

        # Rows still referencing a dirty or departed id in their cached
        # candidate lists (belt for invalidations the neighbor expansion
        # cannot see, e.g. a departed candidate two hops away).
        if affected.size and state.cand_ids.size:
            max_id = int(affected.max())
            if int(affected.min()) >= 0 and max_id <= 4 * len(ids_array) + 65_536:
                # Bool-table membership beats np.isin by ~4× at 500k rows;
                # ids outside [0, max_id] map to slot 0 (never marked).
                table = np.zeros(max_id + 2, dtype=bool)
                table[affected + 1] = True
                cand = state.cand_ids
                safe = np.where((cand >= 0) & (cand <= max_id), cand + 1, 0)
                referencing = table[safe].any(axis=1)
            else:
                referencing = np.isin(state.cand_ids, affected).any(axis=1)
            dirty_mask |= referencing
        return dirty_mask

    def _row_lookup(self, state: PlannerState, ids_array: np.ndarray):
        """O(1) agent-id → row lookup callable (``None`` when absent)."""
        sorted_ids, order = self._sorted_ids(state.ids, ids_array)
        n = len(ids_array)

        def lookup(agent_id: int) -> Optional[int]:
            pos = int(np.searchsorted(sorted_ids, agent_id))
            if pos < n and sorted_ids[pos] == agent_id:
                return int(order[pos])
            return None

        return lookup

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

    def _make_csr(self) -> IncrementalCsr:
        """Construct (and fully build) the incremental topology engine."""
        csr = IncrementalCsr(self.link_model.topology, stats=self.stats)
        csr.rebuild()
        return csr

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
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-k fastest reachable peers of the given (ascending) rows.

        Returns flat ``(rows, candidate positions, bandwidths)`` arrays
        grouped by ascending row with ascending candidate positions inside
        each group — the order the dense kernel's first-minimum argmin
        tie-breaking relies on.
        """
        taus = state.taus
        k = state.k
        default_links = _uses_default_links(self.link_model)
        if default_links and self._complete_graph():
            # Complete graph: a neighbor structure would be O(n²); use the
            # shared global top-(k+1) pool instead (never builds the CSR).
            return _complete_graph_candidates(taus, access, rows, k)

        if default_links:
            if self._csr is None:
                self._csr = self._make_csr()
                self._translation = None
            translation = self._participant_translation(state)
            sel_rows, sel_cols = self._csr.links_for(
                translation, None if rows.size == len(agents) else rows
            )
            bandwidth = np.minimum(access[sel_rows], access[sel_cols])
        else:
            # Custom link-model semantics: query per ordered pair, but only
            # for the dirty rows' neighborhoods.
            graph = self.link_model.topology.graph
            row_of = {agent.agent_id: row for row, agent in enumerate(agents)}
            flat_rows: list[int] = []
            flat_cols: list[int] = []
            flat_bw: list[float] = []
            for row in rows.tolist():
                agent = agents[row]
                if not graph.has_node(agent.agent_id):
                    continue
                for neighbor in graph.neighbors(agent.agent_id):
                    col = row_of.get(neighbor)
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
        ids_array: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Re-cost the pruned (slow × k × split) blocks of the given rows."""
        if rows.size == 0:
            self.stats.last_pairs_evaluated = 0
            return
        rows_flat, cols_flat, bw_flat = self._candidate_rows(
            state, agents, access, rows
        )
        _reset_rows(state, rows)

        total = int(rows_flat.size)
        self.stats.last_pairs_evaluated = total * self.profile.num_options
        self.stats.pairs_evaluated += self.stats.last_pairs_evaluated
        if total == 0:
            return
        best_time, best_index = _pair_block_times(
            self.profile, vectors, rows_flat, cols_flat, bw_flat,
            self.latency_seconds,
        )
        _scatter_rows(
            state, rows_flat, cols_flat, bw_flat, best_time, best_index,
            ids_array, self.profile.options_array, len(agents),
        )

    def _refresh_scan_rows(self, state: PlannerState, rows: np.ndarray) -> None:
        """Re-sort the greedy scan arrays of the recomputed rows only."""
        if rows.size == 0 or state.k == 0:
            return
        if rows.size == len(state.ids):
            times = np.where(state.valid, state.best_times, np.inf)
            order = np.argsort(times, axis=1, kind="stable")
            sorted_times = np.take_along_axis(times, order, axis=1)
            positions = np.take_along_axis(state.cand_pos, order, axis=1)
            positions[~np.isfinite(sorted_times)] = -1
            state.scan_times[...] = sorted_times
            state.scan_cols[...] = order
            state.scan_pos[...] = positions
            return
        times = np.where(state.valid[rows], state.best_times[rows], np.inf)
        order = np.argsort(times, axis=1, kind="stable")
        sorted_times = np.take_along_axis(times, order, axis=1)
        positions = np.take_along_axis(state.cand_pos[rows], order, axis=1)
        positions[~np.isfinite(sorted_times)] = -1
        state.scan_times[rows] = sorted_times
        state.scan_cols[rows] = order
        state.scan_pos[rows] = positions

    # ------------------------------------------------------------------
    # Greedy scan (Algorithm 1's Pairing over the pruned blocks)
    # ------------------------------------------------------------------
    def _greedy_scan(
        self,
        state: PlannerState,
        ids: tuple[int, ...],
        taus: np.ndarray,
        order: np.ndarray,
        vectors: AgentVectors,
        agents: list[Agent],
    ) -> list[PairingDecision]:
        """Algorithm 1's greedy pairing over the pruned candidate blocks.

        Walks the precomputed per-row scan order (``scan_*`` arrays, kept
        incrementally by :meth:`_refresh_scan_rows`): each row's candidates
        ascending by (pair time, candidate column), so the first alive
        candidate *is* the row's first minimum — the dense tie-break.  The
        vast majority of rows resolve at scan column 0 (their fastest
        candidate is still alive), so the loop touches three precomputed
        column-0 lists and falls back to the full row walk only when the
        fastest candidate was already claimed.  The chosen pairs'
        :class:`~repro.core.workload.OffloadEstimate`s are then built in
        one vectorized batch mirroring the scalar oracle.
        """
        n = len(ids)
        k = state.k
        taus_list = taus.tolist()
        infinity = float("inf")
        if k:
            first_pos = state.scan_pos[:, 0].tolist()
            first_time = state.scan_times[:, 0].tolist()
            first_col = state.scan_cols[:, 0].tolist()
        else:
            first_pos = [-1] * n
            first_time = [infinity] * n
            first_col = [0] * n
        scan_pos = state.scan_pos
        scan_times = state.scan_times
        scan_cols = state.scan_cols
        alive = [True] * n
        improvement = 1.0 - self.improvement_threshold
        decisions: list[Optional[PairingDecision]] = []
        chosen_slow: list[int] = []
        chosen_col: list[int] = []
        chosen_fast: list[int] = []

        for i in order.tolist():
            if not alive[i]:
                continue
            own_time = taus_list[i]
            best_time = infinity
            best_column = -1
            j = first_pos[i]
            if j >= 0:
                if alive[j]:
                    best_time = first_time[i]
                    best_column = first_col[i]
                else:
                    # Fastest candidate already claimed: walk the rest of
                    # the row's scan order (rare, so the per-row tolist is
                    # cheaper than materialising all rows up front).
                    pos_row = scan_pos[i].tolist()
                    time_row = scan_times[i].tolist()
                    for column in range(1, k):
                        j = pos_row[column]
                        if j < 0:
                            break
                        if alive[j]:
                            best_time = time_row[column]
                            best_column = int(scan_cols[i, column])
                            break
            if best_time < own_time * improvement:
                decisions.append(None)
                chosen_slow.append(i)
                chosen_col.append(best_column)
                chosen_fast.append(j)
                alive[i] = False
                alive[j] = False
            else:
                decisions.append(_fast_solo_decision(ids[i], own_time))
                alive[i] = False

        if chosen_slow:
            pair_decisions = iter(
                self._pair_decisions(
                    state, agents, vectors, taus, chosen_slow, chosen_col, chosen_fast
                )
            )
            for index, decision in enumerate(decisions):
                if decision is None:
                    decisions[index] = next(pair_decisions)
        return decisions

    def _pair_decisions(
        self,
        state: PlannerState,
        agents: list[Agent],
        vectors: AgentVectors,
        taus: np.ndarray,
        slow: list[int],
        columns: list[int],
        fast: list[int],
    ) -> list[PairingDecision]:
        """Vectorized :func:`~repro.core.workload.estimate_offload_time`.

        Computes every float with the scalar oracle's exact operation
        order (same IEEE-754 results element for element), batched over
        the round's formed pairs instead of one oracle call per pair.
        Chosen splits always offload (> 0 layers), so only the oracle's
        offloading branch is mirrored.
        """
        profile = self.profile
        slow_idx = np.asarray(slow, dtype=np.int64)
        col_idx = np.asarray(columns, dtype=np.int64)
        fast_idx = np.asarray(fast, dtype=np.int64)
        split_idx = state.best_split[slow_idx, col_idx]
        layers = profile.options_array[split_idx]
        bandwidth = state.cand_bw[slow_idx, col_idx]
        busy = taus[fast_idx]

        slow_batches = vectors.batches[slow_idx]
        slow_speed = vectors.slow_speed[slow_idx]
        fast_speed = vectors.throughput[fast_idx] / vectors.flops[slow_idx]
        slow_factor = profile.slow_time_array[split_idx]
        fast_factor = profile.fast_time_array[split_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            slow_time = np.where(
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
            pair_time = np.maximum(slow_time, fast_chain)

        # tolist() once: Python-float lists index an order of magnitude
        # faster than element-wise numpy access in the build loop below.
        return [
            _fast_pair_decision(
                agents[i].agent_id, agents[j].agent_id, m, st, own, comm, fo, pt
            )
            for i, j, m, st, own, comm, fo, pt in zip(
                slow,
                fast,
                layers.tolist(),
                slow_time.tolist(),
                busy.tolist(),
                communication.tolist(),
                fast_offload.tolist(),
                pair_time.tolist(),
            )
        ]


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _empty_state(
    ids: tuple[int, ...],
    ids_array: np.ndarray,
    k: int,
    sig: np.ndarray,
    taus: np.ndarray,
) -> PlannerState:
    n = len(ids)
    return PlannerState(
        ids=ids,
        ids_array=ids_array,
        k=k,
        sig=sig,
        taus=taus,
        cand_pos=np.full((n, k), -1, dtype=np.int64),
        cand_ids=np.full((n, k), -1, dtype=np.int64),
        cand_bw=np.zeros((n, k), dtype=np.float64),
        best_times=np.full((n, k), np.inf),
        best_split=np.full((n, k), -1, dtype=np.int64),
        valid=np.zeros((n, k), dtype=bool),
        scan_times=np.full((n, k), np.inf),
        scan_pos=np.full((n, k), -1, dtype=np.int64),
        scan_cols=np.zeros((n, k), dtype=np.int64),
    )


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


def _reset_rows(state: PlannerState, rows_array: np.ndarray) -> None:
    """Reset the given rows to candidate-block padding."""
    state.cand_pos[rows_array] = -1
    state.cand_ids[rows_array] = -1
    state.cand_bw[rows_array] = 0.0
    state.best_times[rows_array] = np.inf
    state.best_split[rows_array] = -1
    state.valid[rows_array] = False


def _scatter_rows(
    state: PlannerState,
    rows_flat: np.ndarray,
    cols_flat: np.ndarray,
    bw_flat: np.ndarray,
    best_time: np.ndarray,
    best_index: np.ndarray,
    ids_array: np.ndarray,
    options_array: np.ndarray,
    n: int,
) -> None:
    """Scatter flat per-pair results into the ``(n, k)`` block arrays.

    ``rows_flat`` must be grouped by ascending row (the selection helpers
    guarantee it); each entry lands at its offset within its row group.
    """
    total = int(rows_flat.size)
    # Column offset of each entry within its row group.
    counts = np.bincount(rows_flat, minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total) - starts[rows_flat]
    valid_flat = options_array[np.maximum(best_index, 0)] > 0
    state.cand_pos[rows_flat, offsets] = cols_flat
    state.cand_ids[rows_flat, offsets] = ids_array[cols_flat]
    state.cand_bw[rows_flat, offsets] = bw_flat
    state.best_times[rows_flat, offsets] = best_time
    state.best_split[rows_flat, offsets] = best_index
    state.valid[rows_flat, offsets] = valid_flat


def _complete_graph_candidates(
    taus: np.ndarray, access: np.ndarray, rows: list[int], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate selection on a complete graph without materialising O(n²).

    Every connected agent can reach every other, so the per-row top-k
    reduces to one shared global pool: the k+1 connected agents with the
    smallest τ̂ (one extra so each row can drop itself).  Rows outside the
    pool share the same k candidates (vectorized broadcast); the at most
    k+1 pool members each drop themselves (tiny Python loop).
    """
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0),
    )
    pool = np.nonzero(access > 0.0)[0]
    if pool.size == 0:
        return empty
    if pool.size > k + 1:
        keep = np.argpartition(taus[pool], k)[: k + 1]
        pool = pool[keep]
    pool = np.sort(pool)
    rows_array = np.asarray(rows, dtype=np.int64)
    connected = access[rows_array] > 0.0
    slot = np.searchsorted(pool, rows_array)
    in_pool = (slot < pool.size) & (pool[np.minimum(slot, pool.size - 1)] == rows_array)

    shared = pool[: min(k, pool.size)]
    outside = rows_array[connected & ~in_pool]
    rows_flat = np.repeat(outside, shared.size)
    cols_flat = np.tile(shared, outside.size)

    member_rows = rows_array[connected & in_pool]
    if member_rows.size:
        member_cols = [pool[pool != row][:k] for row in member_rows]
        rows_flat = np.concatenate(
            [rows_flat]
            + [
                np.full(len(cols), row, dtype=np.int64)
                for row, cols in zip(member_rows, member_cols)
            ]
        )
        cols_flat = np.concatenate([cols_flat] + member_cols)
    if rows_flat.size == 0:
        return empty
    order = np.lexsort((cols_flat, rows_flat))
    rows_flat = rows_flat[order]
    cols_flat = cols_flat[order]
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
