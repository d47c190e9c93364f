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

**Sparse / blocked bandwidth.**  Adjacency is consumed as neighbor lists
(the topology's CSR, :meth:`~repro.network.topology.Topology.links_for`)
instead of the dense ``n × n``
:func:`~repro.core.fastpath.bandwidth_matrix`, and a
pair's bandwidth is the slower of its two access links, so ring and
random-k topologies cost O(E), not O(n²).  Complete graphs — where a
neighbor list *is* O(n²) — short-circuit to a shared pool of the k+1
fastest reachable agents, which holds every row's top-k, keeping even
full topologies at O(n·k).

**Incremental replanning.**  A :class:`PlannerState` keeps each
participant's pruned candidate block in a row across rounds.  A row's
block depends on its own profile, its neighbour set and its neighbours'
profiles, so each plan re-costs a row only when one of those changed:

* a *profile seed* — a participant whose signature changed, an id passed
  to :meth:`PrunedPlanner.invalidate`, or a participant new this round —
  re-costs its own row and its neighbours' rows;
* a *touched node* — an agent whose links the topology changed since the
  last plan (its per-node stamps say which), or an id passed to
  :meth:`PrunedPlanner.invalidate_topology` — re-costs its own row only,
  and so does a participant that joined or left the topology;
* a participant that left the round re-costs the rows that list it: its
  topology neighbours if it only left the sample, the touched nodes if
  it left the topology.

Every plan reads the topology's changes itself, through
:class:`~repro.core.csr.IncrementalCsr`, so wiring changes need no call.
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
from typing import Optional, Sequence

import numpy as np

from repro.agents.agent import Agent
from repro.core.csr import IncrementalCsr
from repro.core.fastpath import AgentVectors, agent_attrs, agent_vectors_from_attrs
from repro.core.pairing import PairingPlan
from repro.core.profiling import SplitProfile
from repro.network.link import LinkModel
from repro.sim.costs import DEFAULT_LINK_LATENCY_SECONDS
from repro.utils.validation import check_positive

__all__ = ["PlannerState", "PlannerStats", "PrunedPlanner", "greedy_scan"]

#: Tombstoned rows, as a fraction of the rows handed out, past which the
#: next membership change compacts the state (the topology's fraction too).
_COMPACT_FRACTION = 0.25

#: Row count under which tombstones never trigger a compaction.
_COMPACT_FLOOR = 256

#: A matching round of :func:`greedy_scan` that commits fewer pairs than
#: this hands the rest of the scan to one sequential pass.  Rounds alone
#: are exact too, but their number is the input's dependency depth, which
#: is large where every slow agent wants the same helpers: the
#: 100-participant rounds of a 500-agent Table III cell (``k = n − 1``)
#: took 37–46 rounds of about one pair each, four times as long as the
#: sequential pass.  A 20 000-agent ring commits thousands of pairs in its
#: first round.
_MIN_ROUND_PAIRS = 64


@dataclass
class PlannerStats:
    """Operation counters of a :class:`PrunedPlanner` (for tests and reports).

    ``pairs_evaluated`` counts (slow, candidate, split) cost evaluations —
    the quantity the incremental-replanning bound O(d·k·s) is stated in.
    ``scan_rounds`` counts the greedy scan's matching rounds
    (:func:`greedy_scan`).
    """

    rounds: int = 0
    full_rebuilds: int = 0
    rows_recomputed: int = 0
    rows_reused: int = 0
    pairs_evaluated: int = 0
    scan_rounds: int = 0
    last_rows_recomputed: int = 0
    last_rows_reused: int = 0
    last_pairs_evaluated: int = 0
    last_scan_rounds: int = 0

    def report(self) -> dict:
        """Plain-dict view (campaign ``execution_report`` serialisation)."""
        return {
            "rounds": self.rounds,
            "full_rebuilds": self.full_rebuilds,
            "rows_recomputed": self.rows_recomputed,
            "rows_reused": self.rows_reused,
            "pairs_evaluated": self.pairs_evaluated,
            "scan_rounds": self.scan_rounds,
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
    the pair bandwidth.  ``scan_count`` is the number of candidates the
    scan may walk in each row: its columns before the first row −1 (a
    compaction can leave a −1 ahead of the padding; see :func:`_compact`).
    ``ids``, ``ids_array``, the ``(n, 5)`` signature matrix ``sig`` (cpu
    share, bandwidth, samples, batch size, local epochs as float64) and
    ``member`` (whether each participant is a topology node) are this
    round's, by position; the next plan diffs against them.
    """

    ids: tuple[int, ...]
    ids_array: np.ndarray
    k: int
    sig: np.ndarray
    member: np.ndarray
    row_of_pos: np.ndarray
    pos_of_row: np.ndarray
    used: int
    dead: int
    scan_times: np.ndarray
    scan_rows: np.ndarray
    scan_split: np.ndarray
    scan_bw: np.ndarray
    scan_count: np.ndarray


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
        Source of the topology.  A pair's bandwidth is the slower of the
        two access links, as in :class:`~repro.network.link.LinkModel`.
    top_k:
        Candidate budget per slow agent in rounds of at least
        ``prune_threshold`` participants.  ``k ≥ n − 1`` makes the planner
        decision-identical to the dense kernel.
    prune_threshold:
        Participant count at or above which each row keeps only ``top_k``
        candidates; a smaller round keeps every candidate (``k = n − 1``).
        ``None`` prunes at every size.  A round whose budget differs from
        the previous round's starts a fresh state.
    """

    def __init__(
        self,
        profile: SplitProfile,
        link_model: LinkModel,
        *,
        top_k: int = 32,
        prune_threshold: Optional[int] = None,
    ) -> None:
        check_positive(top_k, "top_k")
        if prune_threshold is not None:
            check_positive(prune_threshold, "prune_threshold")
        self.profile = profile
        self.link_model = link_model
        self.top_k = top_k
        self.prune_threshold = prune_threshold
        self.stats = PlannerStats()
        self.state: Optional[PlannerState] = None
        #: Profile seeds named by :meth:`invalidate` since the last plan.
        self._seed_ids: set[int] = set()
        #: Ids named by :meth:`invalidate_topology` since the last plan.
        self._endpoint_ids: set[int] = set()
        #: What changed in the topology since the last plan, and the
        #: participants' translation.
        self._csr = IncrementalCsr(link_model.topology)
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
        Wiring changes need no call either: every plan reads which nodes
        the topology changed since the last one.
        """
        self._seed_ids.update(int(agent_id) for agent_id in agent_ids)

    def invalidate_topology(self, agent_ids: Sequence[int] = ()) -> None:
        """Re-cost the named agents' own rows at the next plan.

        The named agents are treated like the nodes whose links the
        topology changed: each named participant re-costs its own row only.
        """
        self._endpoint_ids.update(int(agent_id) for agent_id in agent_ids)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, participants: Sequence[Agent]) -> PairingPlan:
        """Plan one round; returns the pairing decisions as columns."""
        n = len(participants)
        if n == 0:
            return PairingPlan.empty()
        attrs = agent_attrs(participants)
        vectors = agent_vectors_from_attrs(attrs, self.profile)
        taus = vectors.individual_times
        sig = attrs.signature_matrix()
        access = attrs.access_bandwidth()
        ids_array = attrs.agent_id
        ids = tuple(ids_array.tolist())
        threshold = self.prune_threshold
        budget = self.top_k if threshold is None or n >= threshold else n - 1
        k = max(min(budget, n - 1), 1)

        state, dirty = self._realign(ids, ids_array, sig, k)
        self._recompute_rows(state, vectors, access, dirty)
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
        is built on the first plan and when the candidate budget or the
        retained participants' order changed.
        """
        n = len(ids)
        state = self.state
        touched = self._csr.sync(ids)
        member = self._csr.translation.slots >= 0
        seed_ids, self._seed_ids = self._seed_ids, set()
        endpoint_ids, self._endpoint_ids = self._endpoint_ids, set()
        rebuild = state is None or state.k != k
        if not rebuild:
            if ids == state.ids:
                seeds = (sig != state.sig).any(axis=1)
                flipped = member != state.member
                left = np.empty(0, dtype=np.int64)
            else:
                moved = self._move_rows(state, ids_array, sig, member)
                rebuild = moved is None
                if not rebuild:
                    seeds, flipped, left = moved
        if rebuild:
            self.state = _fresh_state(ids, ids_array, k, sig, member)
            return self.state, np.arange(n, dtype=np.int64)

        state.ids = ids
        state.ids_array = ids_array
        state.sig = sig
        state.member = member
        if seed_ids:
            named_seeds = np.fromiter(seed_ids, dtype=np.int64)
            seeds[self._positions_of(state, named_seeds)] = True
        named = np.concatenate([touched, np.fromiter(endpoint_ids, dtype=np.int64)])
        # A participant that joined or left the topology re-costs its own
        # row; the rows of its neighbours were touched.
        endpoints = np.concatenate(
            [self._positions_of(state, named), np.flatnonzero(flipped)]
        )
        return state, self._dirty_closure(state, seeds, endpoints, left)

    def _move_rows(
        self,
        state: PlannerState,
        ids_array: np.ndarray,
        sig: np.ndarray,
        member: np.ndarray,
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Membership change, rows in place.

        Retained participants keep their rows; the rows of participants
        that left are tombstoned, and new participants get rows appended
        past ``used``, compacting or growing the arrays first when the
        tombstones pass :data:`_COMPACT_FRACTION` or the capacity runs out.
        Candidate rows stay valid, so nothing is remapped outside a
        compaction.

        Returns, by new position, the profile-seed mask (new participants
        and retained ones whose signature changed) and the mask of retained
        participants whose topology membership flipped, plus the ids of the
        participants that left; or ``None`` when the retained participants
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
        flipped = np.zeros(n, dtype=bool)
        flipped[retained] = member[retained] != state.member[old_pos]
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
        return seeds, flipped, previous_ids[~kept]

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

    def _positions_of(self, state: PlannerState, query: np.ndarray) -> np.ndarray:
        """This round's positions of the given ids (absent ids dropped)."""
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
        rows and their neighbours' rows; endpoints (``endpoints``,
        positions: touched topology nodes, named agents, membership flips)
        their own rows only; participants that left the round (``left``,
        ids) the rows of their topology neighbours.  One that left the
        topology has no neighbours left, and the rows that listed it were
        touched.  On a complete graph every row neighbours every seed, so a
        seed or a participant that left marks every row without a walk.
        """
        seed_positions = np.nonzero(seeds)[0]
        dirty = seeds
        dirty[endpoints] = True
        if seed_positions.size or left.size:
            if self._complete_graph():
                dirty[:] = True
            else:
                dirty[self._neighbor_positions(seed_positions, left)] = True
        return np.nonzero(dirty)[0]

    def _neighbor_positions(
        self, seed_positions: np.ndarray, left: np.ndarray
    ) -> np.ndarray:
        """Positions of the seeds' and the leavers' participating neighbours.

        The leavers are not participants, so their rows come from a
        translation of the leavers whose columns are the participants'.
        """
        topology = self.link_model.topology
        translation = self._csr.translation
        found = [np.empty(0, dtype=np.int64)]
        if seed_positions.size:
            found.append(topology.links_for(translation, seed_positions)[1])
        if left.size:
            leavers = topology.translation(left.tolist(), columns=translation)
            found.append(topology.links_for(leavers)[1])
        return np.concatenate(found)

    # ------------------------------------------------------------------
    # Candidate selection + pruned block costing
    # ------------------------------------------------------------------
    def _complete_graph(self) -> bool:
        """Whether the topology is a complete graph on at least two nodes."""
        topology = self.link_model.topology
        nodes = topology.num_nodes
        return nodes >= 2 and topology.num_edges == nodes * (nodes - 1) // 2

    def _candidate_rows(
        self,
        state: PlannerState,
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
        n = len(state.ids)
        if self._complete_graph():
            # Complete graph: a neighbor walk would be O(n²); use the
            # shared pool instead.  Only topology nodes are reachable, as
            # on the walk.
            reachable = state.member & (access > 0.0)
            return _complete_graph_candidates(taus, access, reachable, positions, k)

        sel_rows, sel_cols = self.link_model.topology.links_for(
            self._csr.translation, None if positions.size == n else positions
        )
        bandwidth = np.minimum(access[sel_rows], access[sel_cols])
        return _top_k_by_tau(sel_rows, sel_cols, bandwidth, taus, n, k)

    def _recompute_rows(
        self,
        state: PlannerState,
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
        state.scan_count[rows] = 0
        pos_flat, cols_flat, bw_flat = self._candidate_rows(
            state, access, vectors.individual_times, positions
        )
        total = int(pos_flat.size)
        self.stats.last_pairs_evaluated = total * self.profile.num_options
        self.stats.pairs_evaluated += self.stats.last_pairs_evaluated
        if total == 0:
            return
        best_time, best_index = _pair_block_times(
            self.profile, vectors, pos_flat, cols_flat, bw_flat
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

        Visits rows in ``order`` (positions by descending τ̂); each row no
        earlier row claimed takes the first unclaimed candidate in its
        scan order — ascending by (pair time, participant position), the
        dense tie-break — and pairs with it when the pair time is below
        its τ̂.  :func:`greedy_scan` computes those decisions as a matching
        over the rows' stored candidates, in a few vectorized rounds
        instead of one Python step per participant, and
        :meth:`_plan_columns` turns its rows and scan columns into the
        plan's columns in one vectorized pass.
        """
        slow_rows, fast_rows, pair_columns, rounds = greedy_scan(
            state.scan_rows,
            state.scan_times,
            state.scan_count,
            state.row_of_pos[order],
            taus[order],
        )
        self.stats.scan_rounds += rounds
        self.stats.last_scan_rounds = rounds
        return self._plan_columns(
            state, taus, vectors, slow_rows, fast_rows, pair_columns
        )

    def _plan_columns(
        self,
        state: PlannerState,
        taus: np.ndarray,
        vectors: AgentVectors,
        slow_rows: np.ndarray,
        fast_rows: np.ndarray,
        pair_columns: np.ndarray,
    ) -> PairingPlan:
        """The plan's columns from the scan's rows and scan columns.

        Solo rows carry their τ̂ as slow and pair time.  The pairs'
        estimates are a vectorized
        :func:`~repro.core.workload.estimate_offload_time`: every float is
        computed with the scalar oracle's exact operation order (same
        IEEE-754 results element for element), batched over the round's
        formed pairs instead of one oracle call per pair.  Chosen splits
        always offload (> 0 layers), so only the oracle's offloading branch
        is mirrored.
        """
        slow_all = state.pos_of_row[slow_rows]
        count = len(slow_all)
        paired = fast_rows >= 0
        fast_id = np.full(count, -1, dtype=np.int64)
        layers = np.zeros(count, dtype=np.int64)
        slow_time = taus[slow_all]
        fast_own_time = np.zeros(count)
        communication_time = np.zeros(count)
        fast_offload_time = np.zeros(count)
        pair_time = slow_time.copy()

        if pair_columns.size:
            profile = self.profile
            pair_rows = slow_rows[paired]
            slow_idx = slow_all[paired]
            fast_idx = state.pos_of_row[fast_rows[paired]]
            split_idx = state.scan_split[pair_rows, pair_columns]
            bandwidth = state.scan_bw[pair_rows, pair_columns]
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
                    DEFAULT_LINK_LATENCY_SECONDS + intermediate_bytes / bandwidth
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
# Greedy scan as a matching
# ----------------------------------------------------------------------

def greedy_scan(
    scan_rows: np.ndarray,
    scan_times: np.ndarray,
    scan_count: np.ndarray,
    visit_rows: np.ndarray,
    visit_taus: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Algorithm 1's Pairing over the rows' scan orders, computed as a matching.

    The sequential scan visits ``visit_rows`` in order.  A row no earlier
    row has claimed walks the first ``scan_count`` candidates of its scan
    order (``scan_rows``, with ascending ``scan_times``), takes the first
    unclaimed one, and pairs with it when the pair time is below the row's
    τ̂ (``visit_taus``); otherwise it trains alone.

    An *edge* is a (row, scan column) whose candidate is visited later
    than the row and whose pair time is below the row's τ̂.  A candidate
    visited earlier is claimed by the row's turn (so is a row not visited
    at all, a tombstone), and a row whose first unclaimed candidate is not
    below its τ̂ has no later one that is, since its times ascend.  The
    scan's pairs are therefore exactly the lexicographically-first maximal
    matching of the edges in (visit rank, scan column) order, and greedy
    matching in a fixed order is parallel in few rounds (Blelloch, Fineman
    & Shun, SPAA 2012).  Each round commits every edge that is its row's
    first remaining edge, has no remaining edge into its row, and is the
    smallest remaining edge into its candidate, so no smaller edge touches
    it; then it drops the edges that touch a matched row.  Once a round
    commits fewer than :data:`_MIN_ROUND_PAIRS` pairs, one sequential pass
    over the remaining edges finishes the match, each row in visit order
    taking its first unclaimed candidate.

    A row never lists itself (the topology has no self-loops, and the
    complete-graph pool drops the member).

    Returns, per decision in visit order, the slow row and the helper row
    (−1 when training alone); the scan column of each pair; and the number
    of matching rounds.
    """
    n = visit_rows.size
    k = scan_rows.shape[1]
    counts = scan_count[visit_rows]
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    # Each edge's flat index into the (rows, k) arrays, in (visit rank,
    # scan column) order; ranks stand for rows from here on.
    flat = np.repeat(visit_rows * k - starts, counts) + np.arange(total)
    source = np.repeat(np.arange(n), counts)
    rank_of_row = np.full(scan_rows.shape[0], -1, dtype=np.int64)
    rank_of_row[visit_rows] = np.arange(n)
    target = rank_of_row.take(scan_rows.ravel().take(flat))
    edges = target > source
    edges &= scan_times.ravel().take(flat) < visit_taus.take(source)
    if not edges.all():
        # Real pricing drops no edge; when a filter does, compress through
        # indices, which beats a scattered boolean mask (so do the rounds).
        kept = np.flatnonzero(edges)
        source, target, flat = source.take(kept), target.take(kept), flat.take(kept)

    partner = np.full(n, -1, dtype=np.int64)
    pair_flat = np.zeros(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    rounds = 0
    while source.size:
        rounds += 1
        heads = np.flatnonzero(np.concatenate(([True], source[1:] != source[:-1])))
        # The lowest rank with a remaining edge into each row (n: none).
        # A head is the smallest edge into its candidate exactly when its
        # row is that lowest rank: a row's edges start at its head.
        lowest = np.full(n, n, dtype=np.int64)
        np.minimum.at(lowest, target, source)
        head_source = source.take(heads)
        commit = heads[
            (lowest.take(head_source) == n)
            & (lowest.take(target.take(heads)) == head_source)
        ]
        slow = source.take(commit)
        fast = target.take(commit)
        partner[slow] = fast
        pair_flat[slow] = flat.take(commit)
        matched[slow] = True
        matched[fast] = True
        kept = np.flatnonzero(~(matched.take(source) | matched.take(target)))
        source, target, flat = source.take(kept), target.take(kept), flat.take(kept)
        if commit.size < _MIN_ROUND_PAIRS:
            break

    if source.size:
        sources = source.tolist()
        targets = target.tolist()
        bounds = (np.flatnonzero(source[1:] != source[:-1]) + 1).tolist()
        claimed = [False] * n
        chosen = []
        for start, end in zip([0, *bounds], [*bounds, len(sources)]):
            i = sources[start]
            if claimed[i]:
                continue
            for edge in range(start, end):
                j = targets[edge]
                if not claimed[j]:
                    claimed[i] = claimed[j] = True
                    chosen.append(edge)
                    break
        chosen = np.asarray(chosen, dtype=np.int64)
        partner[source[chosen]] = target[chosen]
        pair_flat[source[chosen]] = flat[chosen]

    helper = np.zeros(n, dtype=bool)
    helper[partner[partner >= 0]] = True
    decisions = np.flatnonzero(~helper)
    fast = partner[decisions]
    paired = fast >= 0
    slow_rows = visit_rows[decisions]
    fast_rows = np.where(paired, visit_rows[fast], -1)
    pair_columns = pair_flat[decisions[paired]] - slow_rows[paired] * k
    return slow_rows, fast_rows, pair_columns, rounds


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _headroom(rows: int) -> int:
    """Spare rows allocated past ``rows`` so arrivals append in place."""
    return max(64, rows // 8)


def _row_arrays(capacity: int, k: int) -> dict:
    """Padding-filled ``(capacity, k)`` scan arrays and their row counts."""
    return {
        "scan_times": np.full((capacity, k), np.inf),
        "scan_rows": np.full((capacity, k), -1, dtype=np.int64),
        "scan_split": np.zeros((capacity, k), dtype=np.int64),
        "scan_bw": np.zeros((capacity, k)),
        "scan_count": np.zeros(capacity, dtype=np.int64),
    }


def _fresh_state(
    ids: tuple[int, ...],
    ids_array: np.ndarray,
    k: int,
    sig: np.ndarray,
    member: np.ndarray,
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
        member=member,
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
    −1, and the row's count stops there, as the scan does at its first −1.
    Returns the new rows of ``retained_rows``.
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
    remapped = new_of_old[arrays["scan_rows"][: live.size]]
    arrays["scan_rows"][: live.size] = remapped
    # Every column past a row's count is padding (−1), so the first −1 of
    # the remapped row is the count cut at the first tombstone.
    cut = remapped < 0
    arrays["scan_count"][: live.size] = np.where(
        cut.any(axis=1), cut.argmax(axis=1), state.k
    )
    for name, array in arrays.items():
        setattr(state, name, array)
    state.pos_of_row = np.full(capacity, -1, dtype=np.int64)
    state.used = int(live.size)
    state.dead = 0
    return new_of_old[retained_rows]


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
    n = len(state.row_of_pos)
    counts = np.bincount(pos_sorted, minlength=n)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(pos_sorted.size) - starts[pos_sorted]
    rows = state.row_of_pos[pos_sorted]
    finite = np.isfinite(times)
    state.scan_times[rows, offsets] = times
    state.scan_rows[rows, offsets] = np.where(
        finite, state.row_of_pos[cols_flat[order]], -1
    )
    state.scan_split[rows, offsets] = best_index[order]
    state.scan_bw[rows, offsets] = bw_flat[order]
    # Finite times sort first, so each row's candidates are its finite ones.
    finite_counts = np.bincount(pos_sorted[finite], minlength=n)
    listed = np.flatnonzero(finite_counts)
    state.scan_count[state.row_of_pos[listed]] = finite_counts[listed]


def _complete_graph_candidates(
    taus: np.ndarray,
    access: np.ndarray,
    reachable: np.ndarray,
    positions: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate selection on a complete graph without materialising O(n²).

    Every ``reachable`` participant (a topology node with a live access
    link) reaches every other, so the k+1 fastest reachable participants,
    ranked by (τ̂, position), form one pool that holds every row's top-k:
    a row outside the pool takes the pool's k fastest, and a pool member
    the other pool members.  That is exactly the per-row top-k the
    neighbour-list path computes, so rows cached here stay exact when the
    graph stops being complete.  Rows come out in ascending position,
    each with its candidates ascending.
    """
    connected = np.nonzero(reachable)[0]
    pool = connected[np.argsort(taus[connected], kind="stable")[: k + 1]]
    rows = positions[reachable[positions]]
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
                    DEFAULT_LINK_LATENCY_SECONDS + intermediate_bytes / bandwidths
                ) + (2.0 * offloaded[index]) / bandwidths
                fast_chain = (busy + communication) + fast_offload
                pair_time = np.maximum(slow_time[rows], fast_chain)
            better = pair_time < best_time
            best_time[better] = pair_time[better]
            best_index[better] = index
    return best_time, best_index
