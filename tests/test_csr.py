"""Tests for the topology's editable CSR and the planner's topology sync.

The topology's contract is *structural equivalence*: however it was
reached — arrivals appending slots, departures tombstoning them, rewires
staging links, compactions folding everything back — every query answers
like a networkx graph built by the same edits (``tests/topology_oracle.py``).
Its per-node stamps must name every node whose links changed, because the
planner reads them instead of an event log: the Hypothesis properties here
drive random arrival/departure/rewire sequences against both contracts, on
the raw structure and through the pruned planner at every batching of
edits between plans.
"""

from __future__ import annotations

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from strategies import DETERMINISM_SETTINGS, EVENT_SEQUENCES, apply_event, make_agent
from topology_oracle import assert_matches, oracle_of

from repro.core.csr import IncrementalCsr
from repro.core.planner import PrunedPlanner
from repro.core.profiling import profile_architecture
from repro.models.resnet import resnet56_spec
from repro.network.link import LinkModel
from repro.network.topology import Topology, random_k_topology, ring_topology

PROFILE = profile_architecture(resnet56_spec(), granularity=9)


class TestIncrementalStructure:
    """Edited structure ≡ the networkx oracle, after every single event."""

    @hypothesis.seed(20261029)
    @settings(DETERMINISM_SETTINGS, max_examples=25)
    @given(
        events=EVENT_SEQUENCES,
        topology_seed=st.integers(min_value=0, max_value=50),
        ring=st.booleans(),
    )
    def test_edits_match_the_networkx_oracle(self, events, topology_seed, ring):
        ids = list(range(6))
        if ring:
            topology = ring_topology(ids)
        else:
            topology = random_k_topology(
                ids, 2, np.random.default_rng(topology_seed)
            )
        oracle = oracle_of(topology)
        sync = IncrementalCsr(topology)
        next_id = len(ids)
        for event in events:
            before = {node: oracle.neighbors(node) for node in oracle.nodes}
            apply_event(oracle, {}, next_id, event)
            next_id = apply_event(topology, {}, next_id, event)
            nodes = oracle.nodes
            assert_matches(topology, oracle)
            # Unordered participants, one the topology lacks, and a
            # subset of rows: the translation's sorting and filtering.
            participants = [-1, *reversed(nodes)]
            assert_matches(topology, oracle, participants)
            translation = topology.translation(participants)
            rows, cols = topology.links_for(translation)
            subset = np.arange(1, len(participants), 2)
            sub_rows, sub_cols = topology.links_for(translation, subset)
            keep = np.isin(rows, subset)
            assert (sub_rows.tolist(), sub_cols.tolist()) == (
                rows[keep].tolist(),
                cols[keep].tolist(),
            )
            # The stamps name every node whose links changed, and only
            # live nodes; a second sync sees nothing new.
            changed = {
                node for node in nodes if before.get(node) != oracle.neighbors(node)
            }
            touched = set(sync.sync(tuple(nodes)).tolist())
            assert changed <= touched <= set(nodes)
            assert sync.sync(tuple(nodes)).size == 0

    def test_an_isolated_arrival_is_touched(self):
        topology = ring_topology(range(5))
        version = topology.version
        topology.add_agent(9, [])
        assert topology.touched_since(version).tolist() == [9]

    def test_stale_translation_is_rejected(self):
        topology = ring_topology(range(5))
        translation = topology.translation(range(5))
        topology.add_agent(9, [0])
        with pytest.raises(ValueError, match="translation"):
            topology.links_for(translation)


class TestCompaction:
    """Lazy delta/tombstone fold-back: trigger, stamps, equivalence."""

    def _staged_topology(self) -> Topology:
        return random_k_topology(list(range(24)), 3, np.random.default_rng(7))

    def test_deltas_stay_staged_below_threshold(self):
        topology = self._staged_topology()
        oracle = oracle_of(topology)
        for edit in (topology, oracle):
            edit.add_agent(500, [0, 1, 2])
            edit.remove_agent(3)
        assert topology._added and topology._slot_count > topology.num_nodes
        assert_matches(topology, oracle)

    def test_compaction_triggers_at_threshold_and_preserves_structure(self):
        topology = self._staged_topology()
        oracle = oracle_of(topology)
        sync = IncrementalCsr(topology)
        for edit in (topology, oracle):
            edit.remove_agent(3)
            for arrival in range(12):
                edit.add_agent(500 + arrival, [0, 1, 2, 4, 5])
        # The wave's 120 staged links passed a quarter of the base's floor
        # of 256, so an edit folded the deltas and the tombstone back.
        assert topology._base_slots > 24
        assert topology._slot_count == topology.num_nodes
        assert_matches(topology, oracle)
        # Stamps move with their slots through the compaction.
        touched = set(sync.sync(tuple(oracle.nodes)).tolist())
        arrivals = set(range(500, 512))
        assert arrivals | {0, 1, 2, 4, 5} <= touched
        assert 3 not in touched


def _participants(agents: dict, topology: Topology) -> list:
    return [agents[agent_id] for agent_id in sorted(topology.nodes)]


class TestPlannerTiersUnderEvents:
    """An incremental planner over the edited CSR ≡ a from-scratch planner.

    The persistent planner learns of every wiring change from the
    topology's stamps alone (no invalidation call); the reference planner
    is built from scratch on the edited topology each round.  Decisions
    must be byte-identical at full candidate budget.

    The batchings drive the planner with a plan after every 1, 2 or 4
    events, and (``None``) once after the whole sequence.
    """

    @pytest.mark.parametrize("events_per_plan", [None, 1, 2, 4])
    @hypothesis.seed(20261030)
    @settings(DETERMINISM_SETTINGS, max_examples=5)
    @given(
        events=EVENT_SEQUENCES,
        topology_seed=st.integers(min_value=0, max_value=20),
    )
    def test_event_sequences_match_from_scratch(
        self, events_per_plan, events, topology_seed
    ):
        ids = list(range(6))
        topology = random_k_topology(
            ids, 2, np.random.default_rng(topology_seed)
        )
        rng = np.random.default_rng(topology_seed + 1)
        agents = {agent_id: make_agent(agent_id, rng) for agent_id in ids}
        link_model = LinkModel(topology)
        planner = PrunedPlanner(PROFILE, link_model, top_k=32)
        planner.plan(_participants(agents, topology))
        batch = events_per_plan or len(events)
        next_id = len(ids)
        for start in range(0, len(events), batch):
            for event in events[start : start + batch]:
                next_id = apply_event(topology, agents, next_id, event)
            participants = _participants(agents, topology)
            decisions = planner.plan(participants)
            reference = PrunedPlanner(PROFILE, link_model, top_k=32)
            assert list(decisions) == list(reference.plan(participants))

    @pytest.mark.parametrize("compact", [False, True])
    def test_agent_removed_from_topology_but_still_planned(self, compact):
        """A participant the topology dropped re-costs its own row, even
        once compaction has dropped its tombstone and its stamp."""
        ids = list(range(8))
        topology = ring_topology(ids)
        rng = np.random.default_rng(3)
        agents = [make_agent(agent_id, rng) for agent_id in ids]
        planner = PrunedPlanner(PROFILE, LinkModel(topology), top_k=32)
        planner.plan(agents)
        counts = planner.state.scan_count[planner.state.row_of_pos]
        victim = int(np.argmax(counts))
        assert counts[victim] > 0
        row = int(planner.state.row_of_pos[victim])
        topology.remove_agent(victim)
        if compact:
            for arrival in range(60):
                topology.add_agent(100 + arrival, [(victim + 1) % 8])
            assert topology._slot_count == topology.num_nodes
        decisions = planner.plan(agents)
        assert planner.state.scan_count[row] == 0
        fresh = PrunedPlanner(PROFILE, LinkModel(topology), top_k=32)
        assert list(decisions) == list(fresh.plan(agents))
