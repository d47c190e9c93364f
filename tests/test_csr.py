"""Tests for the incremental CSR topology engine (`repro.core.csr`).

The engine's contract is *structural equivalence*: however a topology was
reached — arrivals appending rows, departures tombstoning them, rewires
patching columns in place, compactions folding deltas back — the links it
serves must be byte-identical to a from-scratch build of the same graph.
The Hypothesis property here drives random arrival/departure/rewire event
sequences against that contract, both on the raw structure and through
the pruned planner at every invalidation batching the runtime can produce.
"""

from __future__ import annotations

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.resources import ResourceProfile
from repro.core.csr import IncrementalCsr
from repro.core.planner import PlannerStats, PrunedPlanner
from repro.core.profiling import profile_architecture
from repro.models.resnet import resnet56_spec
from repro.network.link import LinkModel
from repro.network.topology import Topology, random_k_topology, ring_topology

PROFILE = profile_architecture(resnet56_spec(), granularity=9)

#: Resource palette the event generator draws arriving agents from.
AGENT_PALETTE = (
    (4.0, 50.0, 1_200, 100),
    (2.0, 20.0, 900, 100),
    (1.0, 100.0, 1_500, 50),
    (0.5, 10.0, 600, 128),
)

EVENT_SEQUENCES = st.lists(
    st.tuples(
        st.sampled_from(["arrive", "depart", "rewire"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=8,
)


def _make_agent(agent_id: int, rng: np.random.Generator) -> Agent:
    cpu, bandwidth, samples, batch = AGENT_PALETTE[
        int(rng.integers(len(AGENT_PALETTE)))
    ]
    return Agent(
        agent_id=agent_id,
        profile=ResourceProfile(cpu, bandwidth),
        num_samples=samples,
        batch_size=batch,
    )


def _apply_event(
    topology: Topology,
    agents: dict[int, Agent],
    next_id: int,
    event: tuple[str, int],
) -> tuple[int, list[int]]:
    """Mutate the topology (journaling as real dynamics do).

    Returns ``(next_id, touched_ids)``.  Rewires are expressed as the
    runtime expresses them — departure plus re-arrival under the same id
    with a fresh neighbour set — so the journal sees remove_node /
    add_node / add_edge interleavings, not just clean arrivals.
    """
    kind, seed = event
    rng = np.random.default_rng(seed)
    nodes = sorted(topology.nodes)
    if kind == "arrive":
        count = int(rng.integers(1, min(3, len(nodes)) + 1))
        chosen = rng.choice(len(nodes), size=count, replace=False)
        neighbors = [nodes[int(index)] for index in chosen]
        topology.add_agent(next_id, neighbors)
        agents[next_id] = _make_agent(next_id, rng)
        return next_id + 1, [next_id]
    if kind == "depart" and len(nodes) > 3:
        victim = nodes[int(rng.integers(len(nodes)))]
        topology.remove_agent(victim)
        agents.pop(victim, None)
        return next_id, [victim]
    # Rewire (also the fallback when the graph is too small to shrink).
    target = nodes[int(rng.integers(len(nodes)))]
    others = [node for node in nodes if node != target]
    count = int(rng.integers(1, min(3, len(others)) + 1))
    chosen = rng.choice(len(others), size=count, replace=False)
    topology.remove_agent(target)
    topology.add_agent(target, [others[int(index)] for index in chosen])
    return next_id, [target]


def _structure(csr: IncrementalCsr, ids: list[int]) -> tuple:
    rows, cols = csr.links_for(csr.translation(ids))
    return csr.counts(), rows.tolist(), cols.tolist()


class TestIncrementalStructure:
    """Edited structure ≡ from-scratch build, after every single event."""

    @hypothesis.seed(20261029)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        events=EVENT_SEQUENCES,
        topology_seed=st.integers(min_value=0, max_value=50),
        ring=st.booleans(),
    )
    def test_edits_match_fresh_rebuild(self, events, topology_seed, ring):
        ids = list(range(6))
        if ring:
            topology = ring_topology(ids)
        else:
            topology = random_k_topology(
                ids, 2, np.random.default_rng(topology_seed)
            )
        agents: dict[int, Agent] = {}
        csr = IncrementalCsr(topology)
        assert csr.sync() is None  # first sync is the initial build
        next_id = len(ids)
        for event in events:
            next_id, _ = _apply_event(topology, agents, next_id, event)
            affected = csr.sync()
            current = sorted(topology.nodes)
            fresh = IncrementalCsr(topology)
            fresh.rebuild()
            assert _structure(csr, current) == _structure(fresh, current)
            if affected is not None:
                # Edits never report nodes that no longer exist *and*
                # never miss one whose row changed: a second sync sees
                # nothing new.
                assert csr.sync() == set()

    def test_journal_truncation_forces_rebuild(self):
        ids = list(range(4))
        topology = ring_topology(ids)
        stats = PlannerStats()
        csr = IncrementalCsr(topology, stats=stats)
        csr.sync()
        from repro.network import topology as topology_module

        events = (topology_module.MAX_JOURNAL_EVENTS // 2) + 1
        for index in range(events):
            topology.add_agent(100 + index, [0])
            topology.remove_agent(100 + index)
        # Overflow the journal window past the cursor.
        assert topology.events_since(csr.cursor) is None
        assert csr.sync() is None
        assert stats.csr_rebuilds >= 2
        fresh = IncrementalCsr(topology)
        fresh.rebuild()
        current = sorted(topology.nodes)
        assert _structure(csr, current) == _structure(fresh, current)


class TestCompaction:
    """Lazy delta/tombstone fold-back: trigger, accounting, equivalence."""

    def _staged_topology(self):
        topology = random_k_topology(
            list(range(24)), 3, np.random.default_rng(7)
        )
        return topology

    def test_deltas_stay_staged_below_threshold(self):
        topology = self._staged_topology()
        stats = PlannerStats()
        csr = IncrementalCsr(topology, compaction_threshold=100.0, stats=stats)
        csr.sync()
        epoch = csr.epoch
        topology.add_agent(500, [0, 1, 2])
        csr.sync()
        assert csr.staged_deltas > 0
        assert csr.epoch == epoch  # no compaction, no rebuild
        assert stats.csr_compactions == 0

    def test_compaction_triggers_at_threshold_and_preserves_structure(self):
        topology = self._staged_topology()
        stats = PlannerStats()
        csr = IncrementalCsr(topology, compaction_threshold=0.01, stats=stats)
        csr.sync()
        epoch = csr.epoch
        for arrival in range(6):
            topology.add_agent(500 + arrival, [0, 1, 2])
        csr.sync()
        assert stats.csr_compactions >= 1
        assert csr.staged_deltas == 0
        assert csr.epoch > epoch
        fresh = IncrementalCsr(topology)
        fresh.rebuild()
        current = sorted(topology.nodes)
        assert _structure(csr, current) == _structure(fresh, current)
        # Compaction must not have gone through the O(E) rebuild path.
        assert stats.csr_rebuilds == 1


def _participants(agents: dict[int, Agent], topology: Topology) -> list[Agent]:
    return [agents[agent_id] for agent_id in sorted(topology.nodes)]


class TestPlannerTiersUnderEvents:
    """An incremental planner over edited CSR ≡ a from-scratch planner.

    The persistent planner applies every wiring change as journal edits
    (drained early through ``invalidate_topology``); the reference planner
    is built from scratch on the mutated graph each round.  Decisions and
    broadcast τ̂ maps must be byte-identical at full candidate budget.

    The tiers are invalidation batchings: a burst of arrivals and
    departures reaches the planner as one journal drain, so the planner is
    driven with a drain and plan after every 1, 2 or 4 events, and
    (``None``) once after the whole sequence.
    """

    @pytest.mark.parametrize("events_per_plan", [None, 1, 2, 4])
    @hypothesis.seed(20261030)
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
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
        agents = {agent_id: _make_agent(agent_id, rng) for agent_id in ids}
        link_model = LinkModel(topology)
        planner = PrunedPlanner(PROFILE, link_model, top_k=32)
        planner.plan(_participants(agents, topology))
        batch = events_per_plan or len(events)
        next_id = len(ids)
        for start in range(0, len(events), batch):
            touched: set[int] = set()
            for event in events[start : start + batch]:
                next_id, event_touched = _apply_event(
                    topology, agents, next_id, event
                )
                touched.update(event_touched)
            planner.invalidate_topology(sorted(touched))
            participants = _participants(agents, topology)
            decisions = planner.plan(participants)
            reference = PrunedPlanner(PROFILE, link_model, top_k=32)
            assert list(decisions) == list(reference.plan(participants))
