"""Tests for network topologies.

Graph-level properties the topology does not offer (connectivity, the
fraction of full-graph links) are read through the networkx oracle.
"""

import numpy as np
import pytest
from topology_oracle import (
    assert_matches,
    connectivity_fraction,
    is_connected,
    oracle_of,
    to_networkx,
)

from repro.network.topology import (
    full_topology,
    random_k_topology,
    random_topology,
    ring_topology,
)


class TestFullTopology:
    def test_edge_count(self):
        topology = full_topology(range(6))
        assert topology.num_edges == 15
        assert connectivity_fraction(topology) == pytest.approx(1.0)

    def test_everyone_connected_to_everyone(self):
        topology = full_topology(range(4))
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert topology.are_connected(a, b)

    def test_neighbors_sorted(self):
        topology = full_topology([3, 1, 2])
        assert topology.neighbors(1) == [2, 3]

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            full_topology(range(3)).neighbors(99)


class TestRingTopology:
    def test_every_node_has_two_neighbors(self):
        topology = ring_topology(range(8))
        assert all(topology.degree(node) == 2 for node in topology.nodes)

    def test_is_connected(self):
        assert is_connected(ring_topology(range(8)))

    def test_two_node_ring(self):
        topology = ring_topology([0, 1])
        assert topology.are_connected(0, 1)

    def test_ring_arrivals_into_a_two_node_ring_keep_a_ring(self):
        """The two-node ring's only edge is its wrap edge: the third node
        closes a triangle, and every later arrival splices into a ring."""
        topology = ring_topology([0, 1])
        assert topology.attach_agent(2, policy="ring") == [0, 1]
        assert topology.num_edges == 3
        for agent_id in (3, 4, 5):
            topology.attach_agent(agent_id, policy="ring")
            assert all(topology.degree(node) == 2 for node in topology.nodes)
            assert is_connected(topology)

    def test_single_node(self):
        topology = ring_topology([0])
        assert topology.num_edges == 0


class TestRandomTopology:
    def test_link_fraction_respected(self, rng):
        topology = random_topology(range(30), link_fraction=0.2, rng=rng)
        # Spanning connectivity may push slightly above the target but it
        # should stay in the same ballpark.
        assert 0.05 <= connectivity_fraction(topology) <= 0.35

    def test_connected_by_default(self, rng):
        topology = random_topology(range(25), link_fraction=0.2, rng=rng)
        assert is_connected(topology)

    def test_descending_ids_reach_the_target_and_stay_connected(self):
        """The spanning chain is keyed by position, so with any id order no
        chain link is drawn a second time from the remaining pool."""
        ids = list(range(11, -1, -1))
        topology = random_topology(ids, 0.3, np.random.default_rng(5))
        assert topology.num_edges == round(0.3 * 66) == 20
        assert is_connected(topology)
        ascending = random_topology(sorted(ids), 0.3, np.random.default_rng(5))
        assert ascending.num_edges == 20

    def test_without_connectivity_guarantee(self, rng):
        topology = random_topology(
            range(25), link_fraction=0.05, rng=rng, ensure_connected=False
        )
        assert topology.num_edges >= 1

    def test_invalid_fraction_rejected(self, rng):
        with pytest.raises(ValueError):
            random_topology(range(5), link_fraction=1.5, rng=rng)

    def test_deterministic_given_rng(self):
        a = random_topology(range(12), 0.3, np.random.default_rng(5))
        b = random_topology(range(12), 0.3, np.random.default_rng(5))
        assert set(to_networkx(a).edges) == set(to_networkx(b).edges)


class TestRandomKTopology:
    def test_edge_count_scales_with_k_not_n_squared(self):
        topology = random_k_topology(range(400), 4, np.random.default_rng(0))
        # Spanning chain + up to n·k sampled links (self/duplicate draws
        # are discarded), far below the 79 800 full-graph edges.
        assert 399 <= topology.num_edges <= 400 * 5
        assert topology.num_nodes == 400

    def test_connected_by_default(self):
        topology = random_k_topology(range(50), 2, np.random.default_rng(1))
        assert is_connected(topology)

    def test_without_connectivity_guarantee(self):
        topology = random_k_topology(
            range(50), 2, np.random.default_rng(1), ensure_connected=False
        )
        assert topology.num_nodes == 50
        assert topology.num_edges >= 1

    def test_no_self_links(self):
        topology = random_k_topology(range(30), 3, np.random.default_rng(2))
        assert all(node not in topology.neighbors(node) for node in topology.nodes)

    def test_deterministic_given_rng(self):
        a = random_k_topology(range(40), 3, np.random.default_rng(7))
        b = random_k_topology(range(40), 3, np.random.default_rng(7))
        assert set(to_networkx(a).edges) == set(to_networkx(b).edges)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            random_k_topology(range(5), 0, np.random.default_rng(0))

    def test_tiny_populations(self):
        assert random_k_topology([1], 2, np.random.default_rng(0)).num_edges == 0
        assert random_k_topology([], 2, np.random.default_rng(0)).num_nodes == 0


class TestCopy:
    def test_edits_to_a_copy_leave_the_original_alone(self):
        original = ring_topology(range(8))
        # Staged links and a removed base link, so the copy carries both.
        original.attach_agent(8, policy="ring")
        pristine = oracle_of(original)
        clone = original.copy()
        clone_oracle = oracle_of(clone)
        for edit in (clone, clone_oracle):
            edit.remove_agent(3)
            edit.add_agent(20, [0, 8, 5])
            edit.remove_agent(8)
            edit.add_agent(21, None)
        assert_matches(clone, clone_oracle)
        assert_matches(original, pristine)
        original.add_agent(30, [1])
        assert 30 not in clone.nodes
