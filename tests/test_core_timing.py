"""Tests for round-timing assembly."""

import numpy as np
import pytest

from repro.core.pairing import PairingPlan, greedy_pairing
from repro.core.timing import (
    FALLBACK_BANDWIDTH_MBPS,
    bottleneck_bandwidth,
    bottleneck_of_mbps,
    bottleneck_of_mbps_rows,
    compute_round_timing,
)
from repro.core.workload import individual_training_time
from repro.network.allreduce import halving_doubling_allreduce
from repro.utils.units import mbps_to_bytes_per_second


class TestComputeRoundTiming:
    @pytest.fixture
    def decisions(self, small_registry, small_link_model, resnet56_profile):
        return PairingPlan.from_decisions(
            greedy_pairing(small_registry.agents, small_link_model, resnet56_profile)
        )

    def test_total_is_makespan_plus_aggregation(
        self, decisions, small_registry, resnet56_profile
    ):
        timing = compute_round_timing(decisions, small_registry.agents, resnet56_profile)
        assert timing.total_time == pytest.approx(timing.makespan + timing.aggregation_time)
        assert timing.aggregation_time > 0

    def test_makespan_is_max_pair_time(self, decisions, small_registry, resnet56_profile):
        timing = compute_round_timing(decisions, small_registry.agents, resnet56_profile)
        assert timing.makespan == pytest.approx(
            max(d.estimate.pair_time for d in decisions)
        )

    def test_num_pairs_matches_decisions(self, decisions, small_registry, resnet56_profile):
        timing = compute_round_timing(decisions, small_registry.agents, resnet56_profile)
        assert timing.num_pairs == sum(1 for d in decisions if d.is_offloading)

    def test_balanced_round_faster_than_unbalanced(
        self, decisions, small_registry, resnet56_profile
    ):
        timing = compute_round_timing(decisions, small_registry.agents, resnet56_profile)
        unbalanced = max(
            individual_training_time(agent, resnet56_profile, 100)
            for agent in small_registry.agents
        )
        assert timing.makespan <= unbalanced + 1e-9

    def test_aggregation_is_halving_doubling(
        self, decisions, small_registry, resnet56_profile
    ):
        agents = small_registry.agents
        timing = compute_round_timing(decisions, agents, resnet56_profile)
        assert timing.aggregation_time == halving_doubling_allreduce(
            resnet56_profile.full_model_bytes, len(agents), bottleneck_bandwidth(agents)
        ).time_seconds

    def test_explicit_aggregating_count(
        self, small_registry, small_link_model, resnet56_profile
    ):
        """The AllReduce runs over exactly the participants passed in."""
        subset = small_registry.agents[:2]
        small = compute_round_timing(
            PairingPlan.from_decisions(
                greedy_pairing(subset, small_link_model, resnet56_profile)
            ),
            subset,
            resnet56_profile,
        )
        everyone = small_registry.agents
        large = compute_round_timing(
            PairingPlan.from_decisions(
                greedy_pairing(everyone, small_link_model, resnet56_profile)
            ),
            everyone,
            resnet56_profile,
        )
        assert 0 < small.aggregation_time < large.aggregation_time

    def test_empty_decisions(self, resnet56_profile):
        timing = compute_round_timing(PairingPlan.empty(), [], resnet56_profile)
        assert timing.makespan == 0.0
        assert timing.num_pairs == 0
        assert timing.aggregation_time == timing.total_time == 0.0


class TestBottleneckPolicy:
    def test_a_row_is_its_own_column(self):
        """Links, disconnected (0) and unregistered (NaN) members, and no link."""
        slow = np.array([100.0, 0.0, np.nan, 10.0, 0.0, np.nan, 5.5, 0.1])
        fast = np.array([10.0, 50.0, 20.0, np.nan, 0.0, np.nan, 5.5, 80.0])
        expected = [
            bottleneck_of_mbps(np.array([a, b])) for a, b in zip(slow, fast)
        ]
        assert bottleneck_of_mbps_rows(slow, fast).tolist() == expected
        fallback = mbps_to_bytes_per_second(FALLBACK_BANDWIDTH_MBPS)
        assert expected[4] == expected[5] == fallback
        assert bottleneck_of_mbps(np.array([])) == fallback
