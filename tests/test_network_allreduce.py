"""Tests for AllReduce timing and averaging."""

import numpy as np
import pytest

from repro.network.allreduce import (
    allreduce_average,
    allreduce_time,
    halving_doubling_allreduce,
    ring_allreduce,
)
from repro.network.compression import QuantizationCompressor


class TestRingAllReduce:
    def test_step_count(self):
        assert ring_allreduce(1e6, 8, 1e6).steps == 14

    def test_single_agent_is_free(self):
        result = ring_allreduce(1e6, 1, 1e6)
        assert result.time_seconds == 0.0
        assert result.per_agent_bytes == 0.0

    def test_per_agent_volume(self):
        result = ring_allreduce(1e6, 4, 1e6)
        assert result.per_agent_bytes == pytest.approx(2 * 3 / 4 * 1e6)

    def test_time_scales_with_model_size(self):
        small = ring_allreduce(1e6, 8, 1e6).time_seconds
        large = ring_allreduce(4e6, 8, 1e6).time_seconds
        assert large > small

    def test_rejects_zero_bandwidth_for_multiple_agents(self):
        with pytest.raises(ValueError):
            ring_allreduce(1e6, 4, 0.0)


class TestHalvingDoublingAllReduce:
    def test_step_count_logarithmic(self):
        assert halving_doubling_allreduce(1e6, 8, 1e6).steps == 6
        assert halving_doubling_allreduce(1e6, 64, 1e6).steps == 12

    def test_same_volume_as_ring(self):
        ring = ring_allreduce(2e6, 16, 1e6)
        hd = halving_doubling_allreduce(2e6, 16, 1e6)
        assert ring.per_agent_bytes == pytest.approx(hd.per_agent_bytes)

    def test_fewer_latency_terms_than_ring_for_many_agents(self):
        # With many agents, halving/doubling wins — the reason the paper
        # selects it.
        ring = ring_allreduce(1e6, 128, 1e7)
        hd = halving_doubling_allreduce(1e6, 128, 1e7)
        assert hd.time_seconds < ring.time_seconds

    def test_compression_reduces_time(self):
        plain = halving_doubling_allreduce(8e6, 16, 1e6)
        compressed = halving_doubling_allreduce(
            8e6, 16, 1e6, compressor=QuantizationCompressor(bits=8)
        )
        assert compressed.time_seconds < plain.time_seconds


class TestAllReduceTimeWrapper:
    def test_prices_halving_doubling(self):
        assert allreduce_time(1e6, 8, 1e6) == (
            halving_doubling_allreduce(1e6, 8, 1e6).time_seconds
        )


class TestAllReduceAverage:
    def test_unweighted_mean(self):
        vectors = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert np.allclose(allreduce_average(vectors), [2.0, 3.0])

    def test_weighted_mean(self):
        vectors = [np.array([0.0]), np.array([10.0])]
        assert allreduce_average(vectors, weights=[1, 3])[0] == pytest.approx(7.5)

    def test_single_vector_identity(self):
        vector = np.array([5.0, -1.0])
        assert np.allclose(allreduce_average([vector]), vector)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2), np.zeros(3)])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2), np.zeros(2)], weights=[1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2), np.zeros(2)], weights=[1.0, -1.0])

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2), np.zeros(2)], weights=[0.0, 0.0])
