"""Tests for the cost-model primitives."""

import pytest

from repro.sim.costs import (
    BASELINE_FLOPS_PER_SECOND,
    DEFAULT_LINK_LATENCY_SECONDS,
    cpu_share_to_throughput,
    transfer_time_seconds,
)


class TestThroughput:
    def test_monotone_in_share(self):
        assert cpu_share_to_throughput(2.0) > cpu_share_to_throughput(1.0)

    def test_baseline_calibration(self):
        assert cpu_share_to_throughput(1.0) == BASELINE_FLOPS_PER_SECOND

    def test_linear_in_share(self):
        assert cpu_share_to_throughput(0.25) == 0.25 * BASELINE_FLOPS_PER_SECOND

    def test_rejects_zero_share(self):
        with pytest.raises(ValueError):
            cpu_share_to_throughput(0.0)


class TestTransferTime:
    def test_includes_latency(self):
        time = transfer_time_seconds(0.0, 1e6)
        assert time == 0.0  # zero bytes short-circuits
        time = transfer_time_seconds(1e6, 1e6)
        assert time == 1.0 + DEFAULT_LINK_LATENCY_SECONDS

    def test_scales_with_bytes(self):
        small = transfer_time_seconds(1e6, 1e6) - DEFAULT_LINK_LATENCY_SECONDS
        large = transfer_time_seconds(3e6, 1e6) - DEFAULT_LINK_LATENCY_SECONDS
        assert large == pytest.approx(3 * small)

    def test_disconnected_link_rejected(self):
        with pytest.raises(ValueError):
            transfer_time_seconds(100.0, 0.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            transfer_time_seconds(-1.0, 1e6)
