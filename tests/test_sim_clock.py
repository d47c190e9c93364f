"""Tests for the virtual simulation clock."""

import pytest

from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=10.0).now == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now == pytest.approx(4.0)

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == 3.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_jumps_forward(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_advance_to_backwards_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(100.0)
        clock.reset()
        assert clock.now == 0.0

    def test_repr_contains_time(self):
        assert "2.000" in repr(SimClock(start=2.0))

    def test_advance_to_nan_rejected(self):
        clock = SimClock(start=1.0)
        with pytest.raises(ValueError):
            clock.advance_to(float("nan"))
        assert clock.now == 1.0
