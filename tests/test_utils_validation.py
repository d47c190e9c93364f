"""Tests for validation helpers."""

import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be positive, got nan"):
            check_positive(float("nan"), "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be non-negative, got nan"):
            check_non_negative(float("nan"), "x")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability(-0.2, "p")


class TestCheckInRange:
    def test_accepts_inside(self):
        assert check_in_range(5, 0, 10, "v") == 5

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(11, 0, 10, "v")


class TestCheckType:
    def test_accepts_match(self):
        assert check_type(3, int, "n") == 3

    def test_accepts_tuple_of_types(self):
        assert check_type(3.0, (int, float), "n") == 3.0

    def test_rejects_mismatch(self):
        with pytest.raises(TypeError):
            check_type("3", int, "n")
