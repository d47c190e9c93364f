"""Small argument-validation helpers.

These raise ``ValueError`` with consistent messages; they exist so that the
public API fails loudly and early instead of producing NaN timings deep in
the simulator.
"""

from __future__ import annotations

from typing import Any


def check_positive(value: float, name: str) -> float:
    """Ensure ``value > 0`` and return it (NaN is rejected too)."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Ensure ``value >= 0`` and return it (NaN is rejected too)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Ensure ``0 <= value <= 1`` and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_in_range(value: float, low: float, high: float, name: str) -> float:
    """Ensure ``low <= value <= high`` and return it."""
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def check_type(value: Any, expected: type | tuple[type, ...], name: str) -> Any:
    """Ensure ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        expected_name = (
            expected.__name__
            if isinstance(expected, type)
            else " or ".join(t.__name__ for t in expected)
        )
        raise TypeError(
            f"{name} must be {expected_name}, got {type(value).__name__}"
        )
    return value
