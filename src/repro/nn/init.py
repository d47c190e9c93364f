"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np


def he_normal(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """He (Kaiming) normal initialisation, suited to ReLU networks."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))
