"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so layer
construction is reproducible from the experiment seed.
"""

from __future__ import annotations

import math

import numpy as np


def kaiming_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int
) -> np.ndarray:
    """He/Kaiming uniform init, the standard choice before ReLU."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02
) -> np.ndarray:
    """Gaussian init with small std (LoRA's A-matrix convention)."""
    return (rng.normal(0.0, std, size=shape)).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zero init (LoRA's B-matrix convention: adapters start as identity)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
