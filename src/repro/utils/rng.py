"""Deterministic random-number management.

All stochastic components of the library (initializers, data generators,
dropout, samplers) draw from :class:`numpy.random.Generator` instances
created here, so experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int | None = None) -> np.random.Generator:
    """Return a new PCG64 generator seeded with ``seed``.

    ``None`` yields an OS-seeded generator, which is only appropriate for
    exploratory use; every experiment entry point passes an explicit seed.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, the supported way of
    producing independent child streams (unlike ``seed + i`` arithmetic,
    which can correlate streams).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]
