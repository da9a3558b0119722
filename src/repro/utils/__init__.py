"""Shared utilities: seeded RNG, registries, serialization, timing, logging."""

from repro.utils.rng import RngMixin, new_rng, spawn_rngs
from repro.utils.registry import Registry
from repro.utils.serialization import (
    ARTIFACT_VERSION,
    load_arrays,
    load_artifact,
    read_manifest,
    save_arrays,
    save_artifact,
)
from repro.utils.timing import Timer, time_calls
from repro.utils.logging import enable_console_logging, get_logger

__all__ = [
    "ARTIFACT_VERSION",
    "Registry",
    "RngMixin",
    "Timer",
    "enable_console_logging",
    "get_logger",
    "load_arrays",
    "load_artifact",
    "new_rng",
    "read_manifest",
    "save_arrays",
    "save_artifact",
    "spawn_rngs",
    "time_calls",
]
