"""Performance-path feature flags.

Every optimization added on top of the reference implementation (einsum
plan caching, optimal contraction ordering, in-place gradient
accumulation) is guarded by a flag here so the two paths can be A/B-tested: the reference
path is the original, straight-line code; the optimized path must match
it numerically (see ``tests/autograd``) and is what ships by default.

Flags initialize from the environment:

- ``REPRO_PERF=off`` (or ``reference``) disables every optimization;
- ``REPRO_EINSUM_PLAN_CACHE=0``, ``REPRO_EINSUM_OPTIMIZE=0``,
  ``REPRO_BACKWARD_INPLACE_ACCUM=0`` disable individual paths.

Programmatic control uses :func:`perf_overrides` (a context manager), which
the benchmark harness relies on to time reference vs. optimized runs in the
same process.

Deterministic fault injection
-----------------------------

``REPRO_FAULTS`` arms the runtime's fault-injection hook so the
retry/timeout/resume machinery in :mod:`repro.runtime` is testable
without real hardware failures.  The value is a ``;``-separated list of
fault specs::

    <kind>:<key>[:<times>[:<seconds>]]

- ``kind`` — ``crash`` (raise :class:`repro.errors.FaultInjected`) or
  ``stall`` (sleep ``seconds``, default 30, inside the cell's soft
  timeout window);
- ``key`` — the cell key to hit, with tuple keys rendered as
  ``part/part`` (so the Table I cell ``(0, 'lora')`` is ``0/lora``), or
  ``*`` for every cell;
- ``times`` — how many *attempts* the fault fires on (default ``-1``,
  every attempt → a permanent fault).  ``crash:0/lora:2`` crashes
  attempts 0 and 1 and lets attempt 2 succeed — a transient fault the
  retry path must absorb.

The attempt number is supplied by the pool (the parent counts retries),
so fault behavior is a pure function of ``(key, attempt)`` — fully
deterministic however cells land on workers.  Fired faults bump the
``faults.crash`` / ``faults.stall`` counters in :data:`repro.obs.OBS`
and attach a ``faults.*`` event to the open cell span, so injected
faults are visible in ``repro trace`` output.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, fields
from typing import Iterator

from repro.errors import ConfigError, FaultInjected


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no", "")


@dataclass
class PerfFlags:
    """Which optimized paths are active.

    ``einsum_plan_cache`` memoizes spec parsing and gradient-spec
    derivation — bit-identical to the reference path.
    ``einsum_optimize`` additionally contracts >=3-operand einsums in the
    optimal pairwise order — numerically equivalent but not bit-identical
    (floating-point summation order changes).
    ``backward_inplace_accum`` accumulates multi-consumer gradients into a
    sweep-owned buffer with ``np.add(..., out=...)`` — bit-identical (the
    in-place path only triggers once the buffer is private and dtypes
    match).
    """

    einsum_plan_cache: bool = True
    einsum_optimize: bool = True
    backward_inplace_accum: bool = True


def _from_env() -> PerfFlags:
    if os.environ.get("REPRO_PERF", "").strip().lower() in ("off", "reference", "0"):
        return PerfFlags(**{f.name: False for f in fields(PerfFlags)})
    return PerfFlags(
        einsum_plan_cache=_env_bool("REPRO_EINSUM_PLAN_CACHE", True),
        einsum_optimize=_env_bool("REPRO_EINSUM_OPTIMIZE", True),
        backward_inplace_accum=_env_bool("REPRO_BACKWARD_INPLACE_ACCUM", True),
    )


#: Process-wide flag singleton; mutate via :func:`perf_overrides`.
FLAGS = _from_env()


@contextlib.contextmanager
def perf_overrides(**overrides: bool) -> Iterator[PerfFlags]:
    """Temporarily override flags by name (restores previous values on exit).

    >>> from repro.perf import FLAGS, perf_overrides
    >>> with perf_overrides(einsum_plan_cache=False):
    ...     assert not FLAGS.einsum_plan_cache
    >>> FLAGS.einsum_plan_cache
    True
    """
    valid = {f.name for f in fields(PerfFlags)}
    unknown = set(overrides) - valid
    if unknown:
        raise ValueError(f"unknown perf flags: {sorted(unknown)}; valid: {sorted(valid)}")
    previous = {name: getattr(FLAGS, name) for name in overrides}
    for name, value in overrides.items():
        setattr(FLAGS, name, bool(value))
    try:
        yield FLAGS
    finally:
        for name, value in previous.items():
            setattr(FLAGS, name, value)


@contextlib.contextmanager
def reference_mode() -> Iterator[PerfFlags]:
    """Run the block with every optimization disabled (the reference path)."""
    with perf_overrides(**{f.name: False for f in fields(PerfFlags)}) as flags:
        yield flags


# -- deterministic fault injection (REPRO_FAULTS) ------------------------------

#: Environment variable holding the armed fault specs (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Default stall duration when a ``stall`` spec omits ``seconds`` — long
#: enough that any reasonable cell timeout fires first.
DEFAULT_STALL_SECONDS = 30.0


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what to do, to which cell, on which attempts."""

    kind: str  # "crash" | "stall"
    key: str  # rendered cell key, or "*" for every cell
    times: int = -1  # attempts the fault fires on; -1 = every attempt
    seconds: float = DEFAULT_STALL_SECONDS  # stall duration

    def matches(self, key: str, attempt: int) -> bool:
        if self.key != "*" and self.key != key:
            return False
        return self.times < 0 or attempt < self.times


def render_fault_key(key: object) -> str:
    """Canonical spec rendering of a cell key: tuples join with ``/``."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def parse_faults(raw: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value; raises :class:`ConfigError` on junk."""
    specs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2 or len(parts) > 4 or parts[0] not in ("crash", "stall"):
            raise ConfigError(
                f"bad fault spec {chunk!r}; expected "
                f"crash|stall:<key>[:<times>[:<seconds>]]"
            )
        kind, key = parts[0], parts[1]
        if not key:
            raise ConfigError(f"fault spec {chunk!r} has an empty key")
        try:
            times = int(parts[2]) if len(parts) > 2 and parts[2] else -1
            seconds = (
                float(parts[3])
                if len(parts) > 3 and parts[3]
                else DEFAULT_STALL_SECONDS
            )
        except ValueError as exc:
            raise ConfigError(f"bad fault spec {chunk!r}: {exc}") from exc
        if seconds < 0:
            raise ConfigError(f"fault spec {chunk!r}: seconds must be >= 0")
        specs.append(FaultSpec(kind=kind, key=key, times=times, seconds=seconds))
    return tuple(specs)


def active_faults() -> tuple[FaultSpec, ...]:
    """The faults currently armed via the environment (usually none)."""
    raw = os.environ.get(FAULTS_ENV, "")
    return parse_faults(raw) if raw.strip() else ()


def fire_faults(key: object, attempt: int = 0) -> None:
    """Fire any armed fault matching ``(key, attempt)``.

    Called by the cell runner at the top of every cell execution.  A
    matching ``crash`` raises :class:`FaultInjected`; a matching
    ``stall`` sleeps its duration (interruptible by the pool's soft
    timeout).  No-op — one env read — when nothing is armed.
    """
    faults = active_faults()
    if not faults:
        return
    from repro.obs import OBS, TRACER  # local: keep perf import-light

    rendered = render_fault_key(key)
    for spec in faults:
        if not spec.matches(rendered, attempt):
            continue
        TRACER.event(f"faults.{spec.kind}", key=rendered, attempt=attempt)
        if spec.kind == "stall":
            OBS.inc("faults.stall")
            time.sleep(spec.seconds)
        else:
            OBS.inc("faults.crash")
            raise FaultInjected(
                f"injected crash on cell {rendered!r} (attempt {attempt})"
            )
