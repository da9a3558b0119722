"""Deterministic fault injection.

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

import os
import time
from dataclasses import dataclass

from repro.errors import ConfigError, FaultInjected

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
    from repro.obs import OBS, TRACER  # local: keep faults import-light

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
