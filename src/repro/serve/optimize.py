"""Compile-time passes for compiled slot-programs.

Two independent levers sit between :class:`~repro.serve.compile.ProgramBuilder`
output and execution, each with its own knob:

- **Precision tiers** (``precision={"f64","f32"}``).  ``f64`` is the
  bit-exactness tier: folded constants stay exactly as the autograd
  path computes them and compiled output remains byte-identical to
  ``extract_embeddings``.  ``f32`` casts every folded constant (and with
  it all kernel compute) to float32 — the recommended serving tier.
  The default tier comes from ``REPRO_SERVE_PRECISION`` (f64 when
  unset), so the library default preserves the bit-exactness contract.

- **Chain fusion** (:func:`fuse_program`, ``REPRO_SERVE_FUSION``).
  Collapses single-consumer producer→consumer chains (conv→bn→relu,
  norm→transpose→fc→gelu→fc, …) into one composed kernel per chain.
  Composition calls the original kernels in the original order on the
  original operands, so fused programs are bit-identical to unfused
  ones at every tier; the win is slot traffic, liveness bookkeeping and
  interpreter overhead, not changed arithmetic.

Execution itself is one serial loop in
:meth:`~repro.serve.compile.CompiledProgram.run`: every step runs its
plain kernel, so each reduction sees exactly the memory layout the
autograd reference produces.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ServeError

#: The compile precision tiers, in decreasing exactness order.
PRECISIONS = ("f64", "f32")


def resolve_precision(precision: str | None) -> str:
    """Validate a tier, defaulting to ``REPRO_SERVE_PRECISION`` then f64."""
    if precision is None:
        precision = os.environ.get("REPRO_SERVE_PRECISION", "").strip() or "f64"
    if precision not in PRECISIONS:
        raise ServeError(
            f"unknown serve precision {precision!r}; "
            f"choose one of {', '.join(PRECISIONS)}"
        )
    return precision


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("", "0", "false", "no", "off")


def fusion_enabled() -> bool:
    """Default for the fusion pass (``REPRO_SERVE_FUSION``, on)."""
    return _env_flag("REPRO_SERVE_FUSION", True)


# -- fusion -------------------------------------------------------------------


def fuse_program(steps: list, output_slot: int) -> tuple[list, int]:
    """Collapse single-consumer chains into composed kernels.

    A step folds into its predecessor when it reads exactly the slot the
    previous (already folded) step wrote and nothing else consumes that
    slot.  The composed kernel calls the two originals in order, so the
    fused program computes bit-identical values; the fused step keeps
    both component names (``conv2d+batchnorm2d+relu``) so program
    listings still show what ran.  Returns ``(steps, eliminated)``.
    """
    consumers: dict[int, int] = {output_slot: 1}
    for step in steps:
        for slot in step.inputs:
            consumers[slot] = consumers.get(slot, 0) + 1
    fused: list = []
    for step in steps:
        prev = fused[-1] if fused else None
        if (
            prev is not None
            and len(step.inputs) == 1
            and step.inputs[0] == prev.output
            and consumers.get(prev.output, 0) == 1
        ):
            fused[-1] = _compose(prev, step)
        else:
            fused.append(step)
    return fused, len(steps) - len(fused)


def _compose(prev, step):
    """One step computing ``step.fn(prev.fn(...))`` (chain order kept)."""
    first, second = prev.fn, step.fn

    def chained(*args: np.ndarray) -> np.ndarray:
        return second(first(*args))

    return type(step)(
        f"{prev.name}+{step.name}", chained, prev.inputs, step.output
    )
