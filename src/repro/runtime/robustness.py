"""The robustness-under-shift grid: the second :class:`GridSpec` client.

Mounts the robustness protocol (:mod:`repro.eval.robustness`) onto the
generic grid runner (:mod:`repro.runtime.grid`), inheriting run-directory
checkpointing, ``--resume``, retry/backoff, per-cell timeouts, and the
obs span tree (``robustness.grid`` → ``robustness.contexts`` /
``robustness.cells``) without any bespoke plumbing — the refactor the
grid API exists for.

Shape of the grid:

- **contexts**, keyed ``(seed, method)`` — pretrain + episodically adapt
  exactly as the Table I cell does; workers ship back the trained
  adapter weights with the frozen evaluation splits.
- **cells**, keyed ``(seed, method, corruption, severity)`` — rebuild
  the trained model and score it on corrupted query splits.  Evaluation
  only; no backward pass.  Cell RNG is
  :func:`repro.data.corruptions.corruption_rng` of the key alone, so the
  grid is bit-identical at any worker count and across resumes, and
  severity-0 cells are bit-identical to the clean Table I evaluation.

Fault-injection keys render as ``seed/method/corruption/severity``
(e.g. ``crash:0/lora/contrast/3``) — see :mod:`repro.faults`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.eval.robustness import (
    RobustnessCell,
    RobustnessConfig,
    RobustnessSeedContext,
    prepare_robustness_context,
    run_robustness_cell,
)
from repro.runtime.grid import GridSpec, run_grid
from repro.runtime.pool import CellResult

#: Artifact ``kind`` of a persisted robustness grid cell.
ROBUSTNESS_CELL_KIND = "robustness_cell"

#: Cell key: ``(seed, method, corruption, severity)``.
CellKey = "tuple[int, str, str, int]"


@dataclass
class RobustnessGridResult:
    """All cells of a robustness grid, plus per-cell diagnostics.

    ``cells`` maps every completed ``(seed, method, corruption,
    severity)`` key to its :class:`RobustnessCell`; ``restored`` lists
    the keys loaded from the run directory rather than recomputed.
    """

    config: RobustnessConfig
    seeds: tuple[int, ...]
    cells: dict
    cell_results: list[CellResult] = field(default_factory=list)
    restored: list = field(default_factory=list)
    run_dir: str | None = None

    @property
    def failures(self) -> list:
        return [r.failure for r in self.cell_results if not r.ok]


def _prepare_context(
    cell: tuple[RobustnessConfig, int, str]
) -> RobustnessSeedContext:
    config, seed, method = cell
    return prepare_robustness_context(config, seed, method)


def _run_cell(
    cell: tuple[RobustnessConfig, RobustnessSeedContext, str, int]
) -> RobustnessCell:
    config, context, corruption, severity = cell
    return run_robustness_cell(config, context, corruption, severity)


def _encode_cell(key: tuple, value: RobustnessCell) -> tuple[dict, dict]:
    ks = sorted(value.accuracy_by_k)
    arrays = {
        "ks": np.asarray(ks, dtype=np.int64),
        "accuracy": np.asarray(
            [value.accuracy_by_k[k] for k in ks], dtype=np.float64
        ),
    }
    seed, method, corruption, severity = key
    meta = {
        "seed": int(seed),
        "method": method,
        "corruption": corruption,
        "severity": int(severity),
    }
    return arrays, meta


def _decode_cell(
    key: tuple, arrays: dict, meta: dict, path: str
) -> RobustnessCell:
    seed, method, corruption, severity = key
    indexed = {
        "seed": int(seed),
        "method": method,
        "corruption": corruption,
        "severity": int(severity),
    }
    claimed = {k: meta.get(k) for k in indexed}
    if claimed != indexed:
        raise CheckpointError(
            f"cell artifact {path!r} claims {claimed} "
            f"but was indexed as {indexed}"
        )
    return RobustnessCell(
        method=method,
        corruption=corruption,
        severity=int(severity),
        accuracy_by_k={
            int(k): float(a) for k, a in zip(arrays["ks"], arrays["accuracy"])
        },
    )


def _cell_filename(key: tuple) -> str:
    seed, method, corruption, severity = key
    return f"s{int(seed)}__{method}__{corruption}__{int(severity)}.npz"


def _robustness_spec(
    config: RobustnessConfig, seeds: tuple[int, ...]
) -> GridSpec:
    # Built at call time so monkeypatched module globals (`_run_cell`,
    # `_prepare_context` in tests) are honored.
    return GridSpec(
        name="robustness",
        config=config,
        axes={
            "seeds": seeds,
            "methods": tuple(config.table1.methods),
            "corruptions": tuple(config.corruptions),
            "severities": tuple(int(s) for s in config.severities),
        },
        cell_fn=_run_cell,
        cell_payload=lambda cfg, context, key: (cfg, context, key[2], key[3]),
        artifact_kind=ROBUSTNESS_CELL_KIND,
        cell_filename=_cell_filename,
        encode_cell=_encode_cell,
        decode_cell=_decode_cell,
        context_fn=_prepare_context,
        context_payload=lambda cfg, ck: (cfg, ck[0], ck[1]),
        context_key=lambda key: (key[0], key[1]),
        manifest_extra={"backbone": config.table1.backbone},
    )


def run_robustness_grid(
    config: RobustnessConfig,
    seeds: tuple[int, ...] | list[int],
    jobs: int = 1,
    strict: bool = True,
    *,
    out_dir: str | os.PathLike | None = None,
    resume: str | os.PathLike | None = None,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
    cell_timeout: float | None = None,
    obs: bool | None = None,
) -> RobustnessGridResult:
    """Shard the ``seeds × methods × corruptions × severities`` grid.

    Semantics are :func:`repro.runtime.grid.run_grid`'s: bit-identical at
    any ``jobs``, durable under ``out_dir``/``resume``, strict failure
    drain, retry/backoff and per-cell soft timeouts, obs spans exported
    to the run directory.  Contexts (one full Table I training per
    ``(seed, method)``) are rebuilt only for groups that still have
    missing cells on resume.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("run_robustness_grid needs at least one seed")

    result = run_grid(
        _robustness_spec(config, seeds),
        jobs=jobs,
        strict=strict,
        out_dir=out_dir,
        resume=resume,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        cell_timeout=cell_timeout,
        obs=obs,
    )
    return RobustnessGridResult(
        config=config,
        seeds=seeds,
        cells=dict(result.values),
        cell_results=result.cell_results,
        restored=result.restored,
        run_dir=result.run_dir,
    )
