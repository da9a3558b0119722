"""Process-pool sharding of the Table I experiment grid.

This module is a thin shim: the fault-tolerant grid machinery —
run-directory checkpointing, ``--resume``, retry/backoff, per-cell
timeouts, and the observability span tree — lives generically in
:mod:`repro.runtime.grid`, and :func:`run_table1_grid` mounts the Table I
protocol onto it as a :class:`~repro.runtime.grid.GridSpec`:

1. **Seed contexts** — one :class:`~repro.eval.protocol.Table1SeedContext`
   per seed: pretrain the backbone once, freeze the task splits.  Workers
   return the context to the parent, which re-ships the *shared frozen
   backbone* to every dependent cell instead of letting each cell redo
   pretraining.
2. **Cells** — one ``(seed, method)`` pair each, the independent unit of
   the paper's Table I.  Each cell derives its RNG from its key alone
   (:func:`repro.eval.protocol.method_rng`), so the grid is bit-identical
   to the serial :func:`repro.eval.protocol.run_table1` loop at any
   worker count — the property the bench harness asserts in-process.

The shim is pinned bit-identical to the pre-``GridSpec`` implementation
by the resume/parallel acceptance tests (``tests/runtime/test_resume.py``,
``tests/obs/test_acceptance.py``): same span names (``table1.grid`` →
``table1.contexts`` / ``table1.cells``), same run-dir layout and manifest
kind (``table1_run``), same rows at any worker count.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.eval.protocol import (
    Table1Config,
    Table1Row,
    Table1SeedContext,
    prepare_table1_seed,
    run_table1_cell,
)
from repro.runtime.grid import GridSpec, run_grid
from repro.runtime.pool import CellResult
from repro.runtime.rundir import CELL_KIND

@dataclass
class Table1GridResult:
    """All rows of a multi-seed Table I grid, plus per-cell diagnostics.

    ``restored`` lists the keys of cells whose rows were loaded from the
    run directory rather than recomputed (``resume=``); ``run_dir`` is
    the directory the grid persisted into, if any.
    """

    config: Table1Config
    seeds: tuple[int, ...]
    rows_by_seed: list[dict[str, Table1Row]]
    cell_results: list[CellResult] = field(default_factory=list)
    restored: list[tuple[int, str]] = field(default_factory=list)
    run_dir: str | None = None

    @property
    def failures(self) -> list:
        return [r.failure for r in self.cell_results if not r.ok]


def _prepare_seed(cell: tuple[Table1Config, int]) -> Table1SeedContext:
    config, seed = cell
    return prepare_table1_seed(config, seed)


def _run_cell(cell: tuple[Table1Config, Table1SeedContext, str]) -> Table1Row:
    config, context, method = cell
    return run_table1_cell(config, context, method)


def _encode_row(key: tuple[int, str], row: Table1Row) -> tuple[dict, dict]:
    ks = sorted(row.accuracy_by_k)
    arrays = {
        "ks": np.asarray(ks, dtype=np.int64),
        "accuracy": np.asarray(
            [row.accuracy_by_k[k] for k in ks], dtype=np.float64
        ),
    }
    return arrays, {"seed": int(key[0]), "method": key[1]}


def _decode_row(
    key: tuple[int, str], arrays: dict, meta: dict, path: str
) -> Table1Row:
    seed, method = key
    if meta.get("seed") != int(seed) or meta.get("method") != method:
        raise CheckpointError(
            f"cell artifact {path!r} claims "
            f"(seed={meta.get('seed')!r}, method={meta.get('method')!r}) "
            f"but was indexed as (seed={seed}, method={method!r})"
        )
    return Table1Row(
        method=method,
        accuracy_by_k={
            int(k): float(a) for k, a in zip(arrays["ks"], arrays["accuracy"])
        },
    )


def _table1_spec(config: Table1Config, seeds: tuple[int, ...]) -> GridSpec:
    # Built at call time so monkeypatched module globals (`_run_cell`,
    # `_prepare_seed` in tests) are honored.
    return GridSpec(
        name="table1",
        config=config,
        axes={"seeds": seeds, "methods": tuple(config.methods)},
        cell_fn=_run_cell,
        cell_payload=lambda cfg, context, key: (cfg, context, key[1]),
        artifact_kind=CELL_KIND,
        cell_filename=lambda key: f"s{int(key[0])}__{key[1]}.npz",
        encode_cell=_encode_row,
        decode_cell=_decode_row,
        context_fn=_prepare_seed,
        context_payload=lambda cfg, seed: (cfg, seed),
        context_key=lambda key: key[0],
        manifest_extra={"backbone": config.backbone},
    )


def run_table1_grid(
    config: Table1Config,
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
) -> Table1GridResult:
    """Shard the ``seeds × config.methods`` Table I grid over ``jobs`` workers.

    Bit-identical to ``[run_table1(config, seed) for seed in seeds]`` at
    any ``jobs`` (including the ``jobs=1`` serial fallback), with or
    without a run directory.  With ``strict`` (default), any cell failure
    raises :class:`repro.errors.WorkerError` after the whole grid has
    drained; otherwise failed cells appear in ``result.cell_results`` and
    their rows are omitted.

    ``out_dir`` persists every completed cell into a run directory as it
    finishes; ``resume`` additionally loads the directory's already-
    completed cells and re-runs only the missing ones (``resume`` implies
    ``out_dir``; pointing them at different paths is an error).  Failed
    cells are retried ``max_retries`` times with deterministic
    exponential backoff, and ``cell_timeout`` arms the per-cell soft
    timeout — see :func:`repro.runtime.pool.run_cells`.

    ``obs`` turns the observability layer on (metrics + per-cell trace
    spans, exported to ``<run_dir>/trace.jsonl``); the default enables
    it exactly when the grid has a run directory to export into.
    Instrumentation is RNG-free, so the rows are bit-identical either
    way.

    All of the above is :func:`repro.runtime.grid.run_grid` semantics;
    this shim only contributes the Table I :class:`GridSpec` and the
    ``rows_by_seed`` result shape.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("run_table1_grid needs at least one seed")

    result = run_grid(
        _table1_spec(config, seeds),
        jobs=jobs,
        strict=strict,
        out_dir=out_dir,
        resume=resume,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        cell_timeout=cell_timeout,
        obs=obs,
    )

    rows_by_seed: list[dict[str, Table1Row]] = []
    for seed in seeds:
        rows = {}
        for method in config.methods:
            row = result.values.get((seed, method))
            if row is not None:
                rows[method] = row
        rows_by_seed.append(rows)
    return Table1GridResult(
        config=config,
        seeds=seeds,
        rows_by_seed=rows_by_seed,
        cell_results=result.cell_results,
        restored=result.restored,
        run_dir=result.run_dir,
    )
