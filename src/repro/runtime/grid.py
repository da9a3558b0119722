"""Typed experiment grids: one :class:`GridSpec`, every runtime feature.

Before this module, the fault-tolerant grid machinery — run-directory
checkpointing, ``--resume``, retry with deterministic backoff, per-cell
soft timeouts, and the observability span tree — lived welded to Table I
inside ``runtime/table1.py``; a second evaluation axis meant
copy-pasting all of it.  :func:`run_grid` owns that machinery once,
parameterized by a :class:`GridSpec`:

- **axes** — an ordered mapping of axis name to values; the grid's cells
  are the cartesian product, keyed by tuples in axis order, executed in
  product order (first axis outermost).
- **cell fn** — a picklable module-level callable executed per cell in a
  pool worker (or in-process on the serial fallback), fed a payload the
  spec builds in the parent from ``(config, context, key)``.
- **contexts** (optional) — expensive per-group state shared by many
  cells (the Table I per-seed pretraining): ``context_key`` buckets cell
  keys into groups, ``context_fn`` builds each group's context once, and
  only groups with missing cells are rebuilt on resume.
- **artifact kind** — every completed cell is checkpointed as a
  versioned artifact (:mod:`repro.utils.serialization`) under the spec's
  filename scheme; a resumed grid loads completed cells and re-runs only
  the missing ones, bit-identically, because cells must derive all
  randomness from their key alone.

Span names derive from ``spec.name`` — ``<name>.grid`` →
``<name>.contexts`` / ``<name>.cells`` → ``<name>.context`` /
``<name>.cell`` — and the run-dir manifest kind is ``<name>_run``, so
every grid gets the same ``repro trace`` report and the same refusal
behavior on mismatched resumes.

``run_table1_grid`` is a thin shim over this module, pinned bit-identical
to its pre-refactor implementation by the resume/parallel acceptance
tests; the robustness grid (:mod:`repro.runtime.robustness`) is the
second client.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.obs import OBS, TRACER
from repro.runtime.pool import CellResult, raise_failures, run_cells
from repro.runtime.rundir import RunDir, resolve_run_dirs


@dataclass
class GridSpec:
    """Everything :func:`run_grid` needs to run one experiment grid.

    ``cell_fn`` / ``context_fn`` must be picklable (module-level) — they
    execute inside pool workers.  The payload builders and codec hooks
    run in the parent and may be closures.
    """

    #: Grid family name: span prefix and (``<name>_run``) manifest kind.
    name: str
    #: The experiment configuration; fingerprinted into the manifest.
    config: object
    #: Ordered axis name -> values; cells = cartesian product, in order.
    axes: "dict[str, tuple]"
    #: Worker-side cell executor: ``cell_fn(payload) -> value``.
    cell_fn: Callable[[object], object]
    #: Parent-side payload builder: ``(config, context, key) -> payload``.
    cell_payload: Callable[[object, object, tuple], object]
    #: Artifact ``kind`` of a persisted cell checkpoint.
    artifact_kind: str
    #: Cell key -> checkpoint filename (under ``<run_dir>/cells/``).
    cell_filename: Callable[[tuple], str]
    #: ``(key, value) -> (arrays, meta)`` for the cell artifact.
    encode_cell: Callable[[tuple, object], "tuple[dict, dict]"]
    #: ``(key, arrays, meta, path) -> value``; must raise
    #: :class:`repro.errors.CheckpointError` on a key/meta mismatch.
    decode_cell: Callable[[tuple, dict, dict, str], object]
    #: Optional shared-context phase (all three set, or none).
    context_fn: Callable[[object], object] | None = None
    context_payload: Callable[[object, object], object] | None = None
    context_key: Callable[[tuple], object] | None = None
    #: Extra non-axis manifest ``grid`` entries (e.g. the backbone name).
    manifest_extra: dict = field(default_factory=dict)

    @property
    def run_kind(self) -> str:
        """Manifest ``kind`` of this grid's run directories."""
        return f"{self.name}_run"

    def cells(self) -> list[tuple]:
        """Every cell key, in execution order (first axis outermost)."""
        return list(itertools.product(*self.axes.values()))

    def manifest_grid(self) -> dict:
        """The manifest's ``grid`` section: extras plus one entry per axis.

        Integer axes are stored sorted and deduplicated — they may be
        extended across invocations of the same run dir (the Table I
        ``seeds`` axis) and the manifest keeps a canonical union.
        Categorical axes are stored in order; the config fingerprint pins
        them, so they can never legally change between invocations.
        """
        grid = dict(self.manifest_extra)
        for axis, values in self.axes.items():
            if all(isinstance(value, (int, bool)) for value in values):
                grid[axis] = sorted({int(value) for value in values})
            else:
                grid[axis] = list(values)
        return grid

    def validate(self) -> None:
        if not self.axes:
            raise ConfigError(f"grid {self.name!r} has no axes")
        for axis, values in self.axes.items():
            if not tuple(values):
                raise ConfigError(
                    f"grid {self.name!r} axis {axis!r} has no values"
                )
        context_hooks = (self.context_fn, self.context_payload, self.context_key)
        if any(h is not None for h in context_hooks) and not all(
            h is not None for h in context_hooks
        ):
            raise ConfigError(
                f"grid {self.name!r} must set all of context_fn/"
                f"context_payload/context_key, or none"
            )


@dataclass
class GridResult:
    """Outcome of one :func:`run_grid` call.

    ``values`` maps every completed cell key (restored or freshly
    computed) to its value; ``restored`` lists the keys loaded from the
    run directory; ``cell_results`` carries per-cell diagnostics in
    execution order (context phase first).
    """

    spec: GridSpec
    values: dict
    cell_results: list[CellResult] = field(default_factory=list)
    restored: list = field(default_factory=list)
    run_dir: str | None = None

    @property
    def failures(self) -> list:
        return [r.failure for r in self.cell_results if not r.ok]


@contextlib.contextmanager
def _grid_observability(
    active: bool, rundir: RunDir | None, span_name: str, **attrs: object
):
    """Enable metrics + tracing around the grid, restoring prior state.

    Yields the open grid span (``None`` when inactive) and exports its
    finished tree to the run directory on exit — in a ``finally``, so a
    grid that dies mid-flight (strict failure, ctrl-C) still leaves its
    partial trace, with the grid span marked ``error``.  If this context
    enabled the tracer itself, the grid root is drained on exit so
    repeated grids in one process don't accumulate; a caller-enabled
    tracer keeps its own roots.
    """
    if not active:
        yield None
        return
    previous = (OBS.enabled, TRACER.enabled)
    OBS.enabled = True
    TRACER.enabled = True
    try:
        with TRACER.span(span_name, **attrs) as grid_span:
            yield grid_span
    finally:
        OBS.enabled, TRACER.enabled = previous
        if not previous[1]:
            TRACER.drain()
        if rundir is not None:
            rundir.write_trace([grid_span.to_dict()])


def run_grid(
    spec: GridSpec,
    jobs: int = 1,
    strict: bool = True,
    *,
    out_dir: str | os.PathLike | None = None,
    resume: str | os.PathLike | None = None,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
    cell_timeout: float | None = None,
    obs: bool | None = None,
) -> GridResult:
    """Execute ``spec``'s grid over ``jobs`` workers, durably.

    Bit-identical at any ``jobs`` (including the serial fallback), with
    or without a run directory, provided every cell derives its
    randomness from its key alone.  With ``strict`` (default), any cell
    failure raises :class:`repro.errors.WorkerError` after the whole grid
    has drained; otherwise failed cells appear in ``result.cell_results``
    and their values are omitted.

    ``out_dir`` persists every completed cell into a run directory as it
    finishes; ``resume`` additionally loads the directory's already-
    completed cells and re-runs only the missing ones (``resume`` implies
    ``out_dir``; pointing them at different paths is an error).  Failed
    cells are retried ``max_retries`` times with deterministic
    exponential backoff, and ``cell_timeout`` arms the per-cell soft
    timeout — see :func:`repro.runtime.pool.run_cells`.

    ``obs`` turns the observability layer on (metrics + per-cell trace
    spans, exported to ``<run_dir>/trace.jsonl``); the default enables it
    exactly when the grid has a run directory to export into.
    """
    spec.validate()
    all_cells = spec.cells()

    root, resuming = resolve_run_dirs(out_dir, resume)
    rundir = None
    if root is not None:
        if resuming:
            RunDir.open(root, kind=spec.run_kind)  # must already exist
        rundir = RunDir.create_for(
            root, spec.run_kind, spec.config, spec.manifest_grid()
        )
    restored: dict = {}
    if rundir is not None and resuming:
        for key in all_cells:
            path = rundir.artifact_path(spec.cell_filename(key))
            if not os.path.exists(path):
                continue
            arrays, meta = rundir.load_cell_artifact(
                spec.cell_filename(key), spec.artifact_kind
            )
            restored[key] = spec.decode_cell(key, arrays, meta, path)

    pool_options = {
        "jobs": jobs,
        "max_retries": max_retries,
        "retry_backoff": retry_backoff,
        "cell_timeout": cell_timeout,
    }

    missing = [key for key in all_cells if key not in restored]

    obs_active = (rundir is not None) if obs is None else bool(obs)
    grid_attrs = {axis: list(values) for axis, values in spec.axes.items()}
    with _grid_observability(
        obs_active,
        rundir,
        f"{spec.name}.grid",
        **grid_attrs,
        jobs=jobs,
        restored=len(restored),
    ):
        # Contexts are rebuilt only for groups that still have missing cells.
        contexts: dict = {}
        context_results: list[CellResult] = []
        if spec.context_fn is not None:
            context_keys = sorted({spec.context_key(key) for key in missing})
            with TRACER.span(f"{spec.name}.contexts", cells=len(context_keys)):
                context_results = run_cells(
                    spec.context_fn,
                    [spec.context_payload(spec.config, ck) for ck in context_keys],
                    keys=[("context", ck) for ck in context_keys],
                    span_name=f"{spec.name}.context",
                    **pool_options,
                )
                if strict:
                    raise_failures(context_results)
            contexts = {
                result.key[1]: result.value
                for result in context_results
                if result.ok
            }

        cells = []
        keys = []
        for key in missing:
            context = None
            if spec.context_fn is not None:
                ck = spec.context_key(key)
                if ck not in contexts:
                    continue  # non-strict: the group's context failed
                context = contexts[ck]
            cells.append(spec.cell_payload(spec.config, context, key))
            keys.append(key)

        def checkpoint(result: CellResult) -> None:
            if rundir is not None and result.ok:
                arrays, meta = spec.encode_cell(result.key, result.value)
                rundir.save_cell_artifact(
                    spec.cell_filename(result.key),
                    arrays,
                    spec.artifact_kind,
                    meta,
                )

        with TRACER.span(f"{spec.name}.cells", cells=len(cells)):
            cell_results = run_cells(
                spec.cell_fn,
                cells,
                keys=keys,
                on_result=checkpoint,
                span_name=f"{spec.name}.cell",
                **pool_options,
            )
            if strict:
                raise_failures(cell_results)

    values = dict(restored)
    for result in cell_results:
        if result.ok:
            values[result.key] = result.value
    return GridResult(
        spec=spec,
        values=values,
        cell_results=context_results + cell_results,
        restored=sorted(restored),
        run_dir=rundir.root if rundir is not None else None,
    )
