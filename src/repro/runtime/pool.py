"""Generic process-pool execution of independent experiment cells.

The experiment grids this library runs — Table I ``(method, seed)``
pairs, significance-test repeats, the rank/format ablation sweeps — are
embarrassingly parallel: every cell is a pure function of its key.
:func:`run_cells` shards such cells across a ``fork`` process pool with

- **determinism**: a cell must derive all randomness from its own key
  (see :func:`repro.eval.protocol.method_rng` for the Table I scheme),
  so results are bit-identical however cells land on workers;
- **a serial fallback**: ``jobs=1``, a single cell, or a platform
  without ``fork`` all run the exact same code in-process;
- **crash isolation**: a worker exception is caught *inside* the worker
  and shipped back as a structured :class:`CellFailure` (type, message,
  remote traceback) on its :class:`CellResult` — one bad cell neither
  hangs the pool nor takes down its siblings;
- **retry with deterministic backoff**: with ``max_retries > 0``, failed
  cells are re-executed up to that many times, sleeping
  ``retry_backoff * 2**attempt`` between rounds — transient faults are
  absorbed without surfacing; cells that fail every attempt come back as
  failures exactly as before (``raise_failures`` turns them into one
  :class:`~repro.errors.WorkerError`).  Because every cell derives its
  randomness from its key, a retried cell recomputes the *identical*
  result a first-try success would have produced;
- **per-cell soft timeouts**: ``cell_timeout`` arms a SIGALRM-based
  alarm inside the worker — a stalled cell raises
  :class:`~repro.errors.CellTimeoutError`, becomes an ordinary
  :class:`CellFailure` (so it is retryable), and frees its worker
  instead of hanging the grid.  "Soft" because it interrupts Python
  execution, not the OS process; platforms without ``SIGALRM`` run
  without enforcement;
- **streaming results**: ``on_result`` is invoked in the parent for each
  cell as it *finally* completes (successes as they land, failures only
  once retries are exhausted) — the hook run directories use to persist
  every finished cell before the grid is done, so a killed run loses at
  most the in-flight cells;
- **observability aggregation**: when the parent's metrics registry
  (:data:`repro.obs.OBS`) is enabled, each worker records into its own
  registry and the unified snapshot is merged back into the parent's
  (:meth:`repro.obs.metrics.MetricsRegistry.merge`); when the parent's
  tracer is enabled, each worker traces its cell execution into its own
  tracer and the finished spans ship back on the :class:`CellResult`
  and re-attach under the parent's open span
  (:meth:`repro.obs.trace.Tracer.absorb`) — so worker cell spans land
  in the parent's trace tree exactly where in-process cells would.
  Retries and timeouts bump ``retry.attempt`` / ``retry.backoff`` /
  ``retry.recovered`` / ``retry.exhausted`` / ``timeout.cell`` in the
  parent and attach matching events to the open span.

Deterministic fault injection (``REPRO_FAULTS``,
:func:`repro.faults.fire_faults`) hooks in at the top of every cell
execution so all of the above is testable.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.errors import CellTimeoutError, ConfigError, WorkerError
from repro.faults import fire_faults
from repro.obs import OBS, TRACER

#: How long the parent sleeps between completion polls of the pool.
_POLL_SECONDS = 0.005


@dataclass(frozen=True)
class CellFailure:
    """A structured record of one cell's exception."""

    key: object
    error_type: str
    message: str
    traceback: str

    def __str__(self) -> str:
        return f"cell {self.key!r}: {self.error_type}: {self.message}"


@dataclass
class CellResult:
    """Outcome of one cell: either ``value`` or a ``failure``, plus timing.

    ``attempts`` counts executions (1 = first try succeeded or no retries
    were allowed); ``seconds`` is the wall time of the *final* attempt.
    """

    key: object
    value: object = None
    failure: CellFailure | None = None
    seconds: float = 0.0
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_start_method(method: str | None = None) -> str:
    """Pick a multiprocessing start method for worker processes.

    Explicit ``method`` wins (validated against the platform), then the
    ``REPRO_SHARD_START`` environment variable, then ``fork`` where
    available (cheapest: workers inherit the parent's imports), else
    ``spawn``.  Long-lived serving shards honour this so CI can force
    the portable ``spawn`` path.
    """
    import os

    if method is None:
        method = os.environ.get("REPRO_SHARD_START", "").strip() or None
    available = multiprocessing.get_all_start_methods()
    if method is not None:
        if method not in available:
            raise ConfigError(
                f"start method {method!r} unavailable here; choose one of "
                f"{', '.join(available)}"
            )
        return method
    return "fork" if "fork" in available else "spawn"


def merge_worker_obs(counters: dict, spans: list, **attrs: object) -> None:
    """Fold one worker's shipped observability back into the parent.

    The merge-back half of the pool contract: the worker recorded into
    its own registry/tracer and shipped the snapshot + finished spans;
    this merges the counters into :data:`repro.obs.OBS` and re-attaches
    the spans under the parent's open span
    (:meth:`repro.obs.trace.Tracer.absorb`).  ``attrs`` tag the absorbed
    root spans — long-lived workers (serving shards) use this to label
    everything they ship with ``shard=<id>``.
    """
    OBS.merge(counters)
    TRACER.absorb(spans, **attrs)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means one CPU's worth.

    Anything below 1 is rejected outright — a worker count of zero is
    always a caller bug, and silently mapping it to something else has
    historically hidden misconfigured sweeps.
    """
    if jobs is None:
        return multiprocessing.cpu_count()
    if jobs < 1:
        raise ConfigError(
            f"jobs must be >= 1, got {jobs} (pass None for one worker per CPU)"
        )
    return jobs


@contextlib.contextmanager
def _soft_timeout(seconds: float | None, key: object) -> Iterator[None]:
    """Arm a SIGALRM alarm that raises :class:`CellTimeoutError`.

    Only effective in the main thread of a process on platforms with
    ``SIGALRM`` (pool workers qualify: ``fork`` workers run tasks in
    their main thread).  Elsewhere the block runs unguarded — the
    timeout is a soft contract, not an OS-level kill.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):  # pragma: no cover - trivially exercised via raise
        raise CellTimeoutError(
            f"cell {key!r} exceeded its {seconds:g}s soft timeout"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_cell(
    fn: Callable[[object], object],
    key: object,
    cell: object,
    profile: bool,
    attempt: int = 0,
    timeout: float | None = None,
    trace: bool = False,
    span_name: str = "pool.cell",
) -> CellResult:
    """Run one cell, capturing exceptions and (optionally) observability.

    Module-level so it pickles for the pool; runs verbatim on the serial
    fallback path.  ``attempt`` is supplied by the parent so injected
    faults (and any attempt-aware cell) behave identically wherever the
    retry lands.  ``profile`` / ``trace`` are set only for pool workers:
    they reset the worker's inherited registry/tracer, record locally,
    and ship the snapshot/spans back on the result.  In-process (serial)
    cells record straight into the live parent registry and open their
    span inside the parent's tree instead.
    """
    start = time.perf_counter()
    counters: dict = {}
    spans: list = []
    try:
        if profile:
            OBS.reset()
            OBS.enable()
        if trace:
            # The fork copied the parent's open spans; drop them so the
            # cell span is this worker's root and drains cleanly.
            TRACER.reset()
            TRACER.enable()
        try:
            with _soft_timeout(timeout, key), TRACER.span(
                span_name, key=str(key), attempt=attempt
            ):
                fire_faults(key, attempt)
                value = fn(cell)
        finally:
            if profile:
                OBS.disable()
                counters = OBS.snapshot()
            if trace:
                TRACER.disable()
                spans = TRACER.drain()
        return CellResult(
            key,
            value=value,
            seconds=time.perf_counter() - start,
            counters=counters,
            spans=spans,
            attempts=attempt + 1,
        )
    except Exception as exc:  # crash isolation: ship, don't hang the pool
        failure = CellFailure(
            key=key,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
        return CellResult(
            key,
            failure=failure,
            seconds=time.perf_counter() - start,
            counters=counters,
            spans=spans,
            attempts=attempt + 1,
        )


def _run_batch(
    tasks: list[tuple],
    jobs: int,
    parallel: bool,
    emit: Callable[[int, CellResult], None],
) -> dict[int, CellResult]:
    """Execute one batch of ``(index, task)`` pairs, streaming completions.

    ``emit(index, result)`` fires in the parent as each cell finishes —
    in completion order when parallel, submission order when serial.
    Returns results keyed by their original index.
    """
    results: dict[int, CellResult] = {}
    if not parallel:
        for index, task in tasks:
            result = _execute_cell(*task)
            results[index] = result
            emit(index, result)
        return results

    context = multiprocessing.get_context("fork")
    with context.Pool(processes=min(jobs, len(tasks))) as pool:
        handles = [
            (index, pool.apply_async(_execute_cell, task)) for index, task in tasks
        ]
        pending = list(handles)
        while pending:
            still_pending = []
            progressed = False
            for index, handle in pending:
                if handle.ready():
                    result = handle.get()
                    results[index] = result
                    merge_worker_obs(result.counters, result.spans)
                    emit(index, result)
                    progressed = True
                else:
                    still_pending.append((index, handle))
            pending = still_pending
            if pending and not progressed:
                time.sleep(_POLL_SECONDS)
    return results


def run_cells(
    fn: Callable[[object], object],
    cells: Sequence[object],
    *,
    jobs: int = 1,
    keys: Sequence[object] | None = None,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
    cell_timeout: float | None = None,
    on_result: Callable[[CellResult], None] | None = None,
    span_name: str = "pool.cell",
) -> list[CellResult]:
    """Execute ``fn(cell)`` for every cell, in order, possibly in parallel.

    ``keys`` (default: the cells themselves) label results and failures.
    ``max_retries`` re-runs failed cells with deterministic exponential
    backoff (``retry_backoff * 2**attempt`` seconds between rounds);
    ``cell_timeout`` arms the per-cell soft timeout.  ``on_result`` fires
    in the parent once per cell when its outcome is final.  ``span_name``
    labels the per-cell trace span when the tracer is enabled.  Results
    always come back in input order.
    """
    if keys is None:
        keys = list(cells)
    elif len(keys) != len(cells):
        raise ConfigError(f"{len(keys)} keys for {len(cells)} cells")
    if max_retries < 0:
        raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff < 0:
        raise ConfigError(f"retry_backoff must be >= 0, got {retry_backoff}")
    jobs = resolve_jobs(jobs)
    parallel = jobs > 1 and len(cells) > 1 and fork_available()

    # In-process cells record straight into the parent registry/tracer;
    # pool workers snapshot their own and the parent merges back, so an
    # enabled observability window spans a parallel region either way.
    profile_workers = OBS.enabled and parallel
    trace_workers = TRACER.enabled and parallel

    def task_for(index: int, attempt: int) -> tuple:
        return (
            fn,
            keys[index],
            cells[index],
            profile_workers,
            attempt,
            cell_timeout,
            trace_workers,
            span_name,
        )

    def emit(index: int, result: CellResult) -> None:
        if result.ok:
            if on_result is not None:
                on_result(result)
        elif result.failure.error_type == CellTimeoutError.__name__:
            OBS.inc("timeout.cell")
            TRACER.event("timeout.cell", key=str(result.key))

    results: dict[int, CellResult] = {}
    pending = list(range(len(cells)))
    for attempt in range(max_retries + 1):
        if attempt > 0:
            delay = retry_backoff * 2 ** (attempt - 1)
            OBS.observe("retry.backoff", delay)
            OBS.inc("retry.attempt", len(pending))
            TRACER.event(
                "retry", attempt=attempt, cells=len(pending), backoff=delay
            )
            if delay > 0:
                time.sleep(delay)
        batch = _run_batch(
            [(index, task_for(index, attempt)) for index in pending],
            jobs,
            parallel,
            emit,
        )
        recovered = [
            index for index in pending if attempt > 0 and batch[index].ok
        ]
        OBS.inc("retry.recovered", len(recovered))
        results.update(batch)
        pending = [index for index in pending if not batch[index].ok]
        if not pending:
            break
    if pending:
        OBS.inc("retry.exhausted", len(pending) if max_retries else 0)
        if on_result is not None:
            for index in pending:
                on_result(results[index])
    return [results[index] for index in range(len(cells))]


def raise_failures(results: Sequence[CellResult]) -> None:
    """Raise :class:`WorkerError` summarizing every failed cell, if any."""
    failures = [r.failure for r in results if not r.ok]
    if not failures:
        return
    summary = "; ".join(str(f) for f in failures[:5])
    if len(failures) > 5:
        summary += f"; ... ({len(failures) - 5} more)"
    detail = "\n\n".join(f.traceback for f in failures[:3])
    raise WorkerError(
        f"{len(failures)}/{len(results)} cells failed: {summary}\n"
        f"first tracebacks:\n{detail}"
    )
