"""Continuous batching over :class:`~repro.serve.registry.MultiTenantEngine`.

:class:`BatchScheduler` is the one queued serving path — the
frontend's and every shard's brain: a bounded admission queue drained
by one scheduler thread into micro-batches, each handed to the engine's
synchronous ``serve``.  It batches *continuously*, with no fixed
coalescing window — the next batch forms from whatever arrived while
the current batch was running, so the batch size adapts to load with no
idle waiting:

- **Admission control.**  ``submit`` is non-blocking; when the queue
  holds ``queue_limit`` requests the new arrival is answered immediately
  with a ``rejected`` result (the 429-style outcome) and
  ``serve.request.rejected`` is bumped.  Nothing is ever silently
  dropped.

- **SLO-aware ordering.**  The queue drains highest ``priority`` first,
  ties broken earliest-deadline-first, then arrival order.  Requests
  whose deadline lapsed while queued are answered ``deadline_missed``
  without touching a kernel.

- **Cost-aware sizing.**  The scheduler keeps a per-adapter EMA of
  per-sample run seconds and packs each batch greedily until the
  predicted batch cost reaches ``target_batch_seconds`` (bounded by
  ``max_batch``) — cheap tenants get big batches, expensive tenants
  short ones, and tail latency stays bounded under mixed load.

- **Graceful drain.**  ``close()`` stops admission (late ``submit`` is
  rejected), then serves what is queued for up to ``drain_timeout``
  seconds; whatever remains is failed with a typed ``error`` result.

Every batch execution runs under a ``serve.batch`` span and fires the
``REPRO_FAULTS`` hook under the ``serve.batch`` key (attempt = batch
index), so stall/crash injection works exactly like the runtime pool's.
Metrics: ``serve.queue.depth`` (histogram, sampled at batch formation),
``serve.request.rejected``, ``serve.request.deadline_missed``,
``serve.batch.size``, ``serve.batches`` — all in the unified snapshot
schema via :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

from repro.errors import ServeError
from repro.obs import OBS, TRACER
from repro.obs.metrics import MetricsRegistry
from repro.perf import fire_faults
from repro.serve.api import (
    DEADLINE_MISSED,
    ERROR,
    REJECTED,
    ServeRequest,
    ServeResult,
    Timings,
)
from repro.serve.registry import MultiTenantEngine

__all__ = ["BatchScheduler"]

#: Per-sample cost assumed before *any* batch has been measured
#: (seconds); only shapes the very first batch the scheduler ever
#: packs.  Once one batch has run, unknown adapters are seeded from the
#: first observed batch instead — a new tenant on a fast host is not
#: mis-packed against this flat prior.
DEFAULT_SAMPLE_SECONDS = 0.005

#: EMA smoothing for per-adapter sample-cost estimates.
EMA_ALPHA = 0.3


class _Pending:
    """One admitted request awaiting a batch slot."""

    __slots__ = ("request", "adapter", "future", "seq")

    def __init__(
        self, request: ServeRequest, adapter: str, future: "Future[ServeResult]", seq: int
    ) -> None:
        self.request = request
        self.adapter = adapter
        self.future = future
        self.seq = seq

    def sort_key(self) -> tuple:
        # Highest priority first, then earliest deadline, then arrival.
        return (-self.request.priority, self.request.deadline_at(), self.seq)


class BatchScheduler:
    """Bounded admission queue + continuous micro-batching worker.

    Parameters
    ----------
    engine:
        The :class:`MultiTenantEngine` batches execute on (via its
        synchronous ``serve``, so cross-tenant grouping applies).
    queue_limit:
        Admission bound; arrival ``queue_limit + 1`` is rejected.
    max_batch:
        Largest micro-batch.
    target_batch_seconds:
        Cost budget one batch aims for; the packer stops adding requests
        once predicted cost crosses it.  Also the upper bound one
        admitted request waits when the queue is otherwise empty.
    drain_timeout:
        Default ``close()`` drain budget (seconds).
    record_batches:
        Keep the first N dispatched batches — ``(requests, results)``
        pairs — on :attr:`recorded` for bit-identity replay against
        direct engine dispatch (the shard tests' identity check).
    """

    def __init__(
        self,
        engine: MultiTenantEngine,
        *,
        queue_limit: int = 256,
        max_batch: int = 32,
        target_batch_seconds: float = 0.025,
        drain_timeout: float = 10.0,
        record_batches: int = 0,
    ) -> None:
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if target_batch_seconds <= 0:
            raise ServeError(
                f"target_batch_seconds must be > 0, got {target_batch_seconds}"
            )
        self.engine = engine
        self.queue_limit = int(queue_limit)
        self.max_batch = int(max_batch)
        self.target_batch_seconds = float(target_batch_seconds)
        self.drain_timeout = float(drain_timeout)
        self.record_batches = int(record_batches)
        #: First ``record_batches`` dispatched batches, as
        #: ``(list[ServeRequest], list[ServeResult])`` pairs.
        self.recorded: list[tuple[list[ServeRequest], list[ServeResult]]] = []
        self._pending: list[_Pending] = []
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._seq = 0
        self._batches = 0
        self._costs: dict[str, float] = {}
        #: Per-sample seconds of the first measured batch; the cold-start
        #: prior for adapters with no EMA entry yet (None until then).
        self._default_cost: float | None = None
        self._metrics = MetricsRegistry(enabled=True)
        self._closed = False
        self._worker: threading.Thread | None = None

    # -- metrics --------------------------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        self._metrics.inc(name, n)
        OBS.enabled and OBS.inc(name, n)

    def _hist(self, name: str, value: object) -> None:
        self._metrics.hist(name, value)
        OBS.enabled and OBS.hist(name, value)

    # -- admission ------------------------------------------------------------

    def submit(self, request: ServeRequest) -> "Future[ServeResult]":
        """Admit one single-sample request; never blocks, never hangs.

        Returns a future resolving to the request's
        :class:`ServeResult`; a full queue or a closed scheduler
        resolves it immediately with ``rejected``.
        """
        if not isinstance(request, ServeRequest):
            raise ServeError(
                f"submit() takes a ServeRequest, got {type(request).__name__}"
            )
        if request.batched:
            raise ServeError(
                "submit() takes single-sample requests; batching is the "
                "scheduler's job"
            )
        future: "Future[ServeResult]" = Future()
        try:
            adapter = self.engine._resolve_adapter(request)
        except ServeError as exc:
            future.set_result(ServeResult.failure(ERROR, str(exc)))
            return future
        with self._lock:
            if self._closed:
                self._inc("serve.request.rejected")
                future.set_result(
                    ServeResult.failure(REJECTED, "scheduler is shutting down")
                )
                return future
            if len(self._pending) >= self.queue_limit:
                self._inc("serve.request.rejected")
                future.set_result(
                    ServeResult.failure(
                        REJECTED,
                        f"admission queue full ({self.queue_limit} requests)",
                    )
                )
                return future
            self._pending.append(_Pending(request, adapter, future, self._seq))
            self._seq += 1
            self._ensure_worker_locked()
            self._work.notify()
        return future

    def depth(self) -> int:
        """Current admission-queue depth."""
        with self._lock:
            return len(self._pending)

    # -- the scheduler loop ---------------------------------------------------

    def _ensure_worker_locked(self) -> None:
        if self._worker is not None and self._worker.is_alive():
            return
        self._worker = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True
        )
        self._worker.start()

    def _take_batch(self) -> list[_Pending] | None:
        """Pop the next micro-batch (None when closed and drained)."""
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                self._work.wait(timeout=0.05)
            self._hist("serve.queue.depth", len(self._pending))
            self._pending.sort(key=_Pending.sort_key)
            batch: list[_Pending] = []
            cost = 0.0
            taken = 0
            unknown = (
                DEFAULT_SAMPLE_SECONDS
                if self._default_cost is None
                else self._default_cost
            )
            for item in self._pending:
                if len(batch) >= self.max_batch:
                    break
                predicted = self._costs.get(item.adapter, unknown)
                if batch and cost + predicted > self.target_batch_seconds:
                    break
                batch.append(item)
                cost += predicted
                taken += 1
            del self._pending[:taken]
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: list[_Pending]) -> None:
        index = self._batches
        self._batches += 1
        now = time.perf_counter()
        live: list[_Pending] = []
        for item in batch:
            if item.request.expired(now):
                self._inc("serve.request.deadline_missed")
                elapsed = now - item.request.created_at
                item.future.set_result(
                    ServeResult.failure(
                        DEADLINE_MISSED,
                        f"SLO budget of {item.request.deadline}s lapsed in queue",
                        Timings(queue_seconds=elapsed, total_seconds=elapsed),
                    )
                )
            else:
                live.append(item)
        if not live:
            return
        self._inc("serve.batches")
        self._hist("serve.batch.size", len(live))
        started = time.perf_counter()
        with TRACER.span("serve.batch", size=len(live), index=index):
            # Deterministic stall/crash injection, keyed like pool cells.
            fire_faults("serve.batch", attempt=index)
            try:
                results = self.engine.serve([item.request for item in live])
            except BaseException as exc:
                for item in live:
                    item.future.set_result(
                        ServeResult.failure(ERROR, f"serving failed: {exc}")
                    )
                return
        elapsed = time.perf_counter() - started
        per_sample = elapsed / max(len(live), 1)
        if self._default_cost is None:
            self._default_cost = per_sample
        for item in live:
            previous = self._costs.get(item.adapter)
            self._costs[item.adapter] = (
                per_sample
                if previous is None
                else (1.0 - EMA_ALPHA) * previous + EMA_ALPHA * per_sample
            )
        if self.record_batches and len(self.recorded) < self.record_batches:
            self.recorded.append(([item.request for item in live], list(results)))
        for item, result in zip(live, results):
            item.future.set_result(result)

    # -- per-adapter cost model ----------------------------------------------

    def sample_costs(self) -> dict[str, float]:
        """Current per-adapter EMA of per-sample run seconds."""
        with self._lock:
            return dict(self._costs)

    def default_sample_cost(self) -> float:
        """Predicted per-sample cost for an adapter never batched before.

        The flat :data:`DEFAULT_SAMPLE_SECONDS` prior only until the
        first batch is measured; the first observed batch's per-sample
        seconds afterwards.
        """
        with self._lock:
            if self._default_cost is None:
                return DEFAULT_SAMPLE_SECONDS
            return self._default_cost

    # -- lifecycle ------------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Scheduler + engine counters in the unified snapshot schema."""
        merged = MetricsRegistry(enabled=True)
        merged.merge(self.engine.stats())
        merged.merge(self._metrics.snapshot())
        return merged.snapshot()

    def close(self, drain_timeout: float | None = None) -> None:
        """Stop admission, drain queued work, fail whatever remains.

        Waits up to ``drain_timeout`` seconds (default: the constructor
        knob) for the scheduler thread to serve the queue; requests
        still pending afterwards resolve to typed ``error`` results.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            self._work.notify_all()
        timeout = self.drain_timeout if drain_timeout is None else float(drain_timeout)
        if worker is not None and worker.is_alive():
            worker.join(timeout=timeout)
        with self._lock:
            leftover, self._pending = self._pending, []
        for item in leftover:
            item.future.set_result(
                ServeResult.failure(
                    ERROR, "scheduler closed before serving this request"
                )
            )

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
