"""The unified serving request/response surface (``repro.serve.api``).

One typed pair — :class:`ServeRequest` in, :class:`ServeResult` out —
is the contract for *every* way work reaches the serving layer:

- ``MultiTenantEngine.serve(request)`` / ``serve([requests])`` — the
  synchronous path;
- ``BatchScheduler.submit(request)`` — the queued, micro-batched path
  (:mod:`repro.serve.scheduler`), resolving to a ``Future[ServeResult]``;
- the asyncio TCP frontend (:mod:`repro.serve.frontend`) decodes each
  wire frame into a ``ServeRequest`` and encodes the ``ServeResult``
  back, and its ``ServeClient`` sends the same requests over the wire.

Requests carry the scheduling contract, not just the payload:

- ``deadline`` is a *relative* SLO budget in seconds, measured from the
  request's creation (``created_at``, a ``perf_counter`` stamp).  A
  request whose budget has lapsed by the time a batch is formed is
  answered with :data:`DEADLINE_MISSED` and never touches a kernel.
- ``priority`` orders admission-queue draining (higher first); ties
  break earliest-deadline-first, then arrival order.

Results never raise from inside the serving loop: kernel failures,
unknown or evicted tenants and missed deadlines come back as a ``ServeResult``
whose ``status`` says what happened.  ``ServeResult.require()`` is the
one-liner for callers that want the old raise-on-failure behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServeError

__all__ = [
    "DEADLINE_MISSED",
    "ERROR",
    "OK",
    "REJECTED",
    "STATUSES",
    "ServeRequest",
    "ServeResult",
    "Timings",
    "ingest_sample",
]

#: Request served; ``embedding`` holds the row (or batch of rows).
OK = "ok"
#: Admission control refused the request (bounded queue full) — the
#: 429-style outcome; nothing was computed.
REJECTED = "rejected"
#: The request's SLO budget lapsed before a batch picked it up.
DEADLINE_MISSED = "deadline_missed"
#: The serving pipeline failed (evicted tenant, kernel error, shutdown).
ERROR = "error"

#: Every status a :class:`ServeResult` may carry.
STATUSES = (OK, REJECTED, DEADLINE_MISSED, ERROR)


def ingest_sample(sample: object) -> np.ndarray:
    """Mirror ``Tensor.__init__``'s dtype policy for raw request payloads."""
    array = np.asarray(sample)
    if not np.issubdtype(array.dtype, np.floating):
        array = array.astype(np.float32)
    return array


@dataclass
class Timings:
    """Where one request's wall-clock went, in seconds.

    ``queue_seconds`` is creation → start of its batch's execution;
    ``run_seconds`` the compiled-program time of the batch that served
    it (shared across the batch, not divided); ``total_seconds``
    creation → result.  All zero for cache hits and rejections.
    """

    queue_seconds: float = 0.0
    run_seconds: float = 0.0
    total_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "queue_seconds": float(self.queue_seconds),
            "run_seconds": float(self.run_seconds),
            "total_seconds": float(self.total_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Timings":
        return cls(
            queue_seconds=float(payload.get("queue_seconds", 0.0)),
            run_seconds=float(payload.get("run_seconds", 0.0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
        )


@dataclass
class ServeRequest:
    """One unit of serving work plus its scheduling contract.

    ``sample`` is one image ``(C, H, W)`` or a batch ``(N, C, H, W)``
    (the bulk form; the scheduler accepts singles only, since batching
    is *its* job).  ``adapter`` names the tenant; ``None`` is allowed
    only where a default tenant exists (an engine from ``build_engine``).
    """

    sample: np.ndarray
    adapter: str | None = None
    deadline: float | None = None
    priority: int = 0
    created_at: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        self.sample = ingest_sample(self.sample)
        if self.sample.ndim not in (3, 4):
            raise ServeError(
                f"ServeRequest.sample must be (C, H, W) or (N, C, H, W), "
                f"got shape {self.sample.shape}"
            )
        if self.deadline is not None:
            self.deadline = float(self.deadline)
            if self.deadline <= 0:
                raise ServeError(
                    f"ServeRequest.deadline must be a positive SLO budget in "
                    f"seconds, got {self.deadline}"
                )
        self.priority = int(self.priority)

    @property
    def batched(self) -> bool:
        """Whether ``sample`` is a batch (the bulk form)."""
        return self.sample.ndim == 4

    def deadline_at(self) -> float:
        """Absolute ``perf_counter`` deadline (``inf`` when none was set)."""
        if self.deadline is None:
            return float("inf")
        return self.created_at + self.deadline

    def expired(self, now: float | None = None) -> bool:
        """Whether the SLO budget has lapsed."""
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) > self.deadline_at()


@dataclass
class ServeResult:
    """The outcome of one :class:`ServeRequest`.

    ``embedding`` is the served row(s) when ``status`` is :data:`OK`,
    else ``None``; ``error`` carries the human-readable reason for any
    non-:data:`OK` status.
    """

    embedding: np.ndarray | None = None
    status: str = OK
    timings: Timings = field(default_factory=Timings)
    error: str | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ServeError(
                f"ServeResult.status must be one of {STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status == OK

    def require(self) -> np.ndarray:
        """The embedding, or a typed :class:`ServeError` explaining why not."""
        if not self.ok or self.embedding is None:
            raise ServeError(
                f"request was not served (status={self.status}): "
                f"{self.error or 'no embedding'}"
            )
        return self.embedding

    @classmethod
    def failure(cls, status: str, error: str, timings: Timings | None = None) -> "ServeResult":
        return cls(
            embedding=None,
            status=status,
            timings=timings if timings is not None else Timings(),
            error=error,
        )
