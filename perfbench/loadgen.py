"""Single-thread asyncio load generator for the ``repro serve`` wire protocol.

Two modes, both driven from one event loop over at most ``nproc``
pipelined TCP connections:

- **open loop** (:func:`open_loop`): Poisson arrivals at a fixed
  *absolute* rate, planned in advance from the seed
  (:func:`plan_arrivals`).  Each request is sent when it is due whether
  or not earlier ones were answered, and is timed from that *scheduled*
  instant, so a stall in the server (or in the generator) shows up in
  the latency of every request it delays.  How late the generator itself
  sent each request is reported as ``lateness``.
- **closed loop** (:func:`closed_loop`): a fixed number of requests in
  flight; each answer releases the next request.  Latency is timed from
  the actual send.

Responses are matched to requests by the echoed ``id`` (ids are unique
across connections), so pipelined answers may arrive in any order.  A
request still unanswered when the drain budget runs out keeps
``status=None`` and counts as failed.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serve.codec import encode_frame, read_frame


def max_connections() -> int:
    """The connection cap: two, and never more than the host's CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Outcome:
    """One request: what was sent, when, and what came back."""

    rid: int
    tenant: str
    index: int
    scheduled: float
    done: float | None = None
    status: str | None = None
    payload: bytes | None = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send to the response being read."""
        if self.done is None:
            raise ValueError(f"request {self.rid} was never answered")
        return self.done - self.scheduled


@dataclass
class LoadReport:
    """Every request of one run, the timed window, and generator lateness."""

    outcomes: list[Outcome]
    lateness: list[float]
    window: tuple[float, float]

    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.status == "ok"]


def plan_arrivals(
    rate: float,
    duration: float,
    tenants: list[str],
    pool_size: int,
    rng: np.random.Generator,
) -> list[tuple[float, str, int]]:
    """Poisson arrivals at ``rate``/s over ``duration`` s: (offset, tenant, index)."""
    if rate <= 0 or duration <= 0:
        raise ValueError(f"need rate > 0 and duration > 0, got {rate}, {duration}")
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    choices = rng.integers(len(tenants), size=offsets.size)
    indices = rng.integers(pool_size, size=offsets.size)
    return [
        (float(offset), tenants[int(choice)], int(index))
        for offset, choice, index in zip(offsets, choices, indices)
    ]


class _Client:
    """The connections of one run, its outstanding requests and kept rows."""

    def __init__(
        self,
        payloads: dict[str, list[bytes]],
        keep_rows: int,
        on_answer: Callable[[Outcome], None] | None = None,
    ) -> None:
        self.payloads = payloads
        self.keep_rows = keep_rows
        self.kept = {tenant: 0 for tenant in payloads}
        self.pending: dict[int, Outcome] = {}
        self.outcomes: list[Outcome] = []
        self.writers: list[asyncio.StreamWriter] = []
        self.readers: list[asyncio.Task] = []
        self.idle = asyncio.Event()
        self.idle.set()
        self.on_answer = on_answer

    async def connect(self, host: str, port: int, connections: int) -> None:
        for __ in range(connections):
            reader, writer = await asyncio.open_connection(host, port)
            self.writers.append(writer)
            self.readers.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while (frame := await read_frame(reader)) is not None:
            header, payload = frame
            outcome = self.pending.pop(header.get("id"), None)
            if outcome is None:
                continue
            outcome.done = time.perf_counter()
            outcome.status = header.get("status")
            if outcome.status == "ok" and self.kept[outcome.tenant] < self.keep_rows:
                self.kept[outcome.tenant] += 1
                outcome.payload = payload
            if not self.pending:
                self.idle.set()
            if self.on_answer is not None:
                self.on_answer(outcome)

    def send(self, outcome: Outcome) -> None:
        header = {"op": "serve", "id": outcome.rid, "adapter": outcome.tenant}
        frame = encode_frame(header, self.payloads[outcome.tenant][outcome.index])
        self.pending[outcome.rid] = outcome
        self.outcomes.append(outcome)
        self.idle.clear()
        self.writers[outcome.rid % len(self.writers)].write(frame)

    async def drain(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(self.idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass  # the unanswered keep status=None and count as failed

    async def close(self) -> None:
        for task in self.readers:
            task.cancel()
        for task in self.readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        for writer in self.writers:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def open_loop(
    host: str,
    port: int,
    plan: list[tuple[float, str, int]],
    payloads: dict[str, list[bytes]],
    *,
    keep_rows: int = 0,
    drain_timeout: float = 10.0,
) -> LoadReport:
    """Send ``plan`` on schedule; returns every outcome plus lateness.

    ``payloads[tenant][index]`` is the encoded sample for each planned
    arrival; the first ``keep_rows`` ``ok`` answers per tenant keep
    their raw payload for the correctness check.
    """
    client = _Client(payloads, keep_rows)
    lateness: list[float] = []
    try:
        await client.connect(host, port, max_connections())
        start = time.perf_counter() + 0.05
        for rid, (offset, tenant, index) in enumerate(plan):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            client.send(Outcome(rid, tenant, index, scheduled=due))
        end = time.perf_counter()
        await client.drain(drain_timeout)
    finally:
        await client.close()
    return LoadReport(client.outcomes, lateness, (start, end))


async def closed_loop(
    host: str,
    port: int,
    draw: Callable[[], tuple[str, int]],
    payloads: dict[str, list[bytes]],
    *,
    inflight: int,
    warmup: float,
    duration: float,
    keep_rows: int = 0,
    drain_timeout: float = 10.0,
) -> LoadReport:
    """Keep ``inflight`` requests outstanding for ``warmup + duration`` s.

    ``draw()`` picks the next request's ``(tenant, sample index)``.  The
    report's ``window`` is the timed part (after ``warmup``); requests
    still in flight at its end are answered (or drained) before returning.
    """
    next_rid = 0
    closing = False

    def issue(__: Outcome | None = None) -> None:
        nonlocal next_rid
        if closing:
            return
        tenant, index = draw()
        client.send(Outcome(next_rid, tenant, index, scheduled=time.perf_counter()))
        next_rid += 1

    client = _Client(payloads, keep_rows, on_answer=issue)
    try:
        await client.connect(host, port, max_connections())
        start = time.perf_counter()
        window = (start + warmup, start + warmup + duration)
        for __ in range(inflight):
            issue()
        await asyncio.sleep(window[1] - time.perf_counter())
        closing = True
        await client.drain(drain_timeout)
    finally:
        await client.close()
    return LoadReport(client.outcomes, [], window)
