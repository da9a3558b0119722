"""The asyncio TCP serving frontend (``repro.serve.frontend``).

A stdlib-only network entry point over
:class:`~repro.serve.registry.MultiTenantEngine`: one asyncio server
accepts framed requests, admits them through the continuous-batching
:class:`~repro.serve.scheduler.BatchScheduler`, and streams results
back.  The wire speaks the same typed surface as everything else — each
frame decodes to a :class:`~repro.serve.api.ServeRequest` and each
response encodes a :class:`~repro.serve.api.ServeResult`.

Wire protocol (see docs/serving_frontend.md for the full spec)::

    frame   := u32_be header_len | header_json | u32_be payload_len | payload
    header  := JSON object (utf-8)
    payload := numpy ``.npy`` bytes (may be empty)

Request headers carry ``op`` (``serve`` | ``stats`` | ``ping``) and an
``id`` the response echoes — requests on one connection may be
pipelined and complete out of order, so clients match responses by
``id``.  ``serve`` requests put the sample in the payload and
``adapter`` / ``deadline`` / ``priority`` in the header; responses
carry ``status`` / ``error`` / ``timings`` in the header and the
embedding (when ``ok``) in the payload.

:class:`ServeClient` is the blocking stdlib-socket client used by tests
and ``repro serve --selftest``: it sends one request at a time per
connection, so its response matching is trivial.
:meth:`ServingFrontend.start_in_thread` runs the event loop on a daemon
thread — the form in-process tests use.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np

from repro.errors import ServeError
from repro.obs import OBS
from repro.serve.api import ERROR, OK, ServeRequest, ServeResult, Timings
from repro.serve.codec import (
    _LEN,
    MAX_SEGMENT,
    _checked_length,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame as _read_frame,
    read_frame_sync as _read_frame_sync,
    recv_exactly as _recv_exactly,
)
from repro.serve.registry import MultiTenantEngine
from repro.serve.scheduler import BatchScheduler

__all__ = [
    "ServeClient",
    "ServingFrontend",
    "decode_payload",
    "encode_frame",
    "encode_payload",
]

# Framing lives in repro.serve.codec (shared with the shard IPC links);
# the private names above are re-exported for backwards compatibility.


# -- the server ---------------------------------------------------------------


class ServingFrontend:
    """Asyncio TCP server over one engine + continuous-batching scheduler.

    Parameters mirror :class:`~repro.serve.scheduler.BatchScheduler`
    (which the frontend owns unless handed one); ``host``/``port`` pick
    the bind address, ``port=0`` an ephemeral port (read it back from
    :attr:`address` after ``start``).

    ``scheduler`` may be anything speaking the scheduler surface —
    ``submit(request) -> Future[ServeResult]``, ``stats()``,
    ``close(drain_timeout)`` — which is how a
    :class:`~repro.serve.shard.ShardedEngine` mounts behind the same
    frontend (pass ``engine=None`` then; the frontend never touches the
    engine directly).
    """

    def __init__(
        self,
        engine: MultiTenantEngine | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: object | None = None,
        queue_limit: int = 256,
        max_batch: int = 32,
        target_batch_seconds: float = 0.025,
        drain_timeout: float = 10.0,
        record_batches: int = 0,
    ) -> None:
        if scheduler is None and engine is None:
            raise ServeError("ServingFrontend needs an engine or a scheduler")
        self.engine = engine
        self.scheduler = (
            scheduler
            if scheduler is not None
            else BatchScheduler(
                engine,
                queue_limit=queue_limit,
                max_batch=max_batch,
                target_batch_seconds=target_batch_seconds,
                drain_timeout=drain_timeout,
                record_batches=record_batches,
            )
        )
        self.host = host
        self.port = int(port)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- async lifecycle ------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        if self._server is not None:
            raise ServeError("frontend already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], int(bound[1]))
        return self.address

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        tasks = [task for task in self._tasks if not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Drain the scheduler on a worker thread so the loop stays live.
        await asyncio.get_running_loop().run_in_executor(None, self.scheduler.close)

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        in_flight: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    frame = await _read_frame(reader)
                except ServeError as exc:
                    await self._respond(
                        writer, write_lock, {"id": None, "status": ERROR, "error": str(exc)}
                    )
                    break
                if frame is None:
                    break
                task = asyncio.ensure_future(
                    self._handle_frame(writer, write_lock, *frame)
                )
                for tracker in (self._tasks, in_flight):
                    tracker.add(task)
                    task.add_done_callback(tracker.discard)
        finally:
            # EOF only ends *admission*; answer what was pipelined first.
            if in_flight:
                await asyncio.gather(*list(in_flight), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        header: dict,
        payload: bytes = b"",
    ) -> None:
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(encode_frame(header, payload))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _handle_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        header: dict,
        payload: bytes,
    ) -> None:
        request_id = header.get("id")
        op = header.get("op", "serve")
        try:
            if op == "ping":
                await self._respond(writer, write_lock, {"id": request_id, "status": OK})
                return
            if op == "stats":
                header_out = {
                    "id": request_id,
                    "status": OK,
                    "stats": self.scheduler.stats(),
                }
                # Sharded schedulers also expose the per-shard breakdown;
                # the merged snapshot above stays the primary answer.
                shard_stats = getattr(self.scheduler, "shard_stats", None)
                if callable(shard_stats):
                    header_out["shards"] = shard_stats()
                await self._respond(writer, write_lock, header_out)
                return
            if op != "serve":
                raise ServeError(f"unknown op {op!r}")
            sample = decode_payload(payload)
            if sample is None:
                raise ServeError("serve frame carried no sample payload")
            request = ServeRequest(
                sample=sample,
                adapter=header.get("adapter"),
                deadline=header.get("deadline"),
                priority=int(header.get("priority", 0)),
            )
            OBS.enabled and OBS.inc("serve.request.wire")
            # Can still raise (e.g. rank-4 batched samples — batching is
            # the scheduler's job); the client gets an error frame, never
            # a hung connection.
            future = self.scheduler.submit(request)
        except (ServeError, ValueError, TypeError) as exc:
            await self._respond(
                writer,
                write_lock,
                {"id": request_id, "status": ERROR, "error": str(exc)},
            )
            return
        result = await asyncio.wrap_future(future)
        header_out = {
            "id": request_id,
            "status": result.status,
            "error": result.error,
            "timings": result.timings.as_dict(),
        }
        await self._respond(writer, write_lock, header_out, encode_payload(result.embedding))

    # -- thread helpers (in-process tests) ------------------------------------

    def start_in_thread(self, timeout: float = 10.0) -> tuple[str, int]:
        """Run the event loop on a daemon thread; returns the bound address."""
        if self._thread is not None:
            raise ServeError("frontend already running in a thread")
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serve-frontend", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise ServeError("frontend failed to start within the timeout")
        if failure:
            self._thread = None
            raise ServeError(f"frontend failed to start: {failure[0]}") from failure[0]
        assert self.address is not None
        return self.address

    def stop_in_thread(self, timeout: float = 10.0) -> None:
        """Gracefully stop a :meth:`start_in_thread` frontend."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            self.scheduler.close()
            return
        done = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        try:
            done.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServingFrontend":
        self.start_in_thread()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop_in_thread()


# -- the blocking client ------------------------------------------------------


class ServeClient:
    """Blocking stdlib-socket client speaking the frame protocol.

    One request at a time per connection (send, then read the matching
    response), which is all tests and the open-loop load generator
    need; pipelining clients match responses by ``id`` instead.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0
        self._lock = threading.Lock()

    def _roundtrip(self, header: dict, payload: bytes = b"") -> tuple[dict, bytes]:
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            header = dict(header, id=request_id)
            self._sock.sendall(encode_frame(header, payload))
            response, data = _read_frame_sync(self._sock)
        if response.get("id") != request_id:
            raise ServeError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        return response, data

    def serve(
        self,
        sample: np.ndarray,
        *,
        adapter: str | None = None,
        deadline: float | None = None,
        priority: int = 0,
    ) -> ServeResult:
        """Send one sample; returns the decoded :class:`ServeResult`."""
        header = {
            "op": "serve",
            "adapter": adapter,
            "deadline": deadline,
            "priority": int(priority),
        }
        response, data = self._roundtrip(header, encode_payload(np.asarray(sample)))
        return ServeResult(
            embedding=decode_payload(data),
            status=response.get("status", ERROR),
            timings=Timings.from_dict(response.get("timings") or {}),
            error=response.get("error"),
        )

    def stats(self, per_shard: bool = False) -> dict:
        """The server's unified metrics snapshot.

        ``per_shard=True`` returns ``{"merged": ..., "shards": {...}}``
        — the cross-shard breakdown a sharded server attaches (an empty
        ``shards`` dict on single-process servers).
        """
        response, __ = self._roundtrip({"op": "stats"})
        if response.get("status") != OK:
            raise ServeError(f"stats failed: {response.get('error')}")
        merged = response.get("stats") or {}
        if per_shard:
            return {"merged": merged, "shards": response.get("shards") or {}}
        return merged

    def ping(self) -> bool:
        response, __ = self._roundtrip({"op": "ping"})
        return response.get("status") == OK

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
