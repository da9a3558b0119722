"""Horizontal scale-out serving (``repro.serve.shard``).

:class:`ShardedEngine` spreads the serving stack across N worker
*processes* — each shard hosts its own
:class:`~repro.serve.registry.MultiTenantEngine` behind its own
:class:`~repro.serve.scheduler.BatchScheduler`, so compiled-kernel work
escapes the parent's GIL entirely.  The parent keeps only a router and
the replicated registry state:

- **Registry replication.**  ``register``/``swap``/``evict`` fan out to
  every shard.  A tenant is shipped as a :class:`TenantSpec` — an
  importable builder path that reconstructs the *architecture* plus the
  full ``state_dict`` bytes — and each shard verifies the loaded
  weights against the parent's ``state_digest`` before serving them, so
  a hot swap either propagates everywhere bit-exactly or fails loudly.

- **Affinity-first routing.**  Each adapter has a home shard (assigned
  round-robin at registration), keeping that shard's ``ProgramCache``
  and per-adapter cost-model EMA warm.  When the home shard's in-flight
  count exceeds the least-loaded shard's by ``spill_margin``, the
  request spills to the least-loaded shard instead
  (``serve.router.affinity`` / ``serve.router.spill`` count the split).

- **Crash isolation + restart.**  Shard death (detected by the link
  reader at EOF or the heartbeat monitor via ``is_alive``) resolves
  every in-flight request for that shard with a typed ``error``
  :class:`~repro.serve.api.ServeResult` — the PR 8 contract: failures
  are results, never hangs.  The monitor then respawns the worker and
  replays the recorded :class:`TenantSpec` sequence, so the shard
  re-syncs from the registry and its tenants serve again, bit-identical.

- **Obs merge-back.**  Each shard keeps its own metrics/trace registry
  (the :mod:`repro.runtime.pool` pattern for long-lived workers);
  :meth:`ShardedEngine.stats` pulls per-shard snapshots and merges them
  into one unified snapshot — bare series summed across shards plus a
  ``{shard=i}`` labeled twin per series — and absorbs shipped spans
  tagged ``shard=i`` via
  :func:`repro.runtime.pool.merge_worker_obs`.

IPC is the serving wire format itself — the ``u32_be|JSON|npy`` frame
codec from :mod:`repro.serve.codec` over loopback TCP sockets (workers
connect *back* to the parent listener, so no descriptors are inherited
and the ``spawn`` start method works unchanged).  Multi-array control
payloads (state dicts, recorded batches) use ``encode_arrays``.

The engine duck-types the scheduler surface (``submit`` / ``stats`` /
``close`` / ``depth``), so it mounts behind the unchanged
:class:`~repro.serve.frontend.ServingFrontend` via
``ServingFrontend(scheduler=sharded_engine)`` — which is what
``repro serve --shards N`` does.
"""

from __future__ import annotations

import importlib
import multiprocessing
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry, parse_name, render_name
from repro.obs.trace import TRACER
from repro.runtime.pool import merge_worker_obs, resolve_start_method
from repro.serve.api import (
    DEADLINE_MISSED,
    ERROR,
    OK,
    REJECTED,
    ServeRequest,
    ServeResult,
    Timings,
)
from repro.serve.codec import (
    decode_arrays,
    decode_payload,
    encode_arrays,
    encode_frame,
    encode_payload,
    read_frame_sync,
)

__all__ = ["ShardedEngine", "TenantSpec"]

#: How long a freshly spawned worker gets to connect back and say hello.
CONNECT_TIMEOUT = 30.0

#: How often the wait for that hello checks whether the worker has died.
ACCEPT_POLL = 0.1

#: Default control-op round-trip budget (register/stats/recorded/close).
CONTROL_TIMEOUT = 60.0


def _builder_path(builder: object) -> str:
    """``module:qualname`` for an importable tenant builder."""
    module = getattr(builder, "__module__", None)
    qualname = getattr(builder, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ServeError(
            f"tenant builder must be a module-level callable (got {builder!r}); "
            f"shards import it by path to rebuild the architecture"
        )
    resolved = _resolve_builder(f"{module}:{qualname}")
    if resolved is not builder:
        raise ServeError(
            f"tenant builder {module}:{qualname} does not import back to "
            f"itself; use a plain module-level function"
        )
    return f"{module}:{qualname}"


def _resolve_builder(path: str) -> object:
    module, __, qualname = path.partition(":")
    try:
        target = getattr(importlib.import_module(module), qualname)
    except (ImportError, AttributeError) as exc:
        raise ServeError(f"cannot import tenant builder {path!r}: {exc}") from exc
    if not callable(target):
        raise ServeError(f"tenant builder {path!r} is not callable")
    return target


def _serving_module(model_or_result: object, merge: bool) -> object:
    """The concrete Module whose state is replicated (mirrors the registry)."""
    from repro.nn.module import Module

    if isinstance(model_or_result, Module):
        return model_or_result
    serving_model = getattr(model_or_result, "serving_model", None)
    if serving_model is None or not callable(serving_model):
        raise ServeError(
            f"register() expects a Module or AttachResult, "
            f"got {type(model_or_result).__name__}"
        )
    module = serving_model(merge=merge)
    if not isinstance(module, Module):
        raise ServeError(
            f"serving_model() on {type(model_or_result).__name__} returned "
            f"{type(module).__name__}, not a Module"
        )
    return module


@dataclass
class TenantSpec:
    """Everything a shard needs to (re)construct one tenant.

    ``builder`` is an importable ``module:qualname`` path whose call
    (with ``args``/``kwargs``, JSON-able) rebuilds the tenant's
    *architecture*; ``state`` carries the authoritative weights and
    ``digest`` their :func:`~repro.peft.checkpoint.state_digest`
    identity, verified shard-side after loading.
    """

    name: str
    builder: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    merge: bool = True
    precision: str | None = None
    state: dict[str, np.ndarray] = field(default_factory=dict)
    digest: str = ""
    version: int = 1


# -- the worker process -------------------------------------------------------


def _shard_worker_main(shard_id: int, host: str, port: int, token: str, config: dict) -> None:
    """One shard: engine + scheduler behind a framed control socket.

    Module-level (and fed only picklable arguments) so it starts under
    ``spawn`` as well as ``fork``.  The worker connects *back* to the
    parent's listener, authenticates with ``token``, then serves ops
    until ``close`` or EOF.
    """
    from repro.obs import TRACER
    from repro.peft.checkpoint import state_digest
    from repro.serve.registry import MultiTenantEngine
    from repro.serve.scheduler import BatchScheduler

    TRACER.reset()
    TRACER.enable()

    conn = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.settimeout(None)
    write_lock = threading.Lock()

    def send(header: dict, payload: bytes = b"") -> None:
        with write_lock:
            conn.sendall(encode_frame(header, payload))

    engine = MultiTenantEngine(precision=config.get("precision"))
    scheduler = BatchScheduler(
        engine,
        queue_limit=int(config.get("queue_limit", 256)),
        max_batch=int(config.get("max_batch", 32)),
        target_batch_seconds=float(config.get("target_batch_seconds", 0.025)),
        drain_timeout=float(config.get("drain_timeout", 10.0)),
        record_batches=int(config.get("record_batches", 0)),
    )

    send({"op": "hello", "shard": shard_id, "token": token})

    def on_serve_done(request_id: int, future: "Future[ServeResult]") -> None:
        result = future.result()
        try:
            send(
                {
                    "id": request_id,
                    "status": result.status,
                    "error": result.error,
                    "timings": result.timings.as_dict(),
                },
                encode_payload(result.embedding),
            )
        except OSError:
            pass  # parent gone; the process is about to be reaped anyway

    def handle_register(header: dict, payload: bytes) -> tuple[dict, bytes]:
        state = decode_arrays(payload)
        built = _resolve_builder(header["builder"])(
            *header.get("args", ()), **(header.get("kwargs") or {})
        )
        module = _serving_module(built, bool(header.get("merge", True)))
        module.load_state_dict(state)
        loaded = state_digest(module.state_dict())
        expected = header.get("digest")
        if expected and loaded != expected:
            raise ServeError(
                f"shard {shard_id}: tenant {header['name']!r} state digest "
                f"mismatch after load ({loaded[:12]} != {expected[:12]})"
            )
        engine.register(
            header["name"],
            module,
            replace=True,
            precision=header.get("precision"),
        )
        return {"digest": loaded}, b""

    def handle_recorded() -> tuple[dict, bytes]:
        batches = []
        arrays: dict[str, np.ndarray] = {}
        for b, (requests, results) in enumerate(list(scheduler.recorded)):
            batches.append(
                {
                    "adapters": [request.adapter for request in requests],
                    "statuses": [result.status for result in results],
                }
            )
            for i, (request, result) in enumerate(zip(requests, results)):
                arrays[f"{b}.{i}.sample"] = request.sample
                if result.embedding is not None:
                    arrays[f"{b}.{i}.embedding"] = result.embedding
        return {"batches": batches}, encode_arrays(arrays)

    closing = False
    try:
        while not closing:
            try:
                header, payload = read_frame_sync(conn)
            except ServeError:
                break  # parent went away; shut down
            op = header.get("op")
            request_id = header.get("id")
            try:
                if op == "serve":
                    sample = decode_payload(payload)
                    try:
                        request = ServeRequest(
                            sample=sample,
                            adapter=header.get("adapter"),
                            deadline=header.get("deadline"),
                            priority=int(header.get("priority", 0)),
                        )
                    except ServeError as exc:
                        send({"id": request_id, "status": ERROR, "error": str(exc)})
                        continue
                    future = scheduler.submit(request)
                    future.add_done_callback(
                        lambda done, rid=request_id: on_serve_done(rid, done)
                    )
                elif op == "ping":
                    send({"id": request_id, "status": OK})
                elif op == "stats":
                    send(
                        {
                            "id": request_id,
                            "status": OK,
                            "stats": scheduler.stats(),
                            "spans": TRACER.drain(),
                        }
                    )
                elif op == "register":
                    reply, blob = handle_register(header, payload)
                    send({"id": request_id, "status": OK, **reply}, blob)
                elif op == "evict":
                    engine.evict(header["name"])
                    send({"id": request_id, "status": OK})
                elif op == "recorded":
                    reply, blob = handle_recorded()
                    send({"id": request_id, "status": OK, **reply}, blob)
                elif op == "close":
                    closing = True
                    scheduler.close(header.get("drain"))
                    engine.close()
                    send(
                        {
                            "id": request_id,
                            "status": OK,
                            "stats": scheduler.stats(),
                            "spans": TRACER.drain(),
                        }
                    )
                else:
                    send(
                        {
                            "id": request_id,
                            "status": ERROR,
                            "error": f"unknown shard op {op!r}",
                        }
                    )
            except Exception as exc:  # control-op failure: typed reply, keep serving
                send({"id": request_id, "status": ERROR, "error": str(exc)})
    finally:
        if not closing:
            scheduler.close(0.0)
            engine.close()
        try:
            conn.close()
        except OSError:
            pass


# -- parent-side shard handle -------------------------------------------------


class _Shard:
    """Parent-side state for one worker: process, link, pending futures."""

    def __init__(self, shard_id: int) -> None:
        self.id = shard_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: socket.socket | None = None
        self.reader: threading.Thread | None = None
        self.write_lock = threading.Lock()
        self.lock = threading.Lock()
        self.next_id = 0
        #: request id -> ("serve", Future[ServeResult]) | (op, Future[tuple])
        self.pending: dict[int, tuple[str, Future]] = {}
        self.alive = False  # link up: control ops may round-trip
        self.ready = False  # registry re-synced: the router may place here
        self.in_flight = 0
        self.last_stats: dict = {}
        self.restarts = 0

    def take_pending(self) -> list[tuple[str, Future]]:
        with self.lock:
            items = list(self.pending.values())
            self.pending.clear()
            self.in_flight = 0
        return items


class ShardedEngine:
    """N engine shards behind one scheduler-shaped surface.

    Parameters
    ----------
    shards:
        Worker-process count (>= 1).
    start_method:
        ``fork`` | ``spawn`` | ``forkserver`` (default: the
        ``REPRO_SHARD_START`` environment variable, else ``fork`` where
        available).
    queue_limit / max_batch / target_batch_seconds / record_batches / drain_timeout:
        Forwarded to each shard's :class:`BatchScheduler`;
        ``drain_timeout`` is also the default ``close()`` budget.
    precision:
        Forwarded to each shard's :class:`MultiTenantEngine`.
    heartbeat_interval:
        Seconds between monitor sweeps (process liveness + restart).
    spill_margin:
        How many more in-flight requests the affinity shard may hold
        than the least-loaded shard before the router spills.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        start_method: str | None = None,
        queue_limit: int = 256,
        max_batch: int | None = None,
        target_batch_seconds: float = 0.025,
        record_batches: int = 0,
        precision: str | None = None,
        drain_timeout: float = 10.0,
        heartbeat_interval: float = 0.25,
        spill_margin: int = 4,
    ) -> None:
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        if spill_margin < 0:
            raise ServeError(f"spill_margin must be >= 0, got {spill_margin}")
        self.shards = int(shards)
        self.start_method = resolve_start_method(start_method)
        self.drain_timeout = float(drain_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.spill_margin = int(spill_margin)
        self.default_adapter: str | None = None
        self._config = {
            "queue_limit": int(queue_limit),
            "max_batch": 32 if max_batch is None else int(max_batch),
            "target_batch_seconds": float(target_batch_seconds),
            "record_batches": int(record_batches),
            "precision": precision,
            "drain_timeout": float(drain_timeout),
        }
        self._context = multiprocessing.get_context(self.start_method)
        self._metrics = MetricsRegistry(enabled=True)
        self._absorbed = MetricsRegistry(enabled=True)
        self._lock = threading.RLock()
        self._specs: "dict[str, TenantSpec]" = {}
        self._affinity: dict[str, int] = {}
        self._token = f"repro-shard-{id(self):x}"
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(self.shards + 2)
        self._address = self._listener.getsockname()
        self._shards = [_Shard(index) for index in range(self.shards)]
        try:
            for shard in self._shards:
                self._spawn(shard)
        except BaseException:
            self.close(0.0)
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()

    # -- lifecycle: spawn / restart / death ------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) one worker and wait for its hello."""
        process = self._context.Process(
            target=_shard_worker_main,
            args=(shard.id, self._address[0], self._address[1], self._token, dict(self._config)),
            name=f"repro-serve-shard-{shard.id}",
            daemon=True,
        )
        process.start()
        deadline = time.monotonic() + CONNECT_TIMEOUT
        conn = None
        while conn is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                process.terminate()
                raise ServeError(
                    f"shard {shard.id} did not connect back within {CONNECT_TIMEOUT}s"
                )
            if process.exitcode is not None:
                raise ServeError(
                    f"shard {shard.id} exited with code {process.exitcode} "
                    f"before connecting back"
                )
            self._listener.settimeout(min(remaining, ACCEPT_POLL))
            try:
                candidate, __ = self._listener.accept()
            except socket.timeout:
                continue
            candidate.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                candidate.settimeout(remaining)
                hello, __ = read_frame_sync(candidate)
                candidate.settimeout(None)
            except (ServeError, OSError):
                candidate.close()
                continue
            if (
                hello.get("op") == "hello"
                and hello.get("token") == self._token
                and hello.get("shard") == shard.id
            ):
                conn = candidate
            else:
                candidate.close()
        with shard.lock:
            shard.process = process
            shard.conn = conn
            shard.alive = True
        reader = threading.Thread(
            target=self._reader_loop,
            args=(shard, conn),
            name=f"repro-shard-reader-{shard.id}",
            daemon=True,
        )
        shard.reader = reader
        reader.start()
        # Re-sync the replicated registry (no-op on first start).  Only a
        # fully synced shard becomes routable — the router must never place
        # a request on a shard that has not reloaded its tenants yet.
        for spec in list(self._specs.values()):
            self._send_spec(shard, spec)
        shard.ready = True

    def _reader_loop(self, shard: _Shard, conn: socket.socket) -> None:
        try:
            while True:
                header, payload = read_frame_sync(conn)
                request_id = header.get("id")
                with shard.lock:
                    kind, future = shard.pending.pop(request_id, (None, None))
                    if kind == "serve":
                        shard.in_flight -= 1
                if future is None:
                    continue
                if kind == "serve":
                    future.set_result(
                        ServeResult(
                            embedding=decode_payload(payload),
                            status=header.get("status", ERROR),
                            timings=Timings.from_dict(header.get("timings") or {}),
                            error=header.get("error"),
                        )
                    )
                else:
                    future.set_result((header, payload))
        except (ServeError, OSError):
            pass
        finally:
            if shard.conn is conn:  # not an old link from before a restart
                self._shard_down(shard)

    def _shard_down(self, shard: _Shard) -> None:
        """Mark a shard dead and answer everything it owed — never hang."""
        with shard.lock:
            was_alive, shard.alive = shard.alive, False
            shard.ready = False
        if not was_alive:
            return
        self._metrics.inc("serve.shard.deaths")
        self._metrics.inc("serve.shard.deaths", shard=str(shard.id))
        if shard.last_stats:
            self._absorb_snapshot(shard.id, shard.last_stats)
            shard.last_stats = {}
        for kind, future in shard.take_pending():
            if kind == "serve":
                future.set_result(
                    ServeResult.failure(
                        ERROR, f"shard {shard.id} died with this request in flight"
                    )
                )
            else:
                if not future.done():
                    future.set_exception(
                        ServeError(f"shard {shard.id} died mid-{kind}")
                    )
        conn = shard.conn
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat_interval)
            if self._closed:
                return
            for shard in self._shards:
                process = shard.process
                if shard.alive and (process is None or not process.is_alive()):
                    self._shard_down(shard)
                if not shard.alive and not self._closed:
                    try:
                        with self._lock:
                            if self._closed:
                                return
                            self._spawn(shard)
                        shard.restarts += 1
                        self._metrics.inc("serve.shard.restarts")
                        self._metrics.inc(
                            "serve.shard.restarts", shard=str(shard.id)
                        )
                    except (ServeError, OSError):
                        continue  # retry next sweep

    # -- control-plane plumbing ------------------------------------------------

    def _roundtrip(
        self,
        shard: _Shard,
        header: dict,
        payload: bytes = b"",
        timeout: float = CONTROL_TIMEOUT,
    ) -> tuple[dict, bytes]:
        """One control op on one shard; raises typed errors, never hangs."""
        future: Future = Future()
        op = str(header.get("op"))
        with shard.lock:
            if not shard.alive or shard.conn is None:
                raise ServeError(f"shard {shard.id} is down")
            request_id = shard.next_id
            shard.next_id += 1
            shard.pending[request_id] = (op, future)
            conn = shard.conn
        frame = encode_frame(dict(header, id=request_id), payload)
        try:
            with shard.write_lock:
                conn.sendall(frame)
        except OSError as exc:
            self._shard_down(shard)
            raise ServeError(f"shard {shard.id} link failed: {exc}") from exc
        reply, blob = future.result(timeout)
        if reply.get("status") != OK:
            raise ServeError(
                f"shard {shard.id} {op} failed: {reply.get('error')}"
            )
        return reply, blob

    def _send_spec(self, shard: _Shard, spec: TenantSpec) -> None:
        reply, __ = self._roundtrip(
            shard,
            {
                "op": "register",
                "name": spec.name,
                "builder": spec.builder,
                "args": list(spec.args),
                "kwargs": dict(spec.kwargs),
                "merge": spec.merge,
                "precision": spec.precision,
                "digest": spec.digest,
                "version": spec.version,
            },
            encode_arrays(spec.state),
        )
        if reply.get("digest") != spec.digest:
            raise ServeError(
                f"shard {shard.id} loaded tenant {spec.name!r} with digest "
                f"{reply.get('digest')!r}, expected {spec.digest!r}"
            )

    def _live_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards if shard.alive]

    # -- the replicated registry ------------------------------------------------

    def register(
        self,
        name: str,
        model_or_result: object,
        *,
        builder: object,
        args: tuple = (),
        kwargs: dict | None = None,
        merge: bool = True,
        precision: str | None = None,
    ) -> str:
        """Replicate one tenant to every shard; returns its state digest.

        ``model_or_result`` supplies the authoritative weights (a Module
        or AttachResult, exactly like ``MultiTenantEngine.register``);
        ``builder``/``args``/``kwargs`` must rebuild the *architecture*
        in a fresh process (module-level callable, JSON-able arguments).
        """
        from repro.peft.checkpoint import state_digest

        with self._lock:
            if self._closed:
                raise ServeError("register() on a closed ShardedEngine")
            module = _serving_module(model_or_result, merge)
            state = module.state_dict()
            previous = self._specs.get(name)
            spec = TenantSpec(
                name=name,
                builder=_builder_path(builder),
                args=tuple(args),
                kwargs=dict(kwargs or {}),
                merge=merge,
                precision=precision,
                state=state,
                digest=state_digest(state),
                version=previous.version + 1 if previous else 1,
            )
            failures = []
            for shard in self._live_shards():
                try:
                    self._send_spec(shard, spec)
                except ServeError as exc:
                    failures.append(str(exc))
            if failures:
                raise ServeError(
                    f"tenant {name!r} failed to replicate: {'; '.join(failures)}"
                )
            self._specs[name] = spec
            if name not in self._affinity:
                self._affinity[name] = len(self._affinity) % self.shards
            return spec.digest

    def swap(self, name: str, model_or_result: object, **kwargs: object) -> str:
        """Hot-swap ``name`` everywhere (must already be registered)."""
        with self._lock:
            if name not in self._specs:
                known = ", ".join(sorted(self._specs)) or "(none)"
                raise ServeError(
                    f"cannot swap unknown tenant {name!r} (registered: {known})"
                )
            previous = self._specs[name]
            kwargs.setdefault("builder", previous.builder)
            kwargs.setdefault("args", previous.args)
            kwargs.setdefault("kwargs", previous.kwargs)
            kwargs.setdefault("merge", previous.merge)
            kwargs.setdefault("precision", previous.precision)
            if isinstance(kwargs["builder"], str):
                kwargs["builder"] = _resolve_builder(kwargs["builder"])
            self._metrics.inc("serve.registry.swap")
            return self.register(name, model_or_result, **kwargs)

    def evict(self, name: str) -> None:
        """Remove ``name`` from every shard."""
        with self._lock:
            if name not in self._specs:
                known = ", ".join(sorted(self._specs)) or "(none)"
                raise ServeError(
                    f"cannot evict unknown tenant {name!r} (registered: {known})"
                )
            del self._specs[name]
            self._affinity.pop(name, None)
            for shard in self._live_shards():
                try:
                    self._roundtrip(shard, {"op": "evict", "name": name})
                except ServeError:
                    continue  # the restart re-sync won't replay it either

    def adapters(self) -> list[str]:
        with self._lock:
            return list(self._specs)

    def affinity(self) -> dict[str, int]:
        """Current adapter → home-shard assignment (router introspection)."""
        with self._lock:
            return dict(self._affinity)

    # -- the router (scheduler surface) ----------------------------------------

    def _place(self, adapter: str) -> _Shard | None:
        """Affinity first, least-in-flight second; None when all are down."""
        live = [shard for shard in self._shards if shard.ready]
        if not live:
            return None
        least = min(live, key=lambda shard: (shard.in_flight, shard.id))
        home_id = self._affinity.get(adapter)
        if home_id is not None:
            home = self._shards[home_id]
            if home.ready and home.in_flight <= least.in_flight + self.spill_margin:
                self._metrics.inc("serve.router.affinity")
                return home
        self._metrics.inc("serve.router.spill")
        return least

    def submit(self, request: ServeRequest) -> "Future[ServeResult]":
        """Route one request to a shard; never blocks, never hangs."""
        if not isinstance(request, ServeRequest):
            raise ServeError(
                f"submit() takes a ServeRequest, got {type(request).__name__}"
            )
        if request.batched:
            raise ServeError(
                "submit() takes single-sample requests; batching is the "
                "shard scheduler's job"
            )
        future: "Future[ServeResult]" = Future()
        adapter = request.adapter if request.adapter is not None else self.default_adapter
        if self._closed:
            self._metrics.inc("serve.request.rejected")
            future.set_result(
                ServeResult.failure(REJECTED, "sharded engine is shutting down")
            )
            return future
        if adapter is None:
            future.set_result(
                ServeResult.failure(
                    ERROR,
                    "ServeRequest.adapter is None and this engine has no "
                    "default_adapter; name the tenant on the request",
                )
            )
            return future
        if adapter not in self._specs:
            known = ", ".join(sorted(self._specs)) or "(none)"
            future.set_result(
                ServeResult.failure(
                    ERROR, f"unknown adapter {adapter!r}; registered: {known}"
                )
            )
            return future
        remaining = None
        if request.deadline is not None:
            remaining = request.deadline_at() - time.perf_counter()
            if remaining <= 0:
                elapsed = time.perf_counter() - request.created_at
                self._metrics.inc("serve.request.deadline_missed")
                future.set_result(
                    ServeResult.failure(
                        DEADLINE_MISSED,
                        f"SLO budget of {request.deadline}s lapsed before routing",
                        Timings(queue_seconds=elapsed, total_seconds=elapsed),
                    )
                )
                return future
        shard = self._place(adapter)
        if shard is None:
            future.set_result(
                ServeResult.failure(ERROR, "no live shard to route to")
            )
            return future
        return self._submit_to(shard, request, adapter, remaining, future)

    def _submit_to(
        self,
        shard: _Shard,
        request: ServeRequest,
        adapter: str,
        remaining: float | None,
        future: "Future[ServeResult]",
    ) -> "Future[ServeResult]":
        header = {
            "op": "serve",
            "adapter": adapter,
            "deadline": remaining,
            "priority": request.priority,
        }
        payload = encode_payload(request.sample)
        with shard.lock:
            if not shard.alive or shard.conn is None:
                future.set_result(
                    ServeResult.failure(ERROR, f"shard {shard.id} is down")
                )
                return future
            request_id = shard.next_id
            shard.next_id += 1
            shard.pending[request_id] = ("serve", future)
            shard.in_flight += 1
            conn = shard.conn
        try:
            with shard.write_lock:
                conn.sendall(encode_frame(dict(header, id=request_id), payload))
        except OSError:
            self._shard_down(shard)
        return future

    def serve_on(
        self, shard_id: int, requests: "list[ServeRequest]", timeout: float = CONTROL_TIMEOUT
    ) -> "list[ServeResult]":
        """Send requests to one specific shard and wait (bench probes)."""
        if not 0 <= shard_id < self.shards:
            raise ServeError(f"no shard {shard_id} (have {self.shards})")
        shard = self._shards[shard_id]
        futures = []
        for request in requests:
            adapter = (
                request.adapter if request.adapter is not None else self.default_adapter
            )
            future: "Future[ServeResult]" = Future()
            remaining = None
            if request.deadline is not None:
                remaining = request.deadline_at() - time.perf_counter()
            futures.append(
                self._submit_to(shard, request, adapter, remaining, future)
            )
        return [future.result(timeout) for future in futures]

    def depth(self) -> int:
        """Requests currently in flight across all shards."""
        return sum(shard.in_flight for shard in self._shards)

    def healthy_shards(self) -> int:
        """Shards that are live *and* registry-synced (hence routable)."""
        return sum(1 for shard in self._shards if shard.ready)

    # -- stats merge-back -------------------------------------------------------

    def _absorb_snapshot(self, shard_id: int, snapshot: dict) -> None:
        self._absorbed.merge(snapshot)
        self._absorbed.merge(_label_snapshot(snapshot, shard_id))

    def _collect(self, op: str = "stats", drain: float | None = None) -> dict[int, dict]:
        """Pull one snapshot per live shard, absorbing shipped spans."""
        snapshots: dict[int, dict] = {}
        for shard in self._live_shards():
            header = {"op": op}
            if op == "close":
                header["drain"] = drain
            try:
                reply, __ = self._roundtrip(shard, header)
            except (ServeError, TimeoutError):
                continue
            snapshot = reply.get("stats") or {}
            shard.last_stats = snapshot
            snapshots[shard.id] = snapshot
            # Spans merge back only while the parent tracer is on: a
            # long-lived server with tracing off must not accumulate
            # worker roots nobody will ever drain.
            if TRACER.enabled:
                merge_worker_obs({}, reply.get("spans") or [], shard=shard.id)
        return snapshots

    def stats(self) -> dict[str, dict]:
        """One unified snapshot: all shards summed + ``{shard=i}`` twins.

        Bare series aggregate across shards (plus anything absorbed from
        shards that died or closed); each series also appears as a
        ``name{shard=i}`` twin so per-shard behavior stays visible.
        Router/lifecycle counters (``serve.router.*``,
        ``serve.shard.*``) come from the parent.
        """
        merged = MetricsRegistry(enabled=True)
        merged.merge(self._absorbed.snapshot())
        for shard_id, snapshot in self._collect().items():
            merged.merge(snapshot)
            merged.merge(_label_snapshot(snapshot, shard_id))
        merged.merge(self._metrics.snapshot())
        return merged.snapshot()

    def shard_stats(self) -> dict[str, dict]:
        """Per-shard breakdown (live snapshot, or last known when down)."""
        snapshots = self._collect()
        out: dict[str, dict] = {}
        for shard in self._shards:
            out[str(shard.id)] = snapshots.get(shard.id, shard.last_stats)
        return out

    def recorded_batches(self) -> dict[int, list[dict]]:
        """Each shard's recorded micro-batches (for bit-identity replay).

        Per batch: ``{"adapters": [...], "statuses": [...], "samples":
        [...], "embeddings": [...]}`` (embeddings ``None`` where the
        request did not serve ``ok``).
        """
        out: dict[int, list[dict]] = {}
        for shard in self._live_shards():
            try:
                reply, blob = self._roundtrip(shard, {"op": "recorded"})
            except (ServeError, TimeoutError):
                continue
            arrays = decode_arrays(blob)
            batches = []
            for b, meta in enumerate(reply.get("batches") or []):
                size = len(meta["adapters"])
                batches.append(
                    {
                        "adapters": list(meta["adapters"]),
                        "statuses": list(meta["statuses"]),
                        "samples": [arrays[f"{b}.{i}.sample"] for i in range(size)],
                        "embeddings": [
                            arrays.get(f"{b}.{i}.embedding") for i in range(size)
                        ],
                    }
                )
            out[shard.id] = batches
        return out

    # -- shutdown ---------------------------------------------------------------

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain every shard, reap the workers, fail whatever remains."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        drain = self.drain_timeout if drain_timeout is None else float(drain_timeout)
        for shard_id, snapshot in self._collect("close", drain).items():
            self._absorb_snapshot(shard_id, snapshot)
        for shard in self._shards:
            self._shard_down(shard)
            process = shard.process
            if process is not None and process.is_alive():
                process.join(timeout=max(drain, 1.0))
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _label_snapshot(snapshot: dict, shard_id: int) -> dict:
    """A twin of ``snapshot`` with ``shard=<id>`` stamped into every name."""
    labeled = {}
    for rendered, series in snapshot.items():
        name, labels = parse_name(rendered)
        if any(key == "shard" for key, __ in labels):
            labeled[rendered] = series
            continue
        combined = tuple(sorted(labels + (("shard", str(shard_id)),)))
        labeled[render_name(name, combined)] = series
    return labeled
