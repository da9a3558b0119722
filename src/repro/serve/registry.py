"""Multi-tenant adapter serving: named adapters behind one engine.

One serving process, many tasks: :class:`AdapterRegistry` manages *named*
adapters — register, hot-swap, evict at runtime — on top of
``peft.attach`` / ``AttachResult.serving_model()``, and
:class:`MultiTenantEngine` serves them synchronously behind the typed
API (``serve(ServeRequest(...))``).  Queueing and micro-batching live in
:class:`~repro.serve.scheduler.BatchScheduler`, the one batcher, which
hands each batch it forms to ``serve``.

Three design points carry the throughput story:

- **Program sharing.**  Compiled slot-programs live in a process-wide-ish
  LRU (:class:`ProgramCache`) keyed by :class:`ProgramKey` — a
  ``(backbone_digest, families, ranks, weights_digest)`` tuple built from
  :func:`repro.peft.checkpoint.state_digest`, the same function checkpoint
  manifests and ``AttachResult.digest()`` use.  Tenants whose merged
  static graphs coincide share one program; counters
  ``serve.program_cache.{hit,miss,evict}`` record the traffic.

- **Split compilation for MetaLoRA tenants.**  A seed-slot tenant
  compiles to *three* programs — extractor (``x → features``), mapping
  (``features → stacked seeds``) and body (``(x, seeds) → embeddings``) —
  keyed independently, so tenants sharing a backbone+extractor but
  trained to different mapping weights share two of the three.

- **Heterogeneous batches.**  ``serve`` groups a batch's requests by
  adapter: static tenants sharing a program are stacked into one run,
  and seed-slot tenants sharing a body are stacked *across tenants* —
  extractor once over the union, mapping once per mapping program (the
  tenants' mapping weights differ), then one body run consuming every
  tenant's seeds.

The identity contract is per request: a request's rows are the bits
that request gets served alone, whatever batch size, tenant mix or shard
it rides in (``tests/property/test_request_invariance.py``).  Every
stage reduces a row independently of its neighbours; the mapping net's
products run through the two-operand einsum kernel rather than BLAS GEMM
for exactly that (``MetaLoRAModel.generate_seeds``).

Metrics: ``serve.requests`` (with a ``{tenant=name}`` labeled twin next
to the bare aggregate), ``serve.request.deadline_missed``, ``serve.run``
(per program execution) and a ``serve.batch.tenants`` histogram
(distinct adapters per dispatch group).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ServeError
from repro.nn.module import Module
from repro.obs import OBS, TRACER
from repro.obs.metrics import MetricsRegistry
from repro.peft.meta_model import MetaLoRAModel
from repro.serve.api import (
    DEADLINE_MISSED,
    ERROR,
    ServeRequest,
    ServeResult,
    Timings,
)
from repro.serve.compile import (
    CompiledProgram,
    compile_features,
    compile_forward,
    compile_seed_mapping,
    resolve_precision,
)

#: Label used on ``serve.run`` when one program execution serves rows
#: from more than one tenant (the cross-tenant stacked runs).
SHARED_TENANT = "(shared)"

#: ``serve.*`` series the engines promise to expose even at zero, so
#: dashboards and ``BENCH_*.json`` counter sections never miss a name.
#: ``serve.request.rejected`` and ``serve.queue.depth`` are recorded by
#: :class:`~repro.serve.scheduler.BatchScheduler`; deadline misses by
#: both the scheduler and ``serve``.
ZERO_SERIES = {
    "serve.request.rejected": {"kind": "counter", "calls": 0},
    "serve.request.deadline_missed": {"kind": "counter", "calls": 0},
    "serve.queue.depth": {"kind": "histogram", "calls": 0, "buckets": {}},
}


# -- program identity ---------------------------------------------------------


class ProgramKey(tuple):
    """Identity of one compiled slot-program.

    A ``(backbone, families, ranks, weights, precision)`` tuple: the
    architecture digest (module-tree class names + state shapes/dtypes,
    prefixed with the program role), the adapter families and ranks
    present, the :func:`~repro.peft.checkpoint.state_digest` of the
    weights the program folds, and the precision tier the program was
    compiled at.  Equal keys ⇒ compiling would produce programs with
    identical outputs, so the cache may hand out one program to many
    tenants; byte-identical tenants compiled at *different* tiers get
    distinct keys (an f32 tenant must never be served an f64 program and
    vice versa).
    """

    __slots__ = ()

    def __new__(
        cls,
        backbone: str,
        families: tuple[str, ...],
        ranks: tuple[int, ...],
        weights: str,
        precision: str = "f64",
    ) -> "ProgramKey":
        return tuple.__new__(
            cls,
            (backbone, tuple(families), tuple(ranks), weights, str(precision)),
        )

    @property
    def backbone(self) -> str:
        return self[0]

    @property
    def families(self) -> tuple[str, ...]:
        return self[1]

    @property
    def ranks(self) -> tuple[int, ...]:
        return self[2]

    @property
    def weights(self) -> str:
        return self[3]

    @property
    def precision(self) -> str:
        return self[4]


def _architecture_digest(role: str, model: Module, state: Mapping[str, np.ndarray]) -> str:
    hasher = hashlib.sha256()
    for name, module in model.named_modules():
        hasher.update(f"{name}={type(module).__name__};".encode())
    for name in sorted(state):
        array = np.asarray(state[name])
        hasher.update(f"{name}:{array.shape}:{array.dtype.str};".encode())
    return f"{role}:{hasher.hexdigest()}"


def program_key(
    model: Module,
    *,
    role: str = "features",
    precision: str | None = None,
) -> ProgramKey:
    """The :class:`ProgramKey` compiling ``model`` (in ``role``) would get.

    ``precision`` resolves like the compile entry points (explicit tier,
    else ``REPRO_SERVE_PRECISION``, else ``f64``).
    """
    from repro.peft.checkpoint import _adapter_meta, state_digest

    state = model.state_dict()
    meta = _adapter_meta(model)
    return ProgramKey(
        backbone=_architecture_digest(role, model, state),
        families=tuple(meta["families"]),
        ranks=tuple(int(rank) for rank in meta["ranks"]),
        weights=state_digest(state, extra=meta),
        precision=resolve_precision(precision),
    )


def _mapping_key(model: MetaLoRAModel, precision: str | None = None) -> ProgramKey:
    """Key for the mapping program: trunk + heads + gains only.

    Deliberately excludes the backbone and extractor, so tenants that
    share them but were trained to different mapping weights get
    distinct mapping programs while sharing the other two.
    """
    from repro.peft.checkpoint import state_digest

    state: dict[str, np.ndarray] = {"head_gains": model.head_gains.data}
    for name, param in model.trunk.named_parameters():
        state[f"trunk.{name}"] = param.data
    for name, param in model.heads.named_parameters():
        state[f"heads.{name}"] = param.data
    hasher = hashlib.sha256()
    for name in sorted(state):
        array = state[name]
        hasher.update(f"{name}:{array.shape}:{array.dtype.str};".encode())
    return ProgramKey(
        backbone=f"mapping:{hasher.hexdigest()}",
        families=(),
        ranks=(),
        weights=state_digest(state),
        precision=resolve_precision(precision),
    )


# -- the compiled-program LRU -------------------------------------------------


class ProgramCache:
    """LRU of compiled slot-programs keyed by :class:`ProgramKey`.

    ``get`` compiles on miss; tenants whose keys coincide receive the
    *same* program object, which is what lets the dispatcher stack their
    requests into one run (grouping is by program identity).  Counters:
    ``serve.program_cache.hit`` / ``.miss`` / ``.evict``.
    """

    def __init__(self, capacity: int = 64, metrics: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ServeError(f"program cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._programs: "OrderedDict[ProgramKey, CompiledProgram]" = OrderedDict()
        self._metrics = metrics if metrics is not None else MetricsRegistry(enabled=True)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __contains__(self, key: ProgramKey) -> bool:
        with self._lock:
            return key in self._programs

    def _count(self, name: str, precision: str | None = None) -> None:
        """Bare counter plus a ``{precision=tier}`` labeled twin.

        The bare series keeps the pre-tier exact-count contract; the
        labeled twin splits the same traffic by precision tier.
        """
        self._metrics.inc(name)
        OBS.enabled and OBS.inc(name)
        if precision is not None:
            self._metrics.inc(name, precision=precision)
            OBS.enabled and OBS.inc(name, precision=precision)

    def get(self, key: ProgramKey, compile_fn: Callable[[], CompiledProgram]) -> CompiledProgram:
        precision = getattr(key, "precision", None)
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
                self._count("serve.program_cache.hit", precision)
                return program
            self._count("serve.program_cache.miss", precision)
            program = compile_fn()
            self._programs[key] = program
            while len(self._programs) > self.capacity:
                evicted_key, __ = self._programs.popitem(last=False)
                self._count(
                    "serve.program_cache.evict",
                    getattr(evicted_key, "precision", None),
                )
            return program

    def stats(self) -> dict[str, dict]:
        return self._metrics.snapshot()


# -- named adapter entries ----------------------------------------------------


class AdapterEntry:
    """One registered adapter: compiled program(s), identity, version.

    ``kind`` is ``"static"`` (one ``program``) or ``"seeded"`` (the
    extractor / mapping / body triple).  ``version`` bumps on every
    hot-swap.
    """

    __slots__ = (
        "name",
        "kind",
        "digest",
        "version",
        "program",
        "extractor",
        "mapping",
        "body",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        digest: str | None,
        *,
        program: CompiledProgram | None = None,
        extractor: CompiledProgram | None = None,
        mapping: CompiledProgram | None = None,
        body: CompiledProgram | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.digest = digest
        self.version = 1
        self.program = program
        self.extractor = extractor
        self.mapping = mapping
        self.body = body

    def run(self, batch: np.ndarray) -> np.ndarray:
        """This tenant's full pipeline on one batch (no cross-tenant work)."""
        if self.kind == "static":
            assert self.program is not None
            return self.program.run(batch)
        assert self.extractor is not None and self.mapping is not None
        assert self.body is not None
        features = self.extractor.run(batch)
        return self.body.run(batch, self.mapping.run(features))


class AdapterRegistry:
    """Named adapters plus the shared :class:`ProgramCache`.

    ``register`` compiles (or cache-hits) the adapter's programs;
    ``swap`` replaces an existing name's weights hot — requests resolve
    their entry when ``serve`` runs them, so queued ones serve the new
    weights;
    ``evict`` removes a name.  All three are safe under concurrent
    serving.
    """

    def __init__(self, *, program_cache_size: int = 64) -> None:
        self._metrics = MetricsRegistry(enabled=True)
        self.programs = ProgramCache(program_cache_size, metrics=self._metrics)
        self._entries: "OrderedDict[str, AdapterEntry]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> list[str]:
        """Registered adapter names, in registration order."""
        with self._lock:
            return list(self._entries)

    def get(self, name: str) -> AdapterEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise ServeError(f"unknown adapter {name!r}; registered: {known}")
        return entry

    def register(
        self,
        name: str,
        model_or_result: object,
        *,
        merge: bool = True,
        replace: bool = False,
        precision: str | None = None,
    ) -> AdapterEntry:
        """Compile and install ``name``; ``replace=True`` allows hot-swap.

        Accepts a :class:`~repro.nn.module.Module` or anything exposing
        ``serving_model(merge=...)`` (an ``AttachResult``).  MetaLoRA
        models compile to the extractor/mapping/body split; everything
        else compiles to one ``features()`` program.  ``precision``
        picks the tenant's tier (explicit, else ``REPRO_SERVE_PRECISION``,
        else ``f64``); tenants at different tiers never share a program.
        """
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and not replace:
                raise ServeError(
                    f"adapter {name!r} is already registered; "
                    f"use swap() (or replace=True) to hot-swap it"
                )
            entry = self._compile_entry(
                name, model_or_result, merge=merge, precision=precision
            )
            if previous is not None:
                entry.version = previous.version + 1
            self._entries[name] = entry
            return entry

    def swap(
        self,
        name: str,
        model_or_result: object,
        *,
        merge: bool = True,
        precision: str | None = None,
    ) -> AdapterEntry:
        """Hot-swap ``name``'s weights; the name must already be registered."""
        with self._lock:
            if name not in self._entries:
                known = ", ".join(sorted(self._entries)) or "(none)"
                raise ServeError(
                    f"cannot swap unknown adapter {name!r} (registered: {known}); "
                    f"use register() to add it"
                )
            self._metrics.inc("serve.registry.swap")
            OBS.enabled and OBS.inc("serve.registry.swap")
            return self.register(
                name, model_or_result, merge=merge, replace=True, precision=precision
            )

    def evict(self, name: str) -> AdapterEntry:
        """Remove ``name``; returns the evicted entry."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise ServeError(f"cannot evict unknown adapter {name!r}; registered: {known}")
        return entry

    def register_program(
        self, name: str, program: CompiledProgram, *, replace: bool = False
    ) -> AdapterEntry:
        """Install a pre-compiled program under ``name`` (bypasses the cache).

        This is how :func:`~repro.serve.engine.build_engine` mounts the
        one program it compiled.
        """
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and not replace:
                raise ServeError(
                    f"adapter {name!r} is already registered; "
                    f"use swap() (or replace=True) to hot-swap it"
                )
            entry = AdapterEntry(name, "static", None, program=program)
            if previous is not None:
                entry.version = previous.version + 1
            self._entries[name] = entry
            return entry

    def register_checkpoint(
        self,
        name: str,
        model: Module,
        path: object,
        *,
        merge: bool = True,
        replace: bool = False,
        precision: str | None = None,
    ) -> AdapterEntry:
        """Load an adapter checkpoint into ``model`` and register the result.

        The checkpoint (written by :func:`repro.peft.save_adapter`) is
        validated against its manifest and against ``model``, then the
        restored model is compiled under ``name`` — the straight
        checkpoint-file → serving-tenant path.
        """
        from repro.peft.checkpoint import load_adapter

        load_adapter(model, path)
        return self.register(
            name, model, merge=merge, replace=replace, precision=precision
        )

    def stats(self) -> dict[str, dict]:
        """Registry counters (program cache + swaps) as a metrics snapshot."""
        self._metrics.gauge("serve.registry.size", len(self))
        return self._metrics.snapshot()

    # -- compilation ----------------------------------------------------------

    def _compile_entry(
        self,
        name: str,
        model_or_result: object,
        merge: bool,
        precision: str | None = None,
    ) -> AdapterEntry:
        model = model_or_result
        if not isinstance(model, Module):
            serving_model = getattr(model, "serving_model", None)
            if serving_model is None or not callable(serving_model):
                raise ServeError(
                    f"register() expects a Module or AttachResult, "
                    f"got {type(model_or_result).__name__}"
                )
            model = serving_model(merge=merge)
            if not isinstance(model, Module):
                raise ServeError(
                    f"serving_model() on {type(model_or_result).__name__} returned "
                    f"{type(model).__name__}, not a Module"
                )
        precision = resolve_precision(precision)
        if isinstance(model, MetaLoRAModel):
            return self._compile_seeded(name, model, precision)
        key = program_key(model, precision=precision)
        program = self.programs.get(
            key, lambda: compile_features(model, precision=precision)
        )
        return AdapterEntry(name, "static", key.weights, program=program)

    def _compile_seeded(
        self, name: str, model: MetaLoRAModel, precision: str
    ) -> AdapterEntry:
        from repro.peft.checkpoint import model_digest

        extractor_key = program_key(model.extractor, role="extractor", precision=precision)
        body_key = program_key(model.backbone, role="body", precision=precision)
        mapping_key = _mapping_key(model, precision)
        extractor = self.programs.get(
            extractor_key, lambda: compile_forward(model.extractor, precision=precision)
        )
        mapping = self.programs.get(
            mapping_key, lambda: compile_seed_mapping(model, precision=precision)
        )
        body = self.programs.get(
            body_key,
            lambda: compile_features(model, external_seeds=True, precision=precision),
        )
        return AdapterEntry(
            name,
            "seeded",
            model_digest(model),
            extractor=extractor,
            mapping=mapping,
            body=body,
        )


# -- the tenant-aware engine --------------------------------------------------


class MultiTenantEngine:
    """Serve many named adapters behind one typed request/response API.

    A synchronous core: :meth:`serve` takes one
    :class:`~repro.serve.api.ServeRequest` or a heterogeneous batch of
    them and returns :class:`~repro.serve.api.ServeResult` objects.
    Queueing, admission control and micro-batching belong to
    :class:`~repro.serve.scheduler.BatchScheduler`, which the frontend
    and every shard put in front of this engine.

    Parameters
    ----------
    registry:
        An :class:`AdapterRegistry` to serve from; omitted, the engine
        owns a fresh one (``program_cache_size`` sizes its LRU).
    precision:
        Default tier for ``register``/``swap`` calls that don't pick one
        (explicit, else ``REPRO_SERVE_PRECISION``, else ``f64``).
    """

    def __init__(
        self,
        registry: AdapterRegistry | None = None,
        *,
        program_cache_size: int = 64,
        precision: str | None = None,
    ) -> None:
        self.precision = resolve_precision(precision)
        self.registry = (
            registry
            if registry is not None
            else AdapterRegistry(program_cache_size=program_cache_size)
        )
        #: Tenant a ``ServeRequest`` with ``adapter=None`` resolves to
        #: (``build_engine`` sets it; bare engines require an explicit
        #: adapter on every request).
        self.default_adapter: str | None = None
        self._metrics = MetricsRegistry(enabled=True)
        self._stats_lock = threading.Lock()
        self._run_lock = threading.Lock()
        self._closed = False

    # -- registry passthroughs ------------------------------------------------

    def register(self, name: str, model_or_result: object, **kwargs: object) -> AdapterEntry:
        kwargs.setdefault("precision", self.precision)
        return self.registry.register(name, model_or_result, **kwargs)

    def swap(self, name: str, model_or_result: object, **kwargs: object) -> AdapterEntry:
        kwargs.setdefault("precision", self.precision)
        return self.registry.swap(name, model_or_result, **kwargs)

    def evict(self, name: str) -> AdapterEntry:
        return self.registry.evict(name)

    def adapters(self) -> list[str]:
        return self.registry.names()

    # -- metric recording -----------------------------------------------------

    def _inc(self, name: str, n: int = 1, *, tenant: str | None = None) -> None:
        """Bare counter plus, given ``tenant``, its ``{tenant=name}`` twin."""
        with self._stats_lock:
            self._metrics.inc(name, n)
            if tenant is not None:
                self._metrics.inc(name, n, tenant=tenant)
        OBS.enabled and OBS.inc(name, n)
        if tenant is not None:
            OBS.enabled and OBS.inc(name, n, tenant=tenant)

    def _hist(self, name: str, value: object) -> None:
        with self._stats_lock:
            self._metrics.hist(name, value)
        OBS.enabled and OBS.hist(name, value)

    def _observe(self, name: str, seconds: float, nbytes: int, *, tenant: str) -> None:
        with self._stats_lock:
            self._metrics.observe(name, seconds, bytes=nbytes)
            self._metrics.observe(name, seconds, bytes=nbytes, tenant=tenant)
        OBS.enabled and OBS.observe(name, seconds, bytes=nbytes)
        OBS.enabled and OBS.observe(name, seconds, bytes=nbytes, tenant=tenant)

    # -- the typed surface ----------------------------------------------------

    def _resolve_adapter(self, request: ServeRequest) -> str:
        name = request.adapter if request.adapter is not None else self.default_adapter
        if name is None:
            raise ServeError(
                "ServeRequest.adapter is None and this engine has no "
                "default_adapter; name the tenant on the request"
            )
        return name

    def serve(
        self, requests: "ServeRequest | Sequence[ServeRequest]"
    ) -> "ServeResult | list[ServeResult]":
        """Serve typed requests synchronously; returns the matching shape.

        Accepts one :class:`~repro.serve.api.ServeRequest` or a
        heterogeneous sequence of them.  Single-sample requests are
        grouped across tenants (stacked static runs, shared seeded
        bodies); batched requests (rank-4 ``sample``) each run
        standalone, with chunking left to the caller.  Every outcome is
        per request: an unknown or evicted tenant, a lapsed deadline or
        a kernel error comes back as that request's non-``ok`` result,
        and the rest of the batch is served.
        """
        if self._closed:
            raise ServeError("serve() on a closed MultiTenantEngine")
        single = isinstance(requests, ServeRequest)
        batch = [requests] if single else list(requests)
        for request in batch:
            if not isinstance(request, ServeRequest):
                raise ServeError(
                    f"serve() takes ServeRequest objects, got {type(request).__name__}"
                )
        results = self._serve_batch(batch)
        return results[0] if single else results

    def _serve_batch(self, requests: list[ServeRequest]) -> list[ServeResult]:
        results: list[ServeResult | None] = [None] * len(requests)
        entries: list[AdapterEntry | None] = [None] * len(requests)
        now = time.perf_counter()
        live: list[int] = []
        for i, request in enumerate(requests):
            # Resolve at serve time: a swap() since submission serves the
            # new weights; an unknown or evicted tenant fails this request.
            try:
                entries[i] = self.registry.get(self._resolve_adapter(request))
            except ServeError as exc:
                results[i] = ServeResult.failure(ERROR, str(exc))
                continue
            if request.expired(now):
                self._inc("serve.request.deadline_missed", tenant=entries[i].name)
                elapsed = now - request.created_at
                results[i] = ServeResult.failure(
                    DEADLINE_MISSED,
                    f"SLO budget of {request.deadline}s lapsed before serving",
                    Timings(total_seconds=elapsed),
                )
            else:
                live.append(i)
        singles = [i for i in live if not requests[i].batched]
        if singles:
            started = time.perf_counter()
            sub_entries = [entries[i] for i in singles]
            shapes = [requests[i].sample.shape for i in singles]
            for indices in self._group_indices(sub_entries, shapes):
                group = [singles[j] for j in indices]
                try:
                    rows = self._serve_group(
                        [entries[i] for i in group],
                        [requests[i].sample for i in group],
                    )
                except BaseException as exc:
                    for i in group:
                        results[i] = ServeResult.failure(
                            ERROR, f"serving failed: {exc}"
                        )
                    continue
                done = time.perf_counter()
                tenants: dict[str, int] = {}
                for i, row in zip(group, rows):
                    name = entries[i].name
                    tenants[name] = tenants.get(name, 0) + 1
                    results[i] = ServeResult(
                        embedding=row,
                        timings=Timings(
                            queue_seconds=started - requests[i].created_at,
                            run_seconds=done - started,
                            total_seconds=done - requests[i].created_at,
                        ),
                    )
                for name, count in tenants.items():
                    self._inc("serve.requests", count, tenant=name)
                self._hist("serve.batch.tenants", len(tenants))
        for i in live:
            request = requests[i]
            if not request.batched:
                continue
            entry = entries[i]
            started = time.perf_counter()
            try:
                with TRACER.span(
                    "serve.request",
                    kind="bulk",
                    tenant=entry.name,
                    samples=int(request.sample.shape[0]),
                ):
                    out = self._run_entry(entry, request.sample)
            except BaseException as exc:
                results[i] = ServeResult.failure(ERROR, f"serving failed: {exc}")
                continue
            done = time.perf_counter()
            self._inc("serve.requests", tenant=entry.name)
            results[i] = ServeResult(
                embedding=out,
                timings=Timings(
                    queue_seconds=started - request.created_at,
                    run_seconds=done - started,
                    total_seconds=done - request.created_at,
                ),
            )
        return results  # type: ignore[return-value]

    def _run_program(
        self,
        program: CompiledProgram,
        inputs: tuple[np.ndarray, ...],
        tenant: str,
    ) -> np.ndarray:
        with self._run_lock:
            start = time.perf_counter()
            out = program.run(*inputs)
            elapsed = time.perf_counter() - start
        self._observe("serve.run", elapsed, out.nbytes, tenant=tenant)
        return out

    def _run_entry(self, entry: AdapterEntry, batch: np.ndarray) -> np.ndarray:
        """One tenant's pipeline on one batch, with per-program metrics."""
        if entry.kind == "static":
            return self._run_program(entry.program, (batch,), entry.name)
        features = self._run_program(entry.extractor, (batch,), entry.name)
        seeds = self._run_program(entry.mapping, (features,), entry.name)
        return self._run_program(entry.body, (batch, seeds), entry.name)

    # -- heterogeneous grouping -----------------------------------------------

    @staticmethod
    def _group_indices(
        entries: Sequence[AdapterEntry], shapes: Sequence[tuple[int, ...]]
    ) -> list[list[int]]:
        """Group request indices by runnable unit and sample shape: static
        tenants by program identity, seeded tenants by body-program
        identity.  Only same-shape samples can be stacked into one run."""
        groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
        for index, (entry, shape) in enumerate(zip(entries, shapes)):
            if entry.kind == "static":
                key = ("static", id(entry.program), shape)
            else:
                key = ("seeded", id(entry.body), shape)
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    def _serve_group(
        self, entries: list[AdapterEntry], samples: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Run one homogeneous group; returns fresh per-request rows.

        Static group: one stacked run.  Seeded group: extractor once per
        distinct extractor program over the stacked union, mapping once
        per mapping program on its tenants' rows, then one body run over
        the union with every tenant's seeds stacked in request order.
        Each row comes out as its request served alone would.
        """
        count = len(entries)
        tenants = {entry.name for entry in entries}
        label = next(iter(tenants)) if len(tenants) == 1 else SHARED_TENANT
        if entries[0].kind == "static":
            out = self._run_program(entries[0].program, (np.stack(samples),), label)
            return [np.ascontiguousarray(out[i]) for i in range(count)]
        x = np.stack(samples)
        feature_rows: list[np.ndarray | None] = [None] * count
        by_extractor: "OrderedDict[int, list[int]]" = OrderedDict()
        for index, entry in enumerate(entries):
            by_extractor.setdefault(id(entry.extractor), []).append(index)
        for indices in by_extractor.values():
            sub = {entries[i].name for i in indices}
            sub_label = next(iter(sub)) if len(sub) == 1 else SHARED_TENANT
            features = self._run_program(
                entries[indices[0]].extractor,
                (x[np.asarray(indices)] if len(indices) < count else x,),
                sub_label,
            )
            for j, i in enumerate(indices):
                feature_rows[i] = features[j]
        seed_rows: list[np.ndarray | None] = [None] * count
        by_mapping: "OrderedDict[int, list[int]]" = OrderedDict()
        for index, entry in enumerate(entries):
            by_mapping.setdefault(id(entry.mapping), []).append(index)
        for indices in by_mapping.values():
            entry = entries[indices[0]]
            features = np.stack([feature_rows[i] for i in indices])
            seeds = self._run_program(entry.mapping, (features,), entry.name)
            for j, i in enumerate(indices):
                seed_rows[i] = seeds[j]
        out = self._run_program(
            entries[0].body, (x, np.stack(seed_rows)), label
        )
        return [np.ascontiguousarray(out[i]) for i in range(count)]

    # -- lifecycle ------------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Engine + registry counters in the unified snapshot schema.

        The engine's own series (bare names, plus ``{tenant=...}``
        labeled twins) are merged with its
        registry's (``serve.program_cache.*``, ``serve.registry.*``).
        """
        with self._stats_lock:
            snapshot = self._metrics.snapshot()
        merged = MetricsRegistry(enabled=True)
        merged.merge(ZERO_SERIES)
        merged.merge(snapshot)
        merged.merge(self.registry.stats())
        return merged.snapshot()

    def close(self) -> None:
        """Mark the engine closed: later ``serve`` calls raise.

        The engine holds no thread or queue; a scheduler in front of it
        drains its own queue on its own ``close``.
        """
        self._closed = True

    def __enter__(self) -> "MultiTenantEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
