"""Graph-free compiled inference for embedding serving.

``compile_features`` lowers a model's ``features()`` into a flat program
of raw-numpy kernels (no Tensor wrapping, no autograd bookkeeping);
``AdapterRegistry`` + ``MultiTenantEngine`` serve *named* adapters —
hot register/swap/evict, a shared LRU of compiled programs, and
cross-tenant grouping inside one synchronous ``serve`` call —
and ``build_engine`` mounts one compiled model as such an engine's
default tenant.  Programs compile at one of two precision tiers
(f64/f32) and run as one serial step loop.

Every path speaks one typed surface (``api``): ``ServeRequest`` in,
``ServeResult`` out — the engine's ``serve``, the continuous-batching
``scheduler`` (the one queued path) and the asyncio TCP ``frontend``
(its ``ServeClient`` and, with ``ShardedEngine``, N worker processes).
See docs/serving.md and docs/serving_frontend.md.
"""

from repro.serve.api import (
    DEADLINE_MISSED,
    ERROR,
    OK,
    REJECTED,
    STATUSES,
    ServeRequest,
    ServeResult,
    Timings,
    ingest_sample,
)
from repro.serve.compile import (
    PRECISIONS,
    CompiledProgram,
    ProgramBuilder,
    compile_features,
    compile_forward,
    compile_seed_mapping,
    compiles,
    compiles_features,
    resolve_precision,
)
from repro.serve.engine import build_engine
from repro.serve.registry import (
    AdapterEntry,
    AdapterRegistry,
    MultiTenantEngine,
    ProgramCache,
    ProgramKey,
    program_key,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.shard import ShardedEngine, TenantSpec
from repro.serve.frontend import ServeClient, ServingFrontend
from repro.serve.codec import MAX_SEGMENT, decode_payload, encode_payload

__all__ = [
    "AdapterEntry",
    "AdapterRegistry",
    "BatchScheduler",
    "CompiledProgram",
    "DEADLINE_MISSED",
    "ERROR",
    "MAX_SEGMENT",
    "MultiTenantEngine",
    "OK",
    "PRECISIONS",
    "ProgramBuilder",
    "ProgramCache",
    "ProgramKey",
    "REJECTED",
    "STATUSES",
    "ServeClient",
    "ServeRequest",
    "ServeResult",
    "ServingFrontend",
    "ShardedEngine",
    "TenantSpec",
    "Timings",
    "build_engine",
    "compile_features",
    "compile_forward",
    "compile_seed_mapping",
    "compiles",
    "compiles_features",
    "decode_payload",
    "encode_payload",
    "ingest_sample",
    "program_key",
    "resolve_precision",
]
