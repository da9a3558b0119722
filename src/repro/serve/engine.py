"""One model, one engine: the single-tenant entry points.

:func:`build_engine` compiles a model (or an ``AttachResult``) into a
:class:`~repro.serve.registry.MultiTenantEngine` serving that one
program, mounted as the engine's ``default_adapter`` so requests may
leave ``adapter`` unset.  Engine caching lives on an explicit
:class:`Engines` handle, which ``extract_embeddings`` uses when
``FLAGS.serve_embeddings`` routes it through the compiled path.
"""

from __future__ import annotations

import weakref

from repro.errors import ServeError
from repro.nn.module import Module
from repro.serve.compile import compile_features
from repro.serve.registry import MultiTenantEngine

__all__ = [
    "Engines",
    "ENGINES",
    "build_engine",
]

#: Registry name of the one program a :func:`build_engine` engine serves.
DEFAULT_TENANT = "default"


def build_engine(
    model_or_result: object,
    *,
    merge: bool = True,
    precision: str | None = None,
) -> MultiTenantEngine:
    """Compile a model (or an ``AttachResult``) into a ready engine.

    Given an :class:`~repro.peft.api.AttachResult` holding static adapters,
    ``merge=True`` (default) bakes the adapter deltas into the base weights
    via ``AttachResult.merge()`` before compiling — the served program then
    contains no adapter ops at all.  Meta adapters cannot merge; they
    compile through their own ``add_delta`` instead.  ``precision``
    picks the tier (explicit, else ``REPRO_SERVE_PRECISION``, else ``f64``).

    The program is registered as :data:`DEFAULT_TENANT` and set as the
    engine's ``default_adapter``; read it back with
    ``engine.registry.get(engine.default_adapter).program``.
    """
    model = model_or_result
    if not isinstance(model, Module):
        serving_model = getattr(model, "serving_model", None)
        if serving_model is None:
            raise ServeError(
                f"build_engine expects a Module or AttachResult, "
                f"got {type(model_or_result).__name__}"
            )
        if not callable(serving_model):
            raise ServeError(
                f"build_engine: {type(model_or_result).__name__}.serving_model is "
                f"{type(serving_model).__name__}, not callable"
            )
        model = serving_model(merge=merge)
        if not isinstance(model, Module):
            raise ServeError(
                f"build_engine: serving_model() on "
                f"{type(model_or_result).__name__} returned "
                f"{type(model).__name__}, not a Module"
            )
    engine = MultiTenantEngine(precision=precision)
    engine.registry.register_program(
        DEFAULT_TENANT, compile_features(model, precision=precision)
    )
    engine.default_adapter = DEFAULT_TENANT
    return engine


class Engines:
    """An explicit handle over per-model cached engines.

    One lazily-built engine per model, weakly keyed: dropping the model
    drops its engine.  Weights mutated after compilation are not picked
    up — :meth:`clear` (or dropping the model) forces recompilation.  A
    handle callers can own, scope and close, rather than module-level
    global state.
    """

    def __init__(self, *, precision: str | None = None) -> None:
        self._engines: "weakref.WeakKeyDictionary[Module, MultiTenantEngine]" = (
            weakref.WeakKeyDictionary()
        )
        self._precision = precision

    def get(self, model: Module) -> MultiTenantEngine:
        """The cached engine for ``model``, compiling on first use."""
        engine = self._engines.get(model)
        if engine is None:
            engine = self._engines[model] = build_engine(
                model, precision=self._precision
            )
        return engine

    def clear(self) -> None:
        """Drop every cached engine (forces recompilation on next use)."""
        for engine in list(self._engines.values()):
            engine.close()
        self._engines.clear()

    def __len__(self) -> int:
        return len(self._engines)

    def __contains__(self, model: Module) -> bool:
        return model in self._engines


#: Default handle for the flag-gated protocol path
#: (``FLAGS.serve_embeddings``).  The tier is pinned to f64 — routing
#: ``extract_embeddings`` through the engine is contracted bit-identical
#: to the autograd path, and must stay so even when
#: ``REPRO_SERVE_PRECISION`` relaxes serving tiers.
ENGINES = Engines(precision="f64")
