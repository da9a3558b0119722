"""One model, one engine: the single-tenant entry points.

:func:`build_engine` compiles a model (or an ``AttachResult``) into a
:class:`~repro.serve.registry.MultiTenantEngine` serving that one
program, mounted as the engine's ``default_adapter`` so requests may
leave ``adapter`` unset.
"""

from __future__ import annotations

from repro.errors import ServeError
from repro.nn.module import Module
from repro.serve.compile import compile_features
from repro.serve.registry import MultiTenantEngine

__all__ = ["build_engine"]

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
    contains no adapter ops at all.  Meta adapters cannot merge; the
    program captures their forward unmerged instead.  ``precision``
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

