"""Embedding extraction for the KNN protocol."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.errors import EvaluationError
from repro.nn.module import Module, eval_mode
from repro.obs import TRACER
from repro.perf import FLAGS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.registry import MultiTenantEngine


def extract_embeddings(
    model: Module,
    images: np.ndarray,
    batch_size: int = 64,
    engine: "MultiTenantEngine | None" = None,
) -> np.ndarray:
    """Run ``model.features`` over ``images`` in eval mode, without grads.

    Works for plain backbones and for :class:`MetaLoRAModel` alike — meta
    models regenerate their per-sample seeds inside ``features``.  The
    model's prior train/eval mode is restored afterwards.

    With ``engine`` given (an engine from ``repro.serve.build_engine``,
    whose default tenant is ``model``) — or ``FLAGS.serve_embeddings`` set
    (env ``REPRO_SERVE_EMBEDDINGS=1``) — extraction routes through the
    compiled ``repro.serve`` engine instead of the autograd path.  The
    engine chunks identically, so the result is bit-identical; it also
    returns freshly allocated buffers, so no defensive copy is needed on
    that path.
    """
    if not hasattr(model, "features"):
        raise EvaluationError(
            f"{type(model).__name__} does not expose features(); cannot embed"
        )
    if engine is None and FLAGS.serve_embeddings:
        from repro.serve.engine import ENGINES

        engine = ENGINES.get(model)
    if engine is not None:
        from repro.serve.api import ServeRequest, ingest_sample

        with TRACER.span(
            "eval.embed", path="serve", samples=int(images.shape[0])
        ):
            # Chunk exactly like the autograd loop below, so the served
            # rows stay bit-identical to the reference path.
            ingested = ingest_sample(images)
            requests = [
                ServeRequest(sample=ingested[start : start + batch_size])
                for start in range(0, ingested.shape[0], batch_size)
            ]
            results = engine.serve(requests)
            return np.concatenate(
                [result.require() for result in results], axis=0
            )
    with TRACER.span(
        "eval.embed", path="autograd", samples=int(images.shape[0])
    ), eval_mode(model), no_grad():
        chunks = []
        for start in range(0, images.shape[0], batch_size):
            batch = Tensor(images[start : start + batch_size])
            # .data is safe to hand out uncopied: the final concatenate
            # always allocates a fresh result array.
            chunks.append(model.features(batch).data)
        return np.concatenate(chunks, axis=0)
