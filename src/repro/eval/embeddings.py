"""Embedding extraction for the KNN protocol."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.errors import EvaluationError
from repro.nn.module import Module, eval_mode
from repro.obs import TRACER


def extract_embeddings(
    model: Module,
    images: np.ndarray,
    batch_size: int = 64,
) -> np.ndarray:
    """Run ``model.features`` over ``images`` in eval mode, without grads.

    Works for plain backbones and for :class:`MetaLoRAModel` alike — meta
    models regenerate their per-sample seeds inside ``features``.  The
    model's prior train/eval mode is restored afterwards.
    """
    if not hasattr(model, "features"):
        raise EvaluationError(
            f"{type(model).__name__} does not expose features(); cannot embed"
        )
    with TRACER.span(
        "eval.embed", samples=int(images.shape[0])
    ), eval_mode(model), no_grad():
        chunks = []
        for start in range(0, images.shape[0], batch_size):
            batch = Tensor(images[start : start + batch_size])
            # .data is safe to hand out uncopied: the final concatenate
            # always allocates a fresh result array.
            chunks.append(model.features(batch).data)
        return np.concatenate(chunks, axis=0)
