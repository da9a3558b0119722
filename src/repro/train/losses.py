"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import log_softmax
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under ``logits``.

    ``labels`` are constants (no gradient), so they are accepted as a raw
    integer array rather than a Tensor.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, classes) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}"
        )
    log_probs = log_softmax(logits, axis=1)
    return -_pick(log_probs, labels).mean()


def _pick(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """``log_probs[i, labels[i]]`` for every row ``i``.

    ``log_probs[np.arange(n), labels]`` as an op whose kernel checks the
    label range, so a replayed training step checks every batch's labels
    too (numpy would wrap a negative label around silently).
    """
    shape, dtype = log_probs.shape, log_probs.dtype

    def fwd(data: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, tuple]:
        if labels.min() < 0 or labels.max() >= shape[1]:
            raise ShapeError(
                f"labels out of range [0, {shape[1]}): [{labels.min()}, {labels.max()}]"
            )
        index = (np.arange(shape[0]), labels)
        return np.asarray(data[index]), index

    def grad_fn(index: tuple, g: np.ndarray) -> np.ndarray:
        full = np.zeros(shape, dtype=dtype)
        np.add.at(full, index, g)
        return full

    return Tensor._op(fwd, (grad_fn, None), log_probs, labels)


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error against a constant target."""
    target_tensor = target if isinstance(target, Tensor) else Tensor(np.asarray(target))
    diff = prediction - target_tensor
    return (diff * diff).mean()
