"""Supervised training loop.

Observability (:mod:`repro.obs`, off by default): ``fit()`` opens a
``train.fit`` span with one ``train.epoch`` child per epoch,
``train_step`` opens a ``train.step`` span and bumps the ``train.step``
counter, and the per-epoch diagnostics land as gauges —
``train.loss`` and ``train.accuracy`` — while
:meth:`Trainer.evaluate` records an ``eval.score`` span and the
``eval.accuracy`` gauge, so ``repro trace`` splits training from
evaluation time.  None of it draws from an RNG: trajectories are
bit-identical with observability on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.loaders import batches
from repro.errors import TrainingError
from repro.nn.module import Module
from repro.obs import OBS, TRACER
from repro.train.losses import cross_entropy
from repro.train.optim import Optimizer
from repro.utils.logging import get_logger

_logger = get_logger("train")


@dataclass
class TrainResult:
    """Loss/accuracy trajectory of one fit() call."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise TrainingError("no training steps were run")
        return self.losses[-1]


class Trainer:
    """Minibatch trainer for any module mapping images to logits."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable[[Tensor, np.ndarray], Tensor] = cross_entropy,
        grad_clip: float | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.grad_clip = grad_clip
        self._step = 0

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> float:
        """One optimization step; returns the batch loss."""
        with TRACER.span("train.step", step=self._step):
            self.model.train()
            self.optimizer.zero_grad()
            logits = self.model(Tensor(images))
            loss = self.loss_fn(logits, labels)
            if not np.isfinite(loss.data).all():
                raise TrainingError(
                    f"non-finite loss at step {self._step}; "
                    "lower the learning rate or enable grad_clip"
                )
            loss.backward()
            if self.grad_clip is not None:
                self._clip_gradients()
            self.optimizer.step()
            self._step += 1
            OBS.enabled and OBS.inc("train.step")
            return float(loss.data)

    def _clip_gradients(self) -> None:
        total = 0.0
        grads = [p.grad for p in self.optimizer.parameters if p.grad is not None]
        for grad in grads:
            total += float((grad**2).sum())
        norm = np.sqrt(total)
        if norm > self.grad_clip:
            scale = self.grad_clip / (norm + 1e-12)
            for grad in grads:
                grad *= scale

    #: At most this many evenly spaced training samples are re-scored per epoch.
    TRAIN_EVAL_CAP = 256

    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        log_every: int | None = None,
    ) -> TrainResult:
        """Train for ``epochs`` passes; records per-epoch mean loss/accuracy.

        The per-epoch accuracy re-scores the *training* set — a diagnostic
        that could cost more than the epoch itself on large sets — so it
        scores a deterministic, evenly spaced subset of at most
        :data:`TRAIN_EVAL_CAP` samples (exact whenever the set is
        smaller).  The subsample indices are computed without drawing from
        ``rng``, so the re-score never changes the training trajectory.
        """
        if epochs <= 0:
            raise TrainingError(f"epochs must be positive, got {epochs}")
        eval_images, eval_labels = images, labels
        if images.shape[0] > self.TRAIN_EVAL_CAP:
            subsample = np.linspace(
                0, images.shape[0] - 1, self.TRAIN_EVAL_CAP
            ).astype(np.int64)
            eval_images, eval_labels = images[subsample], labels[subsample]
        result = TrainResult()
        with TRACER.span("train.fit", epochs=epochs, batch_size=batch_size):
            for epoch in range(epochs):
                with TRACER.span("train.epoch", epoch=epoch):
                    epoch_losses = []
                    for x_batch, y_batch in batches(images, labels, batch_size, rng):
                        epoch_losses.append(self.train_step(x_batch, y_batch))
                    mean_loss = float(np.mean(epoch_losses))
                    result.losses.append(mean_loss)
                    OBS.enabled and OBS.gauge("train.loss", mean_loss)
                    accuracy = self.evaluate(eval_images, eval_labels, batch_size)
                    result.accuracies.append(accuracy)
                    OBS.enabled and OBS.gauge("train.accuracy", accuracy)
                    if log_every and (epoch + 1) % log_every == 0:
                        _logger.info(
                            "epoch %d/%d  loss=%.4f  acc=%.3f",
                            epoch + 1,
                            epochs,
                            mean_loss,
                            accuracy,
                        )
        return result

    def evaluate(
        self, images: np.ndarray, labels: np.ndarray, batch_size: int = 64
    ) -> float:
        """Classification accuracy with the model in eval mode.

        The model's prior train/eval mode is restored afterwards, so
        evaluating an already-``eval()``-ed model does not silently flip
        it back into training mode.
        """
        was_training = getattr(self.model, "training", True)
        self.model.eval()
        correct = 0
        with TRACER.span("eval.score", samples=int(images.shape[0])), no_grad():
            for x_batch, y_batch in batches(images, labels, batch_size):
                logits = self.model(Tensor(x_batch))
                predictions = logits.data.argmax(axis=1)
                correct += int((predictions == y_batch).sum())
        self.model.train(was_training)
        accuracy = correct / images.shape[0]
        OBS.enabled and OBS.gauge("eval.accuracy", accuracy)
        return accuracy
