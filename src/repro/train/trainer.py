"""Supervised training loop.

Each step is captured once and replayed (:mod:`repro.autograd.capture`).
The first :meth:`Trainer.train_step` for a *capture key* runs
define-by-run under a recorder; every later step with the same key
replays the recorded kernels on the new batch, bit-identical to running
it define-by-run.  The key is the model, the loss function, the batch's
shapes and dtypes, whether gradients are enabled, and every module's
identity and train/eval mode and every parameter's identity,
``requires_grad``, dtype and shape; any change captures a new program
(docs/training.md).

Observability (:mod:`repro.obs`, off by default): ``fit()`` opens a
``train.fit`` span with one ``train.epoch`` child per epoch,
``train_step`` opens a ``train.step`` span with ``train.forward``,
``train.backward`` and ``train.optim`` children and bumps the
``train.step`` counter, and the per-epoch diagnostics land as gauges —
``train.loss`` and ``train.accuracy`` — while
:meth:`Trainer.evaluate` records an ``eval.score`` span and the
``eval.accuracy`` gauge, so ``repro trace`` splits training from
evaluation time.  None of it draws from an RNG: trajectories are
bit-identical with observability on or off.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.autograd.capture import Recorder, StepProgram, recording
from repro.autograd.tensor import Tensor, grad_enabled, no_grad
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
        #: Captured step programs by capture key; ``None`` marks a key
        #: whose step could not be captured (it trains define-by-run).
        self._programs: dict[tuple, StepProgram | None] = {}

    #: At most this many captured programs are kept (oldest evicted).
    MAX_PROGRAMS = 8

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> float:
        """One optimization step; returns the batch loss."""
        with TRACER.span("train.step", step=self._step):
            self.model.train()
            self.optimizer.zero_grad()
            images, labels = np.asarray(images), np.asarray(labels)
            key = self._capture_key(images, labels)
            program = self._programs.get(key)
            if program is not None:
                values = program.start(images, labels)
                with TRACER.span("train.forward"):
                    loss = program.forward(values)
                self._check_loss(loss)
                with TRACER.span("train.backward"):
                    program.backward(values)
            else:
                loss = self._define_by_run(images, labels, key)
            with TRACER.span("train.optim"):
                if self.grad_clip is not None:
                    self._clip_gradients()
                self.optimizer.step()
            self._step += 1
            OBS.enabled and OBS.inc("train.step")
            return float(loss)

    def _define_by_run(self, images: np.ndarray, labels: np.ndarray, key: tuple) -> np.ndarray:
        """Forward and backward through the autograd graph.

        The first step for ``key`` runs under a recorder and keeps the
        program it yields; a key already known to be uncapturable runs
        plain.
        """
        x = Tensor(images)
        if key in self._programs:
            context = contextlib.nullcontext()
        else:
            recorder = Recorder(x, labels, self.model)
            context = recording(recorder)
        with context:
            with TRACER.span("train.forward"):
                loss = self.loss_fn(self.model(x), labels)
            self._check_loss(loss.data)
            with TRACER.span("train.backward"):
                loss.backward()
        if key not in self._programs:
            if len(self._programs) >= self.MAX_PROGRAMS:
                del self._programs[next(iter(self._programs))]
            self._programs[key] = recorder.program()
            OBS.enabled and OBS.inc("train.capture")
        return loss.data

    def _check_loss(self, loss: np.ndarray) -> None:
        if not np.isfinite(loss).all():
            raise TrainingError(
                f"non-finite loss at step {self._step}; "
                "lower the learning rate or enable grad_clip"
            )

    def _capture_key(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        """What a captured program depends on (see the module docstring)."""
        modules = []
        stack = [self.model]
        while stack:
            module = stack.pop()
            modules.append(module)
            stack.extend(module._modules.values())
        params = [param for module in modules for param in module._parameters.values()]
        arrays = [param.data for param in params]
        return (
            id(self.model),
            id(self.loss_fn),
            grad_enabled(),
            images.shape,
            images.dtype,
            labels.shape,
            labels.dtype,
            tuple(map(id, modules)),
            tuple([module.training for module in modules]),
            tuple(map(id, params)),
            tuple([param.requires_grad for param in params]),
            tuple([array.dtype for array in arrays]),
            tuple([array.shape for array in arrays]),
        )

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
