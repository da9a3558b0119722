"""First-order optimizers.

Parameters whose gradient is ``None`` are skipped (e.g. the static seeds
of meta adapters when per-sample seeds are active) — the optimizer only
touches what the loss actually reached.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.nn.module import Parameter


class Optimizer:
    """Base: holds the parameter list and the shared step/zero_grad API."""

    def __init__(self, parameters, lr: float) -> None:
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise TrainingError("optimizer received no parameters")
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        self.lr = float(lr)


class SGD(Optimizer):
    """SGD with optional momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction.

    The moments live in one flat ``m`` and one flat ``v`` buffer per
    parameter dtype, and a step updates each buffer with one set of
    elementwise ops instead of seven temporaries per parameter.  Each
    parameter owns a span of its dtype's buffers; ``_m[i]`` and ``_v[i]``
    are views of parameter ``i``'s spans.  Parameters whose ``grad`` is
    ``None`` keep their moments and values.  The ops are elementwise, so
    every value is bit-identical to updating parameter by parameter
    whenever each gradient has its parameter's dtype, as ``backward()``
    leaves it.
    """

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        self._m: list[np.ndarray] = [None] * len(self.parameters)
        self._v: list[np.ndarray] = [None] * len(self.parameters)
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, param in enumerate(self.parameters):
            by_dtype.setdefault(param.data.dtype, []).append(i)
        #: ``(indices, spans, m, v, masks)`` per parameter dtype.
        self._groups = []
        for dtype, indices in by_dtype.items():
            sizes = [self.parameters[i].data.size for i in indices]
            ends = np.cumsum(sizes).tolist()
            spans = [slice(end - size, end) for size, end in zip(sizes, ends)]
            m = np.zeros(ends[-1], dtype=dtype)
            v = np.zeros(ends[-1], dtype=dtype)
            for i, span in zip(indices, spans):
                shape = self.parameters[i].data.shape
                self._m[i] = m[span].reshape(shape)
                self._v[i] = v[span].reshape(shape)
            self._groups.append((indices, spans, m, v, {}))

    def _apply_decay(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        # Classic Adam: L2 folded into the gradient.
        if self.weight_decay:
            return grad + self.weight_decay * param.data
        return grad

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for indices, spans, m, v, masks in self._groups:
            active = tuple(self.parameters[i].grad is not None for i in indices)
            if not any(active):
                continue
            partial = not all(active)
            grad = (np.zeros if partial else np.empty)(m.shape, m.dtype)
            for i, span, on in zip(indices, spans, active):
                if on:
                    param = self.parameters[i]
                    grad[span] = self._apply_decay(param, param.grad).reshape(-1)
            new_m = self.beta1 * m + (1 - self.beta1) * grad
            new_v = self.beta2 * v + (1 - self.beta2) * grad**2
            if partial:
                mask = masks.get(active)
                if mask is None:
                    mask = masks[active] = np.zeros(m.shape, dtype=bool)
                    for span, on in zip(spans, active):
                        mask[span] = on
                np.copyto(m, new_m, where=mask)
                np.copyto(v, new_v, where=mask)
            else:
                m[...] = new_m
                v[...] = new_v
            update = self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            for i, span, on in zip(indices, spans, active):
                if on:
                    param = self.parameters[i]
                    param.data -= update[span].reshape(param.data.shape)


class AdamW(Adam):
    """Adam with *decoupled* weight decay (Loshchilov & Hutter)."""

    def _apply_decay(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            param.data -= self.lr * self.weight_decay * param.data
        return grad
