"""Normalization layers: BatchNorm2d (ResNet) and LayerNorm (MLP-Mixer)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autograd.ops import sqrt
from repro.autograd.tensor import Tensor, unbroadcast
from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of ``(N, C, H, W)``.

    Running statistics are tracked as buffers (exponential moving average)
    and used in eval mode, as required by the frozen-backbone evaluation
    protocol: embeddings must be deterministic at eval time.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((channels,)))
        self.beta = Parameter(init.zeros((channels,)))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"BatchNorm2d({self.channels}) got input shape {x.shape}"
            )
        if self.training:
            return _batch_norm_train(x, self.gamma, self.beta, self.eps, self._track)
        mean = Tensor(self._buffers["running_mean"].reshape(1, -1, 1, 1))
        var = Tensor(self._buffers["running_var"].reshape(1, -1, 1, 1))
        x_hat = (x - mean) / sqrt(var + self.eps)
        gamma = self.gamma.reshape(1, self.channels, 1, 1)
        beta = self.beta.reshape(1, self.channels, 1, 1)
        return x_hat * gamma + beta

    def _track(self, ctx: tuple) -> None:
        """Fold one batch's statistics into the running buffers (the
        training op's side effect, a step of a captured training step)."""
        mean, var = ctx[-2], ctx[-1]
        m = self.momentum
        self._buffers["running_mean"] *= 1 - m
        self._buffers["running_mean"] += m * mean.reshape(-1)
        self._buffers["running_var"] *= 1 - m
        self._buffers["running_var"] += m * var.reshape(-1)


def _batch_norm_train(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    effect: Callable[[tuple], None] | None = None,
) -> Tensor:
    """Training-mode batch norm of ``(N, C, H, W)`` as one autograd node.

    The op's ``ctx`` ends with the batch statistics ``(mean, var)``,
    shaped ``(1, C, 1, 1)``; ``effect(ctx)`` (the running-stat update)
    sees them right after the forward.  Bit-identical to the composite
    ``Tensor`` graph ``(x - x.mean()) / sqrt(x.var() + eps) * gamma +
    beta``: the statistics are scaled by the same 0-d float64 ``1/count``
    (so float32 activations come out float64), and the backward replays
    the composite's arithmetic, the memory layout of its intermediates
    (numpy reductions sum in layout order) and the order in which its
    sweep adds the four terms reaching ``x``.  Adding them here rather
    than in the sweep is bit-identical when this node is ``x``'s only
    consumer, as in every shipped model.
    """
    stat_shape = (1, x.shape[1], 1, 1)
    gamma_shape, beta_shape = gamma.shape, beta.shape
    return Tensor._op(
        lambda data, g, b: _bn_forward(data, g, b, eps),
        (_bn_grad_x, lambda ctx, g: unbroadcast(g * ctx[1], stat_shape).reshape(gamma_shape),
         lambda ctx, g: unbroadcast(g, stat_shape).reshape(beta_shape)),
        x,
        gamma,
        beta,
        effect=effect,
    )


def _bn_forward(data: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    shape = data.shape
    stat_shape = (1, shape[1], 1, 1)
    axes = (0, 2, 3)
    scale = np.asarray(1.0 / (shape[0] * shape[2] * shape[3]))
    mean = data.sum(axis=axes, keepdims=True) * scale
    centered = data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * scale
    std = np.sqrt(var + eps)
    x_hat = centered / std
    gamma_r = gamma.reshape(stat_shape)
    out = x_hat * gamma_r + beta.reshape(stat_shape)
    return out, (scale, x_hat, centered, std, gamma_r, mean, var)


def _bn_grad_x(ctx: tuple, g: np.ndarray) -> np.ndarray:
    scale, __, centered, std, gamma_r, __, __ = ctx
    shape = centered.shape
    stat_shape = std.shape
    g_hat = g * gamma_r
    g_xm = g_hat / std
    g_mean_sum = unbroadcast(-g_xm, stat_shape) * scale
    g_std = unbroadcast(-g_hat * centered / (std**2), stat_shape)
    g_var_sum = g_std * 0.5 / std * scale
    # The composite multiplies a materialized (C-contiguous) broadcast
    # of g_var_sum, so its products and sums come out C-contiguous.
    g_sq_c = np.multiply(
        g_var_sum, centered, out=np.empty(shape, np.result_type(g_var_sum, centered))
    )
    g_centered = g_sq_c + g_sq_c
    g_mu_sum = unbroadcast(-g_centered, stat_shape) * scale
    # The composite sweep's order — d(x - mean), mean-sum, d(centered),
    # mu-sum — into a C-contiguous buffer, as its first add (of a
    # materialized broadcast) leaves it.
    dx = np.add(g_xm, g_mean_sum, out=np.empty(shape, np.result_type(g_xm, g_mean_sum)))
    dx += g_centered
    dx += g_mu_sum
    return dx


class LayerNorm(Module):
    """Layer normalization over the last axis (token/channel mixing norm)."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(init.ones((features,)))
        self.beta = Parameter(init.zeros((features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.features:
            raise ShapeError(f"LayerNorm({self.features}) got input shape {x.shape}")
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        x_hat = (x - mean) / sqrt(var + self.eps)
        return x_hat * self.gamma + self.beta
