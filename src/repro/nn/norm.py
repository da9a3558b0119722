"""Normalization layers: BatchNorm2d (ResNet) and LayerNorm (MLP-Mixer)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autograd.ops import apply
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
        buffers = self._buffers
        return _batch_norm_eval(
            x, self.gamma, self.beta, buffers["running_mean"], buffers["running_var"], self.eps
        )

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


def _batch_norm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> Tensor:
    """Eval-mode batch norm ``(x - mean) / sqrt(var + eps) * gamma + beta``
    as one autograd node, with VJPs for ``x``, ``gamma`` and ``beta``.

    A conv output reaches batch norm as a transposed view of NHWC
    storage, so the node runs over whole ``(N, H*W*C)`` image rows
    against the four per-channel constants tiled along a row, instead of
    looping over ``C``-long runs.  The tiles (and ``sqrt(var + eps)``)
    are graph-free ops of the buffers and parameters alone, so a captured
    forward folds them once.  Bits, dtype and strides are those of the
    composite ``Tensor`` graph: the same elementwise ops on the same
    operands, run in place only where the dtype does not promote, and
    ``eps`` a 0-d float64 operand as ``Tensor`` arithmetic coerces it.
    """
    n, c, h, w = x.shape

    def row(values: np.ndarray) -> np.ndarray:
        return np.tile(values.reshape(c), h * w)

    consts = (
        apply(row, mean),
        apply(lambda v, e: row(np.sqrt(v + e)), var, np.asarray(float(eps))),
        apply(row, gamma),
        apply(row, beta),
    )
    stat_shape = (1, c, 1, 1)
    gamma_shape, beta_shape = gamma.shape, beta.shape

    def grad_gamma(ctx: tuple, g: np.ndarray) -> np.ndarray:
        x_hat = _per_row(ctx[0], ctx[1][:2], _normalize)
        return unbroadcast(g * x_hat, stat_shape).reshape(gamma_shape)

    return Tensor._op(
        _bn_eval_forward,
        (_bn_eval_grad_x, grad_gamma,
         lambda ctx, g: unbroadcast(g, stat_shape).reshape(beta_shape), None, None, None, None),
        x,
        gamma,
        beta,
        *consts,
    )


def _bn_eval_forward(x, gamma, beta, *consts: np.ndarray) -> tuple[np.ndarray, tuple]:
    return _per_row(x, consts, _normalize), (x, consts, gamma)


def _bn_eval_grad_x(ctx: tuple, g: np.ndarray) -> np.ndarray:
    x, consts, gamma = ctx
    c = x.shape[1]
    return g * gamma.reshape(1, c, 1, 1) / consts[1][:c].reshape(1, c, 1, 1)


def _per_row(x: np.ndarray, consts: tuple, fn: Callable) -> np.ndarray:
    """``fn(x, *consts)`` for row-tiled per-channel ``consts``: over whole
    image rows when ``x`` is NHWC storage (returned as the same NHWC view),
    else broadcast per channel.  Degenerate shapes (an ``x`` that is NCHW
    storage too, or one pixel wide) broadcast as well: numpy lays their
    size-1 axes out differently from the row view."""
    n, c, h, w = x.shape
    nhwc = x.transpose(0, 2, 3, 1)
    if nhwc.flags.c_contiguous and not x.flags.c_contiguous and w > 1:
        out = fn(nhwc.reshape(n, h * w * c), *consts)
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return fn(x, *(const[:c].reshape(1, c, 1, 1) for const in consts))


def _normalize(x: np.ndarray, mean: np.ndarray, *scales: np.ndarray) -> np.ndarray:
    """``(x - mean) / denom * gamma + beta`` over however many of ``denom,
    gamma, beta`` are given, allocating a new array only where the dtype
    promotes (f32 params against the f64 denom); every other op runs in
    place on the fresh temporary."""
    out = x - mean
    for ufunc, operand in zip((np.divide, np.multiply, np.add), scales):
        inplace = np.result_type(out, operand) == out.dtype
        out = ufunc(out, operand, out=out if inplace else None)
    return out


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
        return _layer_norm(x, self.gamma, self.beta, self.eps)


def _layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Layer norm over the last axis as one autograd node.

    Bit-identical to the composite ``Tensor`` graph ``(x - x.mean()) /
    sqrt(x.var() + eps) * gamma + beta``, forward and backward.  ``1/count``
    and ``eps`` are 0-d float64 operands, as ``Tensor`` arithmetic coerces
    them.  The composite reaches ``x`` through four nodes, so ``x`` is four
    operands here, one per node: the sweep adds their contributions to
    ``x``'s gradient one at a time in the composite's order (after any
    consumer of ``x`` outside the norm, such as a residual add), which is
    what keeps a Mixer block's gradients bit-equal.
    """
    scale = np.asarray(1.0 / x.shape[-1])
    gamma_shape, beta_shape = gamma.shape, beta.shape
    vjps = tuple(_ln_grad_x(index) for index in range(4)) + (
        lambda ctx, g: unbroadcast(g * ctx["x_hat"], gamma_shape),
        lambda ctx, g: unbroadcast(g, beta_shape),
        None,
        None,
    )
    return Tensor._op(_ln_forward, vjps, x, x, x, x, gamma, beta, scale, np.asarray(float(eps)))


def _ln_forward(x, __, ___, ____, gamma, beta, scale, eps) -> tuple[np.ndarray, dict]:
    mean = x.sum(axis=-1, keepdims=True) * scale
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    std = np.sqrt(var + eps)
    x_hat = centered / std
    ctx = {"x_hat": x_hat, "centered": centered, "std": std, "gamma": gamma, "scale": scale}
    return x_hat * gamma + beta, ctx


def _ln_grad_x(index: int) -> Callable:
    """The VJP of ``x``'s ``index``-th operand.  The first computes all
    four contributions, in the composite sweep's order: ``x - mean``,
    ``mean``'s sum, ``x - mu`` (the variance's centering), ``mu``'s sum."""

    def vjp(ctx: dict, g: np.ndarray) -> np.ndarray:
        if index == 0:
            ctx["dx"] = _ln_contributions(ctx, g)
        dx = ctx["dx"]
        contribution, dx[index] = dx[index], None
        return contribution

    return vjp


def _ln_contributions(ctx: dict, g: np.ndarray) -> list[np.ndarray]:
    centered, std, scale = ctx["centered"], ctx["std"], ctx["scale"]
    shape, stat_shape = centered.shape, std.shape
    g_hat = g * ctx["gamma"]
    g_xm = g_hat / std
    g_std = unbroadcast(-g_hat * centered / (std**2), stat_shape)
    g_var = g_std * 0.5 / std
    g_sq = np.broadcast_to(g_var * scale, shape).astype(g_var.dtype)
    g_centered = g_sq * centered
    g_centered = g_centered + g_sq * centered
    g_mu = unbroadcast(-g_centered, stat_shape) * scale
    g_mean = unbroadcast(-g_xm, stat_shape) * scale
    return [
        g_xm,
        np.broadcast_to(g_mean, shape).astype(g_mean.dtype),
        g_centered,
        np.broadcast_to(g_mu, shape).astype(g_mu.dtype),
    ]
