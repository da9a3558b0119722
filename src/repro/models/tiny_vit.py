"""A tiny Vision Transformer.

Section III-E of the paper points at "broader applications in transformer
architectures" as future work; this module implements that extension:
patch embedding → transformer encoder blocks (multi-head self-attention +
MLP, pre-norm residuals) → mean pool.  All the attention projections are
plain :class:`~repro.nn.linear.Linear` layers, so every adapter in
:mod:`repro.peft` — including the MetaLoRA variants — attaches to a
transformer unchanged.  The ``examples/transformer_extension.py`` script
and the extension bench exercise exactly that.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import LayerNorm, Linear, Module, ModuleList, Parameter
from repro.nn import init


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product attention over token sequences."""

    def __init__(
        self, dim: int, heads: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        t = x.shape[1]
        return x.reshape(-1, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.dim:
            raise ShapeError(f"attention expects (N, T, {self.dim}), got {x.shape}")
        t = x.shape[1]
        q = self._split_heads(self.q_proj(x))  # (N, H, T, D)
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.head_dim))
        weights = ops.softmax(scores, axis=-1)
        attended = weights @ v  # (N, H, T, D)
        merged = attended.transpose(0, 2, 1, 3).reshape(-1, t, self.dim)
        return self.out_proj(merged)


class TransformerBlock(Module):
    """Pre-norm residual block: attention then a GELU MLP."""

    def __init__(
        self,
        dim: int,
        heads: int,
        mlp_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attention = MultiHeadSelfAttention(dim, heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_dim, rng=rng)
        self.fc2 = Linear(mlp_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.norm1(x))
        return x + self.fc2(ops.gelu(self.fc1(self.norm2(x))))


class TinyViT(Module):
    """Patch embedding → transformer blocks → layer norm → mean pool → head."""

    def __init__(
        self,
        image_size: int = 16,
        patch_size: int = 4,
        in_channels: int = 3,
        dim: int = 32,
        heads: int = 4,
        mlp_dim: int = 64,
        depth: int = 2,
        num_classes: int = 10,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if image_size % patch_size != 0:
            raise ShapeError(
                f"image size {image_size} not divisible by patch size {patch_size}"
            )
        rng = rng or np.random.default_rng()
        self.image_size = image_size
        self.patch_size = patch_size
        self.in_channels = in_channels
        grid = image_size // patch_size
        self.num_patches = grid * grid
        self.embed = Linear(in_channels * patch_size * patch_size, dim, rng=rng)
        self.position = Parameter(
            init.normal(rng, (1, self.num_patches, dim), std=0.02)
        )
        self.transformer_blocks = ModuleList(
            [TransformerBlock(dim, heads, mlp_dim, rng=rng) for __ in range(depth)]
        )
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, num_classes, rng=rng)
        self.embedding_dim = dim
        self.num_classes = num_classes

    def _patchify(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if h != self.image_size or w != self.image_size or c != self.in_channels:
            raise ShapeError(
                f"TinyViT expects (N, {self.in_channels}, {self.image_size}, "
                f"{self.image_size}), got {x.shape}"
            )
        p = self.patch_size
        grid = h // p
        x = x.reshape(-1, c, grid, p, grid, p)
        x = x.transpose(0, 2, 4, 1, 3, 5)
        return x.reshape(-1, grid * grid, c * p * p)

    def features(self, x: Tensor) -> Tensor:
        """Pooled embedding ``(N, dim)`` before the classifier."""
        tokens = self.embed(self._patchify(x)) + self.position
        for block in self.transformer_blocks:
            tokens = block(tokens)
        return self.norm(tokens).mean(axis=1)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.features(x))


def vit_small(
    num_classes: int, rng: np.random.Generator, image_size: int = 16
) -> TinyViT:
    """The CPU-scale ViT used by the transformer-extension experiments."""
    return TinyViT(
        image_size=image_size,
        patch_size=4,
        dim=32,
        heads=4,
        mlp_dim=64,
        depth=2,
        num_classes=num_classes,
        rng=rng,
    )
