"""MLP-Mixer backbone (Tolstikhin et al.), CPU-scale.

Images are split into non-overlapping patches, linearly embedded, and
processed by mixer blocks that alternate token mixing (an MLP applied
across patches) with channel mixing (an MLP applied across features).
Table I evaluates MetaLoRA on this architecture alongside ResNet, showing
the method is not specific to convolutions.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import LayerNorm, Linear, Module, ModuleList


class MixerBlock(Module):
    """One mixer block: token-mixing MLP + channel-mixing MLP, pre-norm residual."""

    def __init__(
        self,
        num_patches: int,
        hidden_dim: int,
        token_mlp_dim: int,
        channel_mlp_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(hidden_dim)
        self.token_fc1 = Linear(num_patches, token_mlp_dim, rng=rng)
        self.token_fc2 = Linear(token_mlp_dim, num_patches, rng=rng)
        self.norm2 = LayerNorm(hidden_dim)
        self.channel_fc1 = Linear(hidden_dim, channel_mlp_dim, rng=rng)
        self.channel_fc2 = Linear(channel_mlp_dim, hidden_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        # Token mixing operates across the patch axis: transpose, MLP, restore.
        y = self.norm1(x).transpose(0, 2, 1)
        y = self.token_fc2(ops.gelu(self.token_fc1(y)))
        x = x + y.transpose(0, 2, 1)
        z = self.norm2(x)
        z = self.channel_fc2(ops.gelu(self.channel_fc1(z)))
        return x + z


class MLPMixer(Module):
    """Patch embedding → mixer blocks → layer norm → mean pool → head."""

    def __init__(
        self,
        image_size: int = 16,
        patch_size: int = 4,
        in_channels: int = 3,
        hidden_dim: int = 32,
        token_mlp_dim: int = 16,
        channel_mlp_dim: int = 64,
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
        patch_dim = in_channels * patch_size * patch_size
        self.embed = Linear(patch_dim, hidden_dim, rng=rng)
        self.mixer_blocks = ModuleList(
            [
                MixerBlock(self.num_patches, hidden_dim, token_mlp_dim, channel_mlp_dim, rng=rng)
                for __ in range(depth)
            ]
        )
        self.norm = LayerNorm(hidden_dim)
        self.head = Linear(hidden_dim, num_classes, rng=rng)
        self.embedding_dim = hidden_dim
        self.num_classes = num_classes

    def _patchify(self, x: Tensor) -> Tensor:
        """``(N, C, H, W)`` → ``(N, patches, C·p·p)`` by non-overlapping tiling."""
        n, c, h, w = x.shape
        if h != self.image_size or w != self.image_size or c != self.in_channels:
            raise ShapeError(
                f"MLPMixer expects (N, {self.in_channels}, {self.image_size}, "
                f"{self.image_size}), got {x.shape}"
            )
        p = self.patch_size
        grid = h // p
        x = x.reshape(-1, c, grid, p, grid, p)
        x = x.transpose(0, 2, 4, 1, 3, 5)  # (N, gh, gw, C, p, p)
        return x.reshape(-1, grid * grid, c * p * p)

    def features(self, x: Tensor) -> Tensor:
        """Pooled embedding ``(N, hidden_dim)`` before the classifier."""
        tokens = self.embed(self._patchify(x))
        for block in self.mixer_blocks:
            tokens = block(tokens)
        return self.norm(tokens).mean(axis=1)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.features(x))


def mixer_small(
    num_classes: int, rng: np.random.Generator, image_size: int = 16, in_channels: int = 3
) -> MLPMixer:
    """The CPU-scale MLP-Mixer used throughout the benchmarks."""
    return MLPMixer(
        image_size=image_size,
        patch_size=4,
        in_channels=in_channels,
        hidden_dim=32,
        token_mlp_dim=16,
        channel_mlp_dim=64,
        depth=2,
        num_classes=num_classes,
        rng=rng,
    )
