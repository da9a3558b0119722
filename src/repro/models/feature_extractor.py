"""Frozen feature extraction (Sec. III-B.1).

MetaLoRA conditions its parameter generation on features of the input.
The paper uses a pre-trained ResNet for this; here any backbone exposing
``features()`` can serve.  The extractor is frozen and its output is a
graph-free op — gradients never flow into it, only into the mapping net
that consumes its output.

For image inputs the embedding is augmented with **global channel
statistics** (per-channel mean and standard deviation).  A full-size
pretrained ResNet's features implicitly carry this low-level style
information; the miniature backbones used here bottleneck it away, so it
is appended explicitly — the style signature is exactly what the mapping
net needs to identify the task (see docs/protocol.md).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import apply
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class FeatureExtractor(Module):
    """Wraps a backbone; emits detached, normalized features (+ statistics).

    ``include_stats`` appends per-channel mean/std for 4-d image inputs;
    it is ignored (with no dimension change) for 2-d feature-vector
    inputs, so callers adapting non-image models simply pass
    ``include_stats=False`` or 2-d data.
    """

    def __init__(
        self,
        backbone: Module,
        normalize: bool = True,
        include_stats: bool = True,
        input_channels: int = 3,
    ) -> None:
        super().__init__()
        if not hasattr(backbone, "features"):
            raise TypeError(
                f"{type(backbone).__name__} does not expose a features() method"
            )
        self.backbone = backbone
        self.backbone.freeze()
        self.backbone.eval()
        self.normalize = normalize
        self.include_stats = include_stats
        self.input_channels = input_channels

    @property
    def output_dim(self) -> int:
        base = int(self.backbone.embedding_dim)
        if self.include_stats:
            return base + 2 * self.input_channels
        return base

    def forward(self, x: Tensor) -> Tensor:
        # The frozen backbone builds no graph, and ``apply`` ends it anyway;
        # no process-wide no_grad, so a capture on another thread is unaffected.
        return apply(self._describe, self.backbone.features(x), x)

    def _describe(self, feats: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Normalize the backbone features and append the channel
        statistics of the input images (one graph-free op)."""
        if self.normalize:
            norms = np.linalg.norm(feats, axis=1, keepdims=True)
            feats = feats / np.maximum(norms, 1e-12)
        if self.include_stats:
            if x.ndim == 4:
                means = x.mean(axis=(2, 3))
                stds = x.std(axis=(2, 3))
            else:
                # Non-image input: keep the dimension contract with zeros.
                means = np.zeros((x.shape[0], self.input_channels), dtype=feats.dtype)
                stds = np.zeros((x.shape[0], self.input_channels), dtype=feats.dtype)
            feats = np.concatenate(
                [feats, means.astype(feats.dtype), stds.astype(feats.dtype)], axis=1
            )
        return feats
