"""Conv-LoRA (Sec. III-A, Eq. 5, Fig. 3).

For a convolutional tensor ``W ∈ R^{K×K×I×O}`` the update is

    ΔW = A ×₄ B = Σ_r A[..., r] ⊗ B[r, :]

with ``A ∈ R^{K×K×I×R}`` (a *small* convolution producing R channels) and
``B ∈ R^{R×O}`` (a 1×1 channel-recovery convolution).  Figure 3's key
observation — that this factorization *is* a small conv followed by a 1×1
conv — is exactly how the forward pass is computed, so the bench can
verify the algebraic identity ΔW-materialized ≡ two-stage convolution.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.conv import Conv2d
from repro.nn.module import Parameter
from repro.peft.base import Adapter, AutogradKernels


def recover_channels(mid: Tensor, b: Tensor) -> Tensor:
    """Fig. 3's 1x1 channel-recovery conv ``(N, R, H, W) -> (N, O, H, W)``
    as one GEMM over ``mid``'s NHWC storage (a conv output's layout).

    Tensors under autograd, arrays when compiled: the same ops either way.
    """
    n, r, h, w = mid.shape
    rows = mid.transpose(0, 2, 3, 1).reshape(n * h * w, r) @ b
    return rows.reshape(n, h, w, b.shape[1]).transpose(0, 3, 1, 2)


class ConvLoRA(Adapter):
    """Conv-LoRA adapter around a frozen :class:`~repro.nn.conv.Conv2d`."""

    def __init__(
        self,
        base: Conv2d,
        rank: int,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Conv2d):
            raise AdapterError(f"ConvLoRA wraps Conv2d, got {type(base).__name__}")
        if rank <= 0:
            raise AdapterError(f"Conv-LoRA rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.alpha = float(alpha if alpha is not None else rank)
        self.scaling = self.alpha / rank
        k = base.kernel_size
        fan_in = base.in_channels * k * k
        self.lora_a = Parameter(
            init.normal(rng, (k, k, base.in_channels, rank), std=1.0 / np.sqrt(fan_in))
        )
        self.lora_b = Parameter(init.zeros((rank, base.out_channels)))

    def add_delta(self, k: AutogradKernels, out: Tensor, x: Tensor, seed: None) -> Tensor:
        # Fig. 3: small conv to R channels, then a 1x1 conv recovers O channels.
        mid = k.conv(x, k.param(self.lora_a))
        delta = recover_channels(mid, k.param(self.lora_b))
        return out + delta * k.scalar(self.scaling)

    def delta_weight(self) -> np.ndarray:
        """Materialized ΔW = A ×₄ B (Eq. 5), shape ``(K, K, I, O)``."""
        return (
            np.einsum("abir,ro->abio", self.lora_a.data, self.lora_b.data) * self.scaling
        )

    def extra_parameter_count(self) -> int:
        return self.lora_a.size + self.lora_b.size
