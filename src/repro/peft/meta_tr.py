"""MetaLoRA (TR) adapters (Sec. III-C Eq. 7 and Sec. III-D).

The weight update is a Tensor-Ring contraction whose closure matrix ``C``
is meta-generated:

    linear:  ΔW(C) = Σ_{r₀,r₁,r₂} A[r₀, :, r₁] B[r₁, :, r₂] C[r₂, r₀]
    conv:    ΔW(C) = Σ_{r₀,r₁,r₂} A[r₀, :, :, :, r₁] B[r₁, :, r₂] C[r₂, r₀]

Compared to CP's diagonal seed, the TR closure mixes rank channels through
a full ``R×R`` matrix — strictly more expressive per seed scalar, which is
the paper's explanation for TR edging out CP in Table I.  The uniform
ring rank ``R`` is used throughout (``R₀ = R₁ = R₂ = R``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.conv_ops import conv_patches
from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.peft.base import Adapter


class MetaLoRATRLinear(Adapter):
    """MetaLoRA (TR) around a frozen linear layer; seed shape ``(R, R)``."""

    is_meta = True

    def __init__(
        self,
        base: Linear,
        rank: int,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Linear):
            raise AdapterError(f"MetaLoRATRLinear wraps Linear, got {type(base).__name__}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.scaling = float(alpha if alpha is not None else rank) / rank
        self.core_a = Parameter(
            init.normal(rng, (rank, base.in_features, rank), std=0.02)
        )
        self.core_b = Parameter(init.zeros((rank, base.out_features, rank)))
        self.static_seed = Parameter(np.eye(rank, dtype=np.float32))

    @property
    def seed_shape(self) -> tuple[int, ...]:
        return (self.rank, self.rank)

    def add_delta(self, out: Tensor, x: Tensor, seed: Tensor | None) -> Tensor:
        squeeze = x.ndim == 2
        x3 = x.reshape(-1, 1, x.shape[1]) if squeeze else x
        # t1[n,t,p,r] = Σ_i x[n,t,i] A[p,i,r]
        t1 = ops.einsum("nti,pir->ntpr", x3, self.core_a)
        if seed is None:
            # delta[n,t,o] = Σ t1[n,t,p,r] B[r,o,q] C[q,p]
            delta = ops.einsum("ntpr,roq,qp->nto", t1, self.core_b, self.static_seed)
        else:
            delta = ops.einsum("ntpr,roq,nqp->nto", t1, self.core_b, seed)
        delta = delta * self.scaling
        if squeeze:
            delta = delta.reshape(-1, self.base.out_features)
        return out + delta

    def delta_weight(self) -> np.ndarray:
        """Static-seed ΔW (Eq. 7 with the learned closure matrix)."""
        return (
            np.einsum(
                "pir,roq,qp->io",
                self.core_a.data,
                self.core_b.data,
                self.static_seed.data,
            )
            * self.scaling
        )

    def extra_parameter_count(self) -> int:
        return self.core_a.size + self.core_b.size + self.static_seed.size


class MetaLoRATRConv(Adapter):
    """MetaLoRA (TR) around a frozen conv layer; seed shape ``(R, R)``.

    The spatial core ``A ∈ R^{R×K×K×I×R}`` acts as a convolution with
    ``R·R`` output channels (one per (ring-left, ring-right) pair); the
    closure matrix then mixes the ring indices per sample before ``B``
    recovers the output channels.
    """

    is_meta = True

    def __init__(
        self,
        base: Conv2d,
        rank: int,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Conv2d):
            raise AdapterError(f"MetaLoRATRConv wraps Conv2d, got {type(base).__name__}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.scaling = float(alpha if alpha is not None else rank) / rank
        k = base.kernel_size
        fan_in = base.in_channels * k * k
        self.core_a = Parameter(
            init.normal(
                rng, (rank, k, k, base.in_channels, rank), std=1.0 / np.sqrt(fan_in)
            )
        )
        self.core_b = Parameter(init.zeros((rank, base.out_channels, rank)))
        self.static_seed = Parameter(np.eye(rank, dtype=np.float32))

    @property
    def seed_shape(self) -> tuple[int, ...]:
        return (self.rank, self.rank)

    def add_delta(self, out: Tensor, x: Tensor, seed: Tensor | None) -> Tensor:
        r = self.rank
        size = self.base.kernel_size
        # A as one convolution with R·R output channels, index = p·R + r1.
        a_conv = self.core_a.transpose(1, 2, 3, 0, 4).reshape(
            size, size, self.base.in_channels, r * r
        )
        mid = conv_patches(x, a_conv)
        __, __, h, w = mid.shape
        mid = mid.reshape(-1, r, r, h, w)  # (N, p, r1, H, W)
        if seed is None:
            delta = ops.einsum("nprhw,roq,qp->nohw", mid, self.core_b, self.static_seed)
        else:
            delta = ops.einsum("nprhw,roq,nqp->nohw", mid, self.core_b, seed)
        return out + delta * self.scaling

    def delta_weight(self) -> np.ndarray:
        """Static-seed ΔW of shape ``(K, K, I, O)``."""
        return (
            np.einsum(
                "pabir,roq,qp->abio",
                self.core_a.data,
                self.core_b.data,
                self.static_seed.data,
            )
            * self.scaling
        )

    def extra_parameter_count(self) -> int:
        return self.core_a.size + self.core_b.size + self.static_seed.size
