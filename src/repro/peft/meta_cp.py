"""MetaLoRA (CP) adapters (Sec. III-C Eq. 6 and Sec. III-D).

The weight update is a CP tensor whose λ-weights are the meta-generated
seed ``c``:

    linear:  ΔW(c) = Σ_r A[:, r] B[r, :] c_r        (Eq. 6)
    conv:    ΔW(c) = Σ_r A[:, :, :, r] B[r, :] c_r   (Sec. III-D)

``c`` is installed per batch by :class:`~repro.peft.meta_model.MetaLoRAModel`
via :meth:`set_seed` and has one row per sample, so *every sample gets its
own weight update* — the dynamic adaptation static LoRA lacks.  When no
seed is installed the adapter falls back to a learned static ``c`` (the
"static-seed" ablation, which collapses MetaLoRA to a CP-factored LoRA).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.peft.base import Adapter, AutogradKernels


class MetaLoRACPLinear(Adapter):
    """MetaLoRA (CP) around a frozen linear layer; seed shape ``(R,)``."""

    is_meta = True

    def __init__(
        self,
        base: Linear,
        rank: int,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Linear):
            raise AdapterError(
                f"MetaLoRACPLinear wraps Linear, got {type(base).__name__}"
            )
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.scaling = float(alpha if alpha is not None else rank) / rank
        self.factor_a = Parameter(init.normal(rng, (base.in_features, rank), std=0.02))
        self.factor_b = Parameter(init.zeros((rank, base.out_features)))
        self.static_seed = Parameter(init.ones((rank,)))

    @property
    def seed_shape(self) -> tuple[int, ...]:
        return (self.rank,)

    def add_delta(
        self, k: AutogradKernels, out: Tensor, x: Tensor, seed: Tensor | None
    ) -> Tensor:
        squeeze = x.ndim == 2
        x3 = x.reshape(x.shape[0], 1, x.shape[1]) if squeeze else x
        mid = k.einsum("nti,ir->ntr", x3, k.param(self.factor_a))
        if seed is None:
            mid = mid * k.param(self.static_seed).reshape(1, 1, self.rank)
        else:
            mid = mid * seed.reshape(seed.shape[0], 1, self.rank)
        delta = k.einsum("ntr,ro->nto", mid, k.param(self.factor_b)) * k.scalar(self.scaling)
        if squeeze:
            delta = delta.reshape(x.shape[0], self.base.out_features)
        return out + delta

    def delta_weight(self) -> np.ndarray:
        """ΔW for the *static* seed (Eq. 6 with learned c); meta ΔW is per-sample."""
        return (
            np.einsum(
                "ir,ro,r->io", self.factor_a.data, self.factor_b.data, self.static_seed.data
            )
            * self.scaling
        )

    def extra_parameter_count(self) -> int:
        return self.factor_a.size + self.factor_b.size + self.static_seed.size


class MetaLoRACPConv(Adapter):
    """MetaLoRA (CP) around a frozen conv layer; seed shape ``(R,)``.

    Computation follows Fig. 3: the rank-R factor ``A`` acts as a small
    convolution, the seed scales its channels per sample, and ``B`` is the
    1×1 channel-recovery map.
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
            raise AdapterError(f"MetaLoRACPConv wraps Conv2d, got {type(base).__name__}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.scaling = float(alpha if alpha is not None else rank) / rank
        k = base.kernel_size
        fan_in = base.in_channels * k * k
        self.factor_a = Parameter(
            init.normal(rng, (k, k, base.in_channels, rank), std=1.0 / np.sqrt(fan_in))
        )
        self.factor_b = Parameter(init.zeros((rank, base.out_channels)))
        self.static_seed = Parameter(init.ones((rank,)))

    @property
    def seed_shape(self) -> tuple[int, ...]:
        return (self.rank,)

    def add_delta(
        self, k: AutogradKernels, out: Tensor, x: Tensor, seed: Tensor | None
    ) -> Tensor:
        mid = k.conv(x, k.param(self.factor_a))
        fb = k.param(self.factor_b)
        if seed is None:
            delta = k.einsum("nrhw,r,ro->nohw", mid, k.param(self.static_seed), fb)
        else:
            delta = k.einsum("nrhw,nr,ro->nohw", mid, seed, fb)
        return out + delta * k.scalar(self.scaling)

    def delta_weight(self) -> np.ndarray:
        """Static-seed ΔW of shape ``(K, K, I, O)``."""
        return (
            np.einsum(
                "abir,ro,r->abio",
                self.factor_a.data,
                self.factor_b.data,
                self.static_seed.data,
            )
            * self.scaling
        )

    def extra_parameter_count(self) -> int:
        return self.factor_a.size + self.factor_b.size + self.static_seed.size
