"""TT-LoRA baseline (the LoRETTA / TT-LoRA family of Sec. I).

The weight update is held in Tensor-Train format over a reshaped weight
grid: ``ΔW`` viewed as ``(I₁, I₂, O₁, O₂)`` with ``I = I₁·I₂`` and
``O = O₁·O₂`` is parameterized by four TT cores.  Static (no meta
generation) — included so the tensorized-LoRA family the paper competes
with is available as a baseline and in the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.peft.base import Adapter
from repro.tensornet.tensor_train import factorize_dim


class TTLoRALinear(Adapter):
    """TT-factorized weight update for a frozen linear layer.

    Cores: ``G1 (1, I₁, R)``, ``G2 (R, I₂, R)``, ``G3 (R, O₁, R)``,
    ``G4 (R, O₂, 1)``.  The last core is zero-initialized so the adapter
    starts as the identity, matching the LoRA convention.
    """

    def __init__(
        self,
        base: Linear,
        rank: int,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Linear):
            raise AdapterError(f"TTLoRALinear wraps Linear, got {type(base).__name__}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.scaling = float(alpha if alpha is not None else rank) / rank
        self.in_grid = factorize_dim(base.in_features, 2)
        self.out_grid = factorize_dim(base.out_features, 2)
        i1, i2 = self.in_grid
        o1, o2 = self.out_grid
        std = 0.02
        self.core1 = Parameter(init.normal(rng, (1, i1, rank), std=std))
        self.core2 = Parameter(init.normal(rng, (rank, i2, rank), std=std))
        self.core3 = Parameter(init.normal(rng, (rank, o1, rank), std=std))
        self.core4 = Parameter(init.zeros((rank, o2, 1)))

    def delta_weight(self) -> np.ndarray:
        """Materialize ΔW ∈ R^{I×O} from the TT cores."""
        grid = np.einsum(
            "xay,ybz,zcw,wdv->abcd",
            self.core1.data,
            self.core2.data,
            self.core3.data,
            self.core4.data,
        )
        i1, i2 = self.in_grid
        o1, o2 = self.out_grid
        return grid.reshape(i1 * i2, o1 * o2) * self.scaling

    def add_delta(self, out: Tensor, x: Tensor, seed: None) -> Tensor:
        squeeze = x.ndim == 2
        x3 = x.reshape(-1, 1, x.shape[1]) if squeeze else x
        i1, i2 = self.in_grid
        # Contract the input against the TT chain without materializing ΔW.
        x_grid = x3.reshape(-1, x3.shape[1], i1, i2)
        g1 = self.core1.reshape(i1, self.rank)  # (1, I1, R) -> (I1, R)
        t = ops.einsum("ntab,ay->ntby", x_grid, g1)  # (N, T, I2, R)
        t = ops.einsum("ntby,ybz->ntz", t, self.core2)  # (N, T, R)
        t = ops.einsum("ntz,zcw->ntcw", t, self.core3)  # (N, T, O1, R)
        g4 = self.core4.reshape(self.rank, self.out_grid[1])  # (R, O2)
        delta = ops.einsum("ntcw,wd->ntcd", t, g4)  # (N, T, O1, O2)
        delta = delta.reshape(-1, x3.shape[1], self.base.out_features)
        delta = delta * self.scaling
        if squeeze:
            delta = delta.reshape(-1, self.base.out_features)
        return out + delta

    def extra_parameter_count(self) -> int:
        return sum(
            core.size for core in (self.core1, self.core2, self.core3, self.core4)
        )
