"""Classic LoRA for linear layers (Hu et al., 2021).

``W' = W + (α/R) · A B`` with ``A ∈ R^{I×R}`` (small Gaussian init) and
``B ∈ R^{R×O}`` (zero init, so the adapter starts as the identity).  The
static baseline of Table I.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.peft.base import Adapter


class LoRALinear(Adapter):
    """LoRA adapter around a frozen :class:`~repro.nn.linear.Linear`."""

    def __init__(
        self,
        base: Linear,
        rank: int,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Linear):
            raise AdapterError(f"LoRALinear wraps Linear, got {type(base).__name__}")
        if rank <= 0:
            raise AdapterError(f"LoRA rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.alpha = float(alpha if alpha is not None else rank)
        self.scaling = self.alpha / rank
        self.lora_a = Parameter(init.normal(rng, (base.in_features, rank), std=0.02))
        self.lora_b = Parameter(init.zeros((rank, base.out_features)))

    def add_delta(self, out: Tensor, x: Tensor, seed: None) -> Tensor:
        return out + (x @ self.lora_a @ self.lora_b) * self.scaling

    def delta_weight(self) -> np.ndarray:
        return (self.lora_a.data @ self.lora_b.data) * self.scaling

    def extra_parameter_count(self) -> int:
        """Trainable scalars this adapter adds on top of the frozen base."""
        return self.lora_a.size + self.lora_b.size
