"""MoE-LoRA baseline (Liu et al., 2023), feature-gated variant.

A mixture of LoRA experts combined by a per-sample softmax gate.  Like
MetaLoRA the gate is input-conditioned (the gate logits arrive through
:meth:`set_seed`, computed from extracted features), but the adaptation is
restricted to convex combinations of a few fixed experts rather than a
continuously generated seed — the architectural contrast the paper draws
with MOELoRA in Sec. I.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.module import ModuleList, Parameter
from repro.peft.base import Adapter
from repro.peft.multi_lora import _LinearBranch


class MoELoRALinear(Adapter):
    """Per-sample softmax mixture over ``experts`` LoRA branches."""

    is_meta = True

    def __init__(
        self,
        base: Linear,
        rank: int,
        experts: int = 4,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Linear):
            raise AdapterError(f"MoELoRALinear wraps Linear, got {type(base).__name__}")
        if experts <= 0:
            raise AdapterError(f"experts must be positive, got {experts}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.experts = experts
        self.scaling = float(alpha if alpha is not None else rank) / rank
        self.expert_branches = ModuleList(
            [
                _LinearBranch(base.in_features, base.out_features, rank, rng)
                for __ in range(experts)
            ]
        )
        self.static_gate_logits = Parameter(init.zeros((experts,)))

    @property
    def seed_shape(self) -> tuple[int, ...]:
        """Per-sample gate logits, one per expert."""
        return (self.experts,)

    def add_delta(self, out: Tensor, x: Tensor, seed: Tensor | None) -> Tensor:
        squeeze = x.ndim == 2
        x3 = x.reshape(-1, 1, x.shape[1]) if squeeze else x
        deltas = [branch.delta(x3) for branch in self.expert_branches]
        if seed is None:
            gates = ops.softmax(self.static_gate_logits.reshape(1, self.experts))
            gates = gates.reshape(1, 1, self.experts)
            mixed = deltas[0] * gates[:, :, 0]
            for i in range(1, self.experts):
                mixed = mixed + deltas[i] * gates[:, :, i]
        else:
            gates = ops.softmax(seed)  # (N, experts)
            stacked = ops.stack(deltas, axis=3)  # (N, T, O, K)
            mixed = ops.einsum("ntok,nk->nto", stacked, gates)
        mixed = mixed * self.scaling
        if squeeze:
            mixed = mixed.reshape(-1, self.base.out_features)
        return out + mixed

    def extra_parameter_count(self) -> int:
        return self.static_gate_logits.size + sum(
            b.lora_a.size + b.lora_b.size for b in self.expert_branches
        )
