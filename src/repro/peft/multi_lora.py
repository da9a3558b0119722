"""Multi-LoRA baseline (Wang et al., 2023).

Several parallel LoRA branches with learnable per-branch scaling gates.
The extra capacity lets a static adapter cover a more diverse task mixture
than a single branch, which is why Table I shows Multi-LoRA between plain
LoRA and the meta variants — but the combination weights are still fixed
after training, so it cannot specialize per input.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.nn import init
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.peft.base import AUTOGRAD, Adapter, AutogradKernels
from repro.peft.conv_lora import recover_channels


class _LinearBranch(Module):
    """One (A, B) LoRA pair for a linear target; not itself an adapter."""

    def __init__(
        self, in_features: int, out_features: int, rank: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.lora_a = Parameter(init.normal(rng, (in_features, rank), std=0.02))
        self.lora_b = Parameter(init.zeros((rank, out_features)))

    def delta(self, x: Tensor, k: AutogradKernels = AUTOGRAD) -> Tensor:
        return x @ k.param(self.lora_a) @ k.param(self.lora_b)

    def delta_weight(self) -> np.ndarray:
        return self.lora_a.data @ self.lora_b.data


class _ConvBranch(Module):
    """One (A, B) Conv-LoRA pair; not itself an adapter."""

    def __init__(
        self,
        kernel_size: int,
        in_channels: int,
        out_channels: int,
        rank: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        fan_in = in_channels * kernel_size * kernel_size
        self.lora_a = Parameter(
            init.normal(
                rng,
                (kernel_size, kernel_size, in_channels, rank),
                std=1.0 / np.sqrt(fan_in),
            )
        )
        self.lora_b = Parameter(init.zeros((rank, out_channels)))

    def delta(self, x: Tensor, k: AutogradKernels = AUTOGRAD) -> Tensor:
        return recover_channels(k.conv(x, k.param(self.lora_a)), k.param(self.lora_b))

    def delta_weight(self) -> np.ndarray:
        return np.einsum("abir,ro->abio", self.lora_a.data, self.lora_b.data)


class MultiLoRALinear(Adapter):
    """``ΔW = (α/R) Σ_k g_k · A_k B_k`` over ``branches`` LoRA pairs."""

    def __init__(
        self,
        base: Linear,
        rank: int,
        branches: int = 3,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Linear):
            raise AdapterError(f"MultiLoRALinear wraps Linear, got {type(base).__name__}")
        if branches <= 0:
            raise AdapterError(f"branches must be positive, got {branches}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.branches = branches
        self.scaling = float(alpha if alpha is not None else rank) / rank
        self.lora_branches = ModuleList(
            [
                _LinearBranch(base.in_features, base.out_features, rank, rng)
                for __ in range(branches)
            ]
        )
        self.gates = Parameter(init.ones((branches,)) / branches)

    def add_delta(self, k: AutogradKernels, out: Tensor, x: Tensor, seed: None) -> Tensor:
        gates = k.param(self.gates)
        for i, branch in enumerate(self.lora_branches):
            out = out + branch.delta(x, k) * (gates[i] * k.scalar(self.scaling))
        return out

    def delta_weight(self) -> np.ndarray:
        total = np.zeros_like(self.base.weight.data)
        for k, branch in enumerate(self.lora_branches):
            total += float(self.gates.data[k]) * self.scaling * branch.delta_weight()
        return total

    def extra_parameter_count(self) -> int:
        return self.gates.size + sum(
            b.lora_a.size + b.lora_b.size for b in self.lora_branches
        )


class MultiLoRAConv(Adapter):
    """Multi-branch Conv-LoRA with learnable scaling gates."""

    def __init__(
        self,
        base: Conv2d,
        rank: int,
        branches: int = 3,
        alpha: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, Conv2d):
            raise AdapterError(f"MultiLoRAConv wraps Conv2d, got {type(base).__name__}")
        if branches <= 0:
            raise AdapterError(f"branches must be positive, got {branches}")
        if rank <= 0:
            raise AdapterError(f"rank must be positive, got {rank}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.rank = rank
        self.branches = branches
        self.scaling = float(alpha if alpha is not None else rank) / rank
        self.lora_branches = ModuleList(
            [
                _ConvBranch(
                    base.kernel_size, base.in_channels, base.out_channels, rank, rng
                )
                for __ in range(branches)
            ]
        )
        self.gates = Parameter(init.ones((branches,)) / branches)

    def add_delta(self, k: AutogradKernels, out: Tensor, x: Tensor, seed: None) -> Tensor:
        gates = k.param(self.gates)
        for i, branch in enumerate(self.lora_branches):
            out = out + branch.delta(x, k) * (gates[i] * k.scalar(self.scaling))
        return out

    def delta_weight(self) -> np.ndarray:
        total = np.zeros_like(self.base.weight.data)
        for k, branch in enumerate(self.lora_branches):
            total += float(self.gates.data[k]) * self.scaling * branch.delta_weight()
        return total

    def extra_parameter_count(self) -> int:
        return self.gates.size + sum(
            b.lora_a.size + b.lora_b.size for b in self.lora_branches
        )
