"""The :class:`Module` base class: parameter registration, freezing, state.

Mirrors the subset of ``torch.nn.Module`` semantics the reproduction needs:
attribute assignment auto-registers parameters and child modules, state
dicts are flat ``name -> array`` mappings, and ``freeze()`` marks a subtree
non-trainable — the mechanism by which PEFT keeps the backbone fixed while
adapters train.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, _recorder
from repro.errors import ShapeError


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.asarray(data), requires_grad=True)


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # -- registration -------------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child under a dynamic name (used by Sequential)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` over the whole subtree."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> Iterator[Parameter]:
        for __, param in self.named_parameters():
            yield param

    def trainable_parameters(self) -> Iterator[Parameter]:
        """Parameters that currently require gradients."""
        for param in self.parameters():
            if param.requires_grad:
                yield param

    def modules(self) -> Iterator["Module"]:
        """Yield self and all descendant modules (pre-order)."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, child in self._modules.items():
            yield from child.named_modules(prefix + name + ".")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # -- counting ----------------------------------------------------------------

    def parameter_count(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the subtree."""
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return sum(p.size for p in params)

    # -- training state -------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout / batchnorm)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def freeze(self) -> "Module":
        """Stop all parameters in the subtree from receiving gradients."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state dict ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter and buffer, keyed by dotted name."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, module in self.named_modules():
            for buf_name, buffer in getattr(module, "_buffers", {}).items():
                key = f"{name}.{buf_name}" if name else buf_name
                state[key] = buffer.copy()
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict`; shapes must match exactly."""
        own: dict[str, np.ndarray | Parameter] = dict(self.named_parameters())
        buffers: dict[str, tuple[Module, str]] = {}
        for name, module in self.named_modules():
            for buf_name in getattr(module, "_buffers", {}):
                key = f"{name}.{buf_name}" if name else buf_name
                buffers[key] = (module, buf_name)
        missing = (set(own) | set(buffers)) - set(state)
        unexpected = set(state) - set(own) - set(buffers)
        if missing or unexpected:
            raise ShapeError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: expected shape {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data[...] = value
        for key, (module, buf_name) in buffers.items():
            value = np.asarray(state[key])
            module._buffers[buf_name][...] = value

    # -- buffers (non-learnable state, e.g. batchnorm running stats) -------------------

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        if not hasattr(self, "_buffers"):
            object.__setattr__(self, "_buffers", {})
        self._buffers[name] = np.asarray(value)

    # -- forward ------------------------------------------------------------------------

    def forward(self, *inputs: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *inputs: Tensor) -> Tensor:
        recorder = _recorder()
        if recorder is None:
            return self.forward(*inputs)
        # A capture names each step after the innermost module running it.
        with recorder.scope(self):
            return self.forward(*inputs)

    def __repr__(self) -> str:
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"


class ModuleList(Module):
    """A list of child modules, registered so parameters are discovered."""

    def __init__(self, modules: Sequence[Module] = ()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        self.register_module(str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


@contextlib.contextmanager
def eval_mode(module: Module) -> Iterator[Module]:
    """Temporarily put ``module`` in eval mode, restoring the prior mode.

    ``Module.train`` flattens the subtree to a single mode, so restoring
    the root's flag is exact for the usual case where modes are set at the
    root (what ``Trainer`` and the evaluation protocol do).
    """
    was_training = module.training
    module.eval()
    try:
        yield module
    finally:
        module.train(was_training)
