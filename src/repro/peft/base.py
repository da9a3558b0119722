"""Adapter base class and model surgery primitives.

:func:`repro.peft.api.attach` walks a model, replaces every target layer
with an adapter wrapping it, and freezes the base weights — the defining
PEFT mechanic: only adapter parameters receive gradients.  This module
holds the pieces it is built from: the :class:`Adapter` base class and
the ``get_module`` / ``set_module`` surgery helpers.  ``merge_adapters``
reverses the surgery, baking each static adapter's ``ΔW`` into the base
layer so inference costs exactly the original model.

An adapter's forward is plain autograd ops, the same code in training
and in serving: :mod:`repro.serve` captures it as it runs, so a family
needs no serving code of its own and serves unmerged.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd.conv_ops import conv_patches, unfold
from repro.autograd.tensor import Tensor
from repro.errors import AdapterError, ShapeError
from repro.nn.conv import Conv2d
from repro.nn.module import Module


class Adapter(Module):
    """Base class for adapters wrapping a frozen ``base`` layer.

    A family whose output is ``base(x) + ΔW(seed)·x`` writes its update
    once, as :meth:`add_delta`, which the inherited ``forward`` runs after
    the base layer.  Families of another shape (DoRA, bottleneck, prefix)
    override ``forward`` instead.  Either way the forward is plain
    autograd ops, which a serving program captures as they run, so every
    family serves unmerged.  Static adapters also implement
    ``delta_weight`` so merging is possible.  Meta adapters
    (input-conditioned ΔW) report ``is_meta = True`` and a ``seed_shape``;
    their ΔW differs per sample, so they cannot merge.
    """

    is_meta = False
    _seed: Tensor | None = None

    def __init__(self, base: Module) -> None:
        super().__init__()
        base.freeze()
        self.base = base

    def add_delta(self, out: Tensor, x: Tensor, seed: Tensor | None) -> Tensor:
        """``out + ΔW(seed)·x``.

        ``out`` is ``base(x)``; ``seed`` is the per-sample seed, or
        ``None`` for the static-seed path.  Conv adapters receive the base
        conv's unfolded patches as ``x`` and run their convs over them
        with :func:`~repro.autograd.conv_ops.conv_patches`.  Reshapes that
        carry the batch axis write it as ``-1``, so a captured forward
        serves any batch size.
        """
        raise AdapterError(f"{type(self).__name__} defines no add_delta")

    def forward(self, x: Tensor) -> Tensor:
        base = self.base
        if isinstance(base, Conv2d):
            # One unfold feeds the base conv and every adapter conv, so
            # backward scatters their summed patch gradients once.
            size = base.kernel_size
            x = unfold(x, size, size, base.stride, base.padding)
            out = conv_patches(x, base.weight, base.bias)
        else:
            out = base(x)
        seed = self._seed
        if seed is not None and seed.shape[0] != x.shape[0]:
            raise ShapeError(f"seed batch {seed.shape[0]} != input batch {x.shape[0]}")
        return self.add_delta(out, x, seed)

    def delta_weight(self) -> np.ndarray:
        """The materialized weight update ``ΔW`` (static adapters only)."""
        raise AdapterError(f"{type(self).__name__} cannot materialize a static ΔW")

    def merge(self) -> Module:
        """Return the base layer with ``ΔW`` folded into its weight.

        Merging is one-shot: a second call would fold ΔW in twice and
        silently corrupt the weights, so it raises instead.
        """
        if getattr(self, "_merged", False):
            raise AdapterError(
                f"{type(self).__name__} is already merged; merging again "
                f"would apply ΔW twice"
            )
        delta = self.delta_weight()
        if delta.shape != self.base.weight.data.shape:
            raise AdapterError(
                f"delta shape {delta.shape} does not match base weight "
                f"{self.base.weight.data.shape}"
            )
        self.base.weight.data[...] = self.base.weight.data + delta
        self._merged = True
        return self.base

    def set_seed(self, seed: Tensor | None) -> None:
        """Install the per-sample ``(N, *seed_shape)`` seed (meta adapters
        only); ``None`` restores the static seed."""
        if not self.is_meta:
            raise AdapterError(f"{type(self).__name__} does not take a generated seed")
        if seed is not None and seed.shape[1:] != self.seed_shape:
            dims = ", ".join(str(dim) for dim in self.seed_shape)
            raise ShapeError(f"seed must be (N, {dims}), got {seed.shape}")
        self._seed = seed


def get_module(root: Module, dotted_name: str) -> Module:
    """Resolve ``"blocks.0.conv1"`` style paths."""
    module: Module = root
    for part in dotted_name.split("."):
        children = module._modules
        if part not in children:
            raise AdapterError(f"no child {part!r} under {type(module).__name__}")
        module = children[part]
    return module


def set_module(root: Module, dotted_name: str, new_module: Module) -> None:
    """Replace the child at ``dotted_name`` with ``new_module``.

    Containers that iterate an internal ``_items`` list (Sequential,
    ModuleList, and any custom block built the same way) are kept
    consistent by *identity*: every slot holding the replaced child is
    updated, regardless of what name the child was registered under.
    Matching on the registered name alone would leave ``_items`` stale
    whenever a container registers children under non-positional names —
    forward() would keep calling the old module while named_modules()
    reports the new one.
    """
    parts = dotted_name.split(".")
    parent = get_module(root, ".".join(parts[:-1])) if len(parts) > 1 else root
    leaf = parts[-1]
    if leaf not in parent._modules:
        raise AdapterError(f"no child {leaf!r} under {type(parent).__name__}")
    old_module = parent._modules[leaf]
    parent.register_module(leaf, new_module)
    items = getattr(parent, "_items", None)
    if isinstance(items, list):
        for index, item in enumerate(items):
            if item is old_module:
                items[index] = new_module


def iter_adapters(model: Module) -> Iterator[tuple[str, Adapter]]:
    """Yield every adapter in the model with its dotted name."""
    for name, module in model.named_modules():
        if isinstance(module, Adapter):
            yield name, module


def merge_adapters(model: Module) -> Module:
    """Merge every static adapter back into its base layer, in place.

    Meta adapters are rejected *before* any weight is touched, so a mixed
    model is never left half-merged.  Each merged base layer is trainable
    again afterwards — once the adapter is gone it is an ordinary layer,
    not a frozen PEFT backbone.
    """
    merged = [(name, adapter) for name, adapter in iter_adapters(model)]
    for name, adapter in merged:
        if adapter.is_meta:
            raise AdapterError(
                f"adapter {name!r} is input-conditioned (meta) and cannot be merged"
            )
    for name, adapter in merged:
        base = adapter.merge()
        set_module(model, name, base)
        base.unfreeze()
    return model
