"""The public PEFT surface: ``attach`` / ``AttachResult``.

``attach`` is the single entry point for putting adapters on a model::

    result = attach(backbone, method="meta_tr", rank=4, rng=rng)
    ... train result.trainable_parameters() ...
    result.merge()     # static methods: bake ΔW into the base layers
    result.detach()    # or: restore the original, un-adapted layers

Methods are resolved by name through :data:`PEFT_METHODS`, a
:class:`~repro.utils.registry.Registry` — third-party adapters register a
factory and immediately work everywhere ``attach`` is used (the Table I
protocol, the auto-planner, the examples).  A factory receives the layer
being wrapped plus ``rank`` / ``rng`` / any extra keyword options and
returns an :class:`~repro.peft.base.Adapter`.

``attach`` also accepts a *callable* in place of a method name for
callers that need full control (e.g. per-layer ranks in
:func:`repro.peft.auto.apply_plan`); the callable receives each target
layer and returns the adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import AdapterError
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.peft.base import Adapter, get_module, set_module
from repro.peft.bottleneck import BottleneckAdapter
from repro.peft.conv_lora import ConvLoRA
from repro.peft.dora import DoRALinear
from repro.peft.lora import LoRALinear
from repro.peft.meta_cp import MetaLoRACPConv, MetaLoRACPLinear
from repro.peft.meta_tr import MetaLoRATRConv, MetaLoRATRLinear
from repro.peft.moe_lora import MoELoRALinear
from repro.peft.multi_lora import MultiLoRAConv, MultiLoRALinear
from repro.peft.tt_lora import TTLoRALinear
from repro.utils.registry import Registry
from repro.utils.rng import new_rng

#: Name -> adapter factory.  Factories take ``(layer, *, rank, rng,
#: **options)`` and must raise :class:`AdapterError` for layer types they
#: cannot wrap — ``attach`` surfaces that with the offending layer's name.
PEFT_METHODS: Registry[Adapter] = Registry("peft method")


def _linear_only(name: str, cls: type, layer: Module, **kwargs: object) -> Adapter:
    if isinstance(layer, Linear):
        return cls(layer, **kwargs)
    raise AdapterError(
        f"method {name!r} adapts Linear layers only, got {type(layer).__name__} "
        f"(pass targets=(Linear,) to attach)"
    )


@PEFT_METHODS.register("lora")
def _build_lora(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    if isinstance(layer, Conv2d):
        return ConvLoRA(layer, rank, rng=rng, **options)
    return _linear_only("lora", LoRALinear, layer, rank=rank, rng=rng, **options)


@PEFT_METHODS.register("multi_lora")
def _build_multi_lora(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    if isinstance(layer, Conv2d):
        return MultiLoRAConv(layer, rank, rng=rng, **options)
    return _linear_only("multi_lora", MultiLoRALinear, layer, rank=rank, rng=rng, **options)


def _build_meta_cp(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    if isinstance(layer, Conv2d):
        return MetaLoRACPConv(layer, rank, rng=rng, **options)
    return _linear_only("meta_cp", MetaLoRACPLinear, layer, rank=rank, rng=rng, **options)


def _build_meta_tr(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    if isinstance(layer, Conv2d):
        return MetaLoRATRConv(layer, rank, rng=rng, **options)
    return _linear_only("meta_tr", MetaLoRATRLinear, layer, rank=rank, rng=rng, **options)


# The paper's two formats under both their short names and the method
# names the Table I protocol has always used.
PEFT_METHODS.register("meta_cp")(_build_meta_cp)
PEFT_METHODS.register("meta_lora_cp")(_build_meta_cp)
PEFT_METHODS.register("meta_tr")(_build_meta_tr)
PEFT_METHODS.register("meta_lora_tr")(_build_meta_tr)


@PEFT_METHODS.register("moe_lora")
def _build_moe_lora(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    return _linear_only("moe_lora", MoELoRALinear, layer, rank=rank, rng=rng, **options)


@PEFT_METHODS.register("dora")
def _build_dora(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    return _linear_only("dora", DoRALinear, layer, rank=rank, rng=rng, **options)


@PEFT_METHODS.register("tt_lora")
def _build_tt_lora(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    return _linear_only("tt_lora", TTLoRALinear, layer, rank=rank, rng=rng, **options)


@PEFT_METHODS.register("bottleneck")
def _build_bottleneck(layer: Module, *, rank: int, rng: np.random.Generator, **options) -> Adapter:
    # The bottleneck width plays the role rank does elsewhere.
    return _linear_only("bottleneck", BottleneckAdapter, layer, bottleneck=rank, rng=rng, **options)


@dataclass
class AttachResult:
    """Handle over one ``attach`` call: the adapted model plus lifecycle.

    Iterating yields ``(dotted_name, adapter)`` pairs in injection order,
    which is also the deterministic head order
    :class:`~repro.peft.meta_model.MetaLoRAModel` builds from.
    """

    model: Module
    method: str
    adapters: dict[str, Adapter]
    originals: dict[str, Module] = field(repr=False)
    _prior_trainable: list[Parameter] = field(repr=False)
    _state: str = field(default="attached", repr=False)

    def __iter__(self) -> Iterator[tuple[str, Adapter]]:
        return iter(self.adapters.items())

    def __len__(self) -> int:
        return len(self.adapters)

    @property
    def state(self) -> str:
        """``"attached"``, ``"detached"`` or ``"merged"``."""
        return self._state

    @property
    def is_meta(self) -> bool:
        """True if any attached adapter is input-conditioned."""
        return any(adapter.is_meta for adapter in self.adapters.values())

    def named_adapters(self) -> Iterator[tuple[str, Adapter]]:
        yield from self.adapters.items()

    def trainable_parameters(self) -> Iterator[Parameter]:
        yield from self.model.trainable_parameters()

    def _require_attached(self, verb: str) -> None:
        if self._state != "attached":
            raise AdapterError(
                f"cannot {verb}: adapters already {self._state} "
                f"(each AttachResult supports one detach() or merge())"
            )

    def detach(self) -> Module:
        """Restore every original layer; exact inverse of ``attach``.

        The parameters that were trainable before ``attach`` froze the
        model get their gradients back — nothing more, so layers the
        caller had deliberately frozen beforehand stay frozen.
        """
        self._require_attached("detach")
        for name, original in self.originals.items():
            set_module(self.model, name, original)
        for param in self._prior_trainable:
            param.requires_grad = True
        self._state = "detached"
        return self.model

    def merge(self) -> Module:
        """Bake every adapter's ΔW into its base layer, in place.

        Refuses meta (input-conditioned) adapters before touching any
        weight, so a failed merge never leaves the model half-baked.
        Merged base layers are trainable again afterwards — they are
        ordinary layers once the adapter is gone.
        """
        self._require_attached("merge")
        for name, adapter in self.adapters.items():
            if adapter.is_meta:
                raise AdapterError(
                    f"adapter {name!r} is input-conditioned (meta) and cannot "
                    f"be merged; use detach() to recover the original layers"
                )
        for name, adapter in self.adapters.items():
            merged = adapter.merge()
            set_module(self.model, name, merged)
            merged.unfreeze()
        self._state = "merged"
        return self.model

    def digest(self) -> str:
        """Stable SHA-256 identity: adapter families, ranks and weights.

        Computed by :func:`repro.peft.checkpoint.state_digest` — the same
        function adapter-checkpoint manifests embed and the serve
        registry's program-cache keys use — over the model's full weight
        state (parameters and buffers).  Two results digest equal iff
        they would serve identically; any weight mutation (training,
        merge, checkpoint load) changes it.
        """
        from repro.peft.checkpoint import model_digest  # local: avoid cycle

        return model_digest(self.model)

    def serving_model(self, merge: bool = True) -> Module:
        """The model the serve compiler should capture for inference.

        With ``merge=True`` (and only while still attached), static
        adapters are baked into their base layers via :meth:`merge` so the
        compiled program carries no adapter ops.  Meta adapters cannot
        merge — the model is returned as-is and the program captures
        their forward unmerged.  Already-merged or detached results just
        return the model.
        """
        if merge and self._state == "attached" and not self.is_meta:
            return self.merge()
        return self.model


def attach(
    model: Module,
    method: str | Callable[[Module], Adapter] = "meta_tr",
    rank: int = 4,
    *,
    targets: Sequence[type] = (Linear, Conv2d),
    skip: Sequence[str] = (),
    rng: np.random.Generator | None = None,
    **options: object,
) -> AttachResult:
    """Freeze ``model`` and wrap every target layer with ``method``'s adapter.

    ``method`` is a :data:`PEFT_METHODS` name (``"lora"``, ``"meta_tr"``,
    ...) or a callable ``layer -> Adapter``.  ``targets`` lists the layer
    types to wrap; ``skip`` lists dotted names to leave untouched (e.g.
    the classifier head).  Extra keyword ``options`` (``alpha``,
    ``branches``, ``experts``, ...) are forwarded to the method factory.

    Returns an :class:`AttachResult` whose :meth:`~AttachResult.detach` /
    :meth:`~AttachResult.merge` undo or finalize the surgery.
    """
    if isinstance(method, str) and method not in PEFT_METHODS:
        raise AdapterError(
            f"unknown peft method {method!r}; registered: "
            f"{', '.join(PEFT_METHODS.names())}"
        )
    if callable(method):
        factory = method
        method_name = getattr(method, "__name__", type(method).__name__)
    else:
        method_rng = rng if rng is not None else new_rng(0)

        def factory(layer: Module) -> Adapter:
            return PEFT_METHODS.create(
                method, layer, rank=rank, rng=method_rng, **options
            )

        method_name = method

    adapter_prefixes = [
        name for name, module in model.named_modules() if isinstance(module, Adapter)
    ]
    target_names = []
    for name, module in model.named_modules():
        if not (isinstance(module, tuple(targets)) and name and name not in skip):
            continue
        owner = next(
            (p for p in adapter_prefixes if name.startswith(p + ".")), None
        )
        if owner is not None:
            raise AdapterError(
                f"layer {name!r} is already adapted (inside {owner!r}); "
                "detach() or merge() the existing adapters first"
            )
        target_names.append(name)
    if not target_names:
        raise AdapterError(
            f"no layers of type {[t.__name__ for t in targets]} found to adapt"
        )

    prior_trainable = [p for p in model.parameters() if p.requires_grad]
    model.freeze()
    adapters: dict[str, Adapter] = {}
    originals: dict[str, Module] = {}
    for name in target_names:
        layer = get_module(model, name)
        if isinstance(layer, Adapter):
            raise AdapterError(f"layer {name!r} already adapted")
        try:
            adapter = factory(layer)
        except AdapterError as exc:
            raise AdapterError(f"layer {name!r}: {exc}") from exc
        set_module(model, name, adapter)
        adapters[name] = adapter
        originals[name] = layer
    return AttachResult(
        model=model,
        method=method_name,
        adapters=adapters,
        originals=originals,
        _prior_trainable=prior_trainable,
    )
