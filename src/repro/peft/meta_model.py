"""The full MetaLoRA architecture (Fig. 4).

:class:`MetaLoRAModel` ties together the three modules of the paper's
design:

1. **feature extraction** — a frozen backbone embeds the input;
2. **parameter space mapping net** — a shared MLP trunk plus one small
   head per adapted layer maps the embedding to that layer's seed
   (``c ∈ R^R`` for CP, ``C ∈ R^{R×R}`` for TR);
3. **tensor-based parameter integration** — each adapter contracts its
   seed with its learned factors to form a *per-sample* ΔW during the
   backbone forward pass.

Seeds are installed on the adapters just before the forward and removed
right after, so the adapted backbone can still be used standalone (it then
falls back to its static seeds).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.errors import AdapterError
from repro.models.feature_extractor import FeatureExtractor
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.peft.base import Adapter, iter_adapters


class MetaLoRAModel(Module):
    """Backbone with meta adapters + extractor + mapping nets, end to end."""

    def __init__(
        self,
        backbone: Module,
        extractor: FeatureExtractor,
        mapping_hidden: int = 32,
        rng: np.random.Generator | None = None,
        adapters: Iterable[tuple[str, Adapter]] | Mapping[str, Adapter] | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.backbone = backbone
        self.extractor = extractor
        self._meta_names: list[str] = []
        self._meta_adapters: list[Adapter] = []
        # ``adapters`` is typically the AttachResult from peft.attach (it
        # iterates as (name, adapter) pairs in injection order); a mapping
        # works too.  Without it, fall back to re-walking the backbone.
        if adapters is None:
            named = iter_adapters(backbone)
        elif isinstance(adapters, Mapping):
            named = adapters.items()
        else:
            named = adapters
        for name, adapter in named:
            if adapter.is_meta:
                self._meta_names.append(name)
                self._meta_adapters.append(adapter)
        if not self._meta_adapters:
            raise AdapterError(
                "MetaLoRAModel needs at least one meta adapter in the backbone"
            )
        feature_dim = extractor.output_dim
        self.trunk = Linear(feature_dim, mapping_hidden, rng=rng)
        heads = []
        for adapter in self._meta_adapters:
            out_dim = int(np.prod(adapter.seed_shape))
            head = Linear(mapping_hidden, out_dim, rng=rng)
            # Neutral start: constant seed 1 for every sample (CP) or a
            # constant matrix (TR), so meta adaptation grows from a
            # LoRA-like initialization instead of injecting noise.
            head.weight.data[...] = 0.0
            head.bias.data[...] = 1.0
            heads.append(head)
        self.heads = ModuleList(heads)
        # Per-layer learned gain: tanh bounds each seed entry to (-1, 1),
        # which starves CP's diagonal modulation of dynamic range; the gain
        # lets training widen it per adapter.
        self.head_gains = Parameter(np.ones(len(heads), dtype=np.float32))
        # Layout of the fused heads: column span of each head in the
        # concatenated output, and which gain each column belongs to.
        sizes = [int(np.prod(a.seed_shape)) for a in self._meta_adapters]
        self._seed_offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        self._gain_index = np.repeat(np.arange(len(sizes)), sizes)

    @property
    def adapter_names(self) -> list[str]:
        """Dotted names of the meta-adapted layers, in traversal order."""
        return list(self._meta_names)

    def generate_seeds(self, x: Tensor) -> list[Tensor]:
        """Run feature extraction + mapping nets; one seed tensor per adapter.

        Every head reads the same ``hidden``, so the heads run as one
        product against their concatenated weights: each head's output is
        a column block of that one product (``tests/peft/test_batched_seeds.py``
        keeps the per-head loop as its oracle).

        Both products are the two-operand ``einsum("ni,io->no")``, numpy's
        direct kernel rather than BLAS: it reduces each row in the same
        order whatever rows share the call, so a sample's seeds are the
        same bits alone or in any batch (``x @ W`` is not).
        """
        features = self.extractor(x)
        trunk = ops.einsum("ni,io->no", features, self.trunk.weight) + self.trunk.bias
        hidden = ops.relu(trunk)
        fused_w = ops.concat([head.weight for head in self.heads], axis=1)
        fused_b = ops.concat([head.bias for head in self.heads], axis=0)
        heads = ops.einsum("ni,io->no", hidden, fused_w) + fused_b
        scaled = ops.tanh(heads) * self.head_gains[self._gain_index]
        seeds = []
        for i, adapter in enumerate(self._meta_adapters):
            lo, hi = self._seed_offsets[i], self._seed_offsets[i + 1]
            seeds.append(scaled[:, lo:hi].reshape(x.shape[0], *adapter.seed_shape))
        return seeds

    def _install(self, seeds: list[Tensor] | None) -> None:
        for i, adapter in enumerate(self._meta_adapters):
            adapter.set_seed(None if seeds is None else seeds[i])

    def forward(self, x: Tensor) -> Tensor:
        seeds = self.generate_seeds(x)
        self._install(seeds)
        try:
            return self.backbone(x)
        finally:
            self._install(None)

    def features(self, x: Tensor) -> Tensor:
        """Task-adapted embedding of ``x`` (what the KNN protocol consumes)."""
        seeds = self.generate_seeds(x)
        self._install(seeds)
        try:
            return self.backbone.features(x)
        finally:
            self._install(None)

    @property
    def embedding_dim(self) -> int:
        return int(self.backbone.embedding_dim)
