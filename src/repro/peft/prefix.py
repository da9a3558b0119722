"""Prefix tuning (Li & Liang, 2021) for transformer attention.

The second classic PEFT baseline Sec. V lists.  A learned prefix of
``prefix_length`` key/value pairs is prepended to every attention head:
queries attend over ``[prefix ; tokens]``, so the prefix steers attention
without touching any base weight.  Wraps
:class:`~repro.models.tiny_vit.MultiHeadSelfAttention`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd import ops
from repro.autograd.ops import concat
from repro.autograd.tensor import Tensor, unbroadcast
from repro.errors import AdapterError
from repro.models.tiny_vit import MultiHeadSelfAttention
from repro.nn import init
from repro.nn.module import Parameter
from repro.peft.base import Adapter


class PrefixTuningAttention(Adapter):
    """Attention with ``prefix_length`` learned key/value slots per head."""

    def __init__(
        self,
        base: MultiHeadSelfAttention,
        prefix_length: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not isinstance(base, MultiHeadSelfAttention):
            raise AdapterError(
                f"PrefixTuningAttention wraps MultiHeadSelfAttention, "
                f"got {type(base).__name__}"
            )
        if prefix_length <= 0:
            raise AdapterError(f"prefix_length must be positive, got {prefix_length}")
        super().__init__(base)
        rng = rng or np.random.default_rng()
        self.prefix_length = prefix_length
        heads, head_dim = base.heads, base.head_dim
        self.prefix_keys = Parameter(
            init.normal(rng, (1, heads, prefix_length, head_dim), std=0.02)
        )
        self.prefix_values = Parameter(
            init.zeros((1, heads, prefix_length, head_dim))
        )

    def forward(self, x: Tensor) -> Tensor:
        base = self.base
        t = x.shape[1]
        q = base._split_heads(base.q_proj(x))  # (N, H, T, D)
        k = base._split_heads(base.k_proj(x))
        v = base._split_heads(base.v_proj(x))
        pk = _per_sample(self.prefix_keys, k)  # (N, H, P, D)
        pv = _per_sample(self.prefix_values, k)
        k = concat([pk, k], axis=2)  # (N, H, P+T, D)
        v = concat([pv, v], axis=2)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(base.head_dim))
        weights = ops.softmax(scores, axis=-1)
        attended = weights @ v  # (N, H, T, D)
        merged = attended.transpose(0, 2, 1, 3).reshape(-1, t, base.dim)
        return base.out_proj(merged)

    def extra_parameter_count(self) -> int:
        return self.prefix_keys.size + self.prefix_values.size


def _per_sample(prefix: Tensor, like: Tensor) -> Tensor:
    """The learned ``(1, H, P, D)`` prefix repeated along ``like``'s batch
    axis: one op that reads the batch size when it runs, so a captured
    forward serves any batch."""
    shape = prefix.shape

    def ones(n: int) -> np.ndarray:
        return np.ones((n, 1, 1, 1), dtype=np.float32)

    return Tensor._op(
        lambda p, like: (p * ones(like.shape[0]), None),
        (lambda ctx, g: unbroadcast(g * ones(g.shape[0]), shape), None),
        prefix,
        like,
    )
