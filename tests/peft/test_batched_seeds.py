"""The fused seed heads must match a per-head loop over the mapping net.

``MetaLoRAModel.generate_seeds`` runs every head as one product against
the heads' concatenated weights.  The per-head loop it replaced lives on
here only, as the oracle.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.models import FeatureExtractor, resnet_small
from repro.nn import Conv2d, Linear
from repro.peft import MetaLoRAModel, attach


def make_model(rng, fmt="tr", one_adapter=False):
    backbone = resnet_small(4, rng)
    extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(7)))
    # One adapter: every adaptable layer but the stem conv is skipped.
    skip = [
        name
        for name, module in backbone.named_modules()
        if one_adapter and isinstance(module, (Conv2d, Linear)) and name != "stem"
    ]
    result = attach(backbone, f"meta_{fmt}", rank=2, rng=rng, skip=skip)
    return MetaLoRAModel(backbone, extractor, rng=rng, adapters=result)


def per_head_seeds(model, x):
    """The reference: each head on its own, ``tanh(head(h)) * gain``."""
    hidden = ops.relu(model.trunk(model.extractor(x)))
    seeds = []
    for i, (adapter, head) in enumerate(zip(model._meta_adapters, model.heads)):
        raw = ops.tanh(head(hidden)) * model.head_gains[i]
        seeds.append(raw.reshape(x.shape[0], *adapter.seed_shape))
    return seeds


def forward_and_grads(model, x, seeds_fn):
    """``model(x).sum()`` and every trainable gradient, seeds from ``seeds_fn``."""
    model.zero_grad()
    model._install(seeds_fn(model, x))
    try:
        loss = model.backbone(x).sum()
    finally:
        model._install(None)
    loss.backward()
    grads = {
        name: None if p.grad is None else p.grad.copy()
        for name, p in model.named_parameters()
        if p.requires_grad
    }
    return loss.data.copy(), grads


@pytest.mark.parametrize("fmt", ["tr", "cp"])
class TestBatchedSeeds:
    def test_seeds_match_per_head_path(self, fmt, rng):
        model = make_model(rng, fmt)
        assert len(model._meta_adapters) > 1  # several heads actually fused
        # Perturb the heads so seeds are non-trivial (they start neutral).
        for head in model.heads:
            head.weight.data[...] = rng.normal(size=head.weight.shape) * 0.1
        x = Tensor(rng.normal(size=(3, 3, 16, 16)).astype(np.float32))
        reference = [s.data.copy() for s in per_head_seeds(model, x)]
        batched = [s.data.copy() for s in model.generate_seeds(x)]
        assert len(reference) == len(batched)
        for ref, got in zip(reference, batched):
            np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_forward_and_gradients_match(self, fmt, rng):
        model = make_model(rng, fmt)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        ref_loss, ref_grads = forward_and_grads(model, x, per_head_seeds)
        opt_loss, opt_grads = forward_and_grads(model, x, MetaLoRAModel.generate_seeds)

        np.testing.assert_allclose(opt_loss, ref_loss, atol=1e-10)
        assert ref_grads.keys() == opt_grads.keys()
        for name, ref in ref_grads.items():
            got = opt_grads[name]
            if ref is None:
                assert got is None, name
            else:
                np.testing.assert_allclose(got, ref, atol=1e-10, err_msg=name)

    def test_one_adapter_is_bit_identical(self, fmt, rng):
        """One head: the fused product equals the head's own, to the bit."""
        model = make_model(rng, fmt, one_adapter=True)
        assert len(model._meta_adapters) == 1
        for head in model.heads:
            head.weight.data[...] = rng.normal(size=head.weight.shape) * 0.1
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        ref_loss, ref_grads = forward_and_grads(model, x, per_head_seeds)
        opt_loss, opt_grads = forward_and_grads(model, x, MetaLoRAModel.generate_seeds)
        assert np.array_equal(opt_loss, ref_loss)
        assert ref_grads.keys() == opt_grads.keys()
        for name, ref in ref_grads.items():
            got = opt_grads[name]
            assert (ref is None) == (got is None), name
            if ref is not None:
                assert got.dtype == ref.dtype and np.array_equal(got, ref), name
