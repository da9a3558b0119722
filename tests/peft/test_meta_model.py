"""Tests for the full MetaLoRAModel (Fig. 4 architecture)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import AdapterError
from repro.models import FeatureExtractor, mixer_small, resnet_small
from repro.nn import Linear
from repro.peft import MetaLoRAModel, attach


def make_meta_resnet(rng, fmt="tr"):
    backbone = resnet_small(4, rng)
    extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(9)))
    result = attach(backbone, f"meta_{fmt}", rank=2, rng=rng)
    return MetaLoRAModel(backbone, extractor, rng=rng, adapters=result)


class TestMetaLoRAModel:
    def test_requires_meta_adapters(self, rng):
        backbone = resnet_small(4, rng)
        attach(backbone, "lora", rank=2, targets=(Linear,), rng=rng)
        extractor = FeatureExtractor(resnet_small(4, rng))
        with pytest.raises(AdapterError, match="meta"):
            MetaLoRAModel(backbone, extractor)

    def test_forward_shape(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(3, 3, 16, 16)).astype(np.float32))
        assert model(x).shape == (3, 4)

    def test_features_shape(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(3, 3, 16, 16)).astype(np.float32))
        assert model.features(x).shape == (3, model.embedding_dim)

    def test_generate_seeds_one_per_adapter(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        seeds = model.generate_seeds(x)
        assert len(seeds) == len(model.adapter_names)
        for seed, adapter in zip(seeds, model._meta_adapters):
            assert seed.shape == (2,) + adapter.seed_shape

    def test_seeds_cleared_after_forward(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        model(x)
        assert all(a._seed is None for a in model._meta_adapters)

    def test_seeds_cleared_even_on_error(self, rng):
        model = make_meta_resnet(rng)
        bad = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))  # wrong spatial size is fine for resnet; use wrong channels
        bad = Tensor(np.zeros((2, 5, 16, 16), dtype=np.float32))
        with pytest.raises(Exception):
            model(bad)
        assert all(a._seed is None for a in model._meta_adapters)

    def test_gradients_flow_to_mapping_net(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        model(x).sum().backward()
        assert model.trunk.weight.grad is not None
        assert all(head.weight.grad is not None for head in model.heads)

    def test_backbone_base_weights_stay_frozen(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        model(x).sum().backward()
        for name, param in model.backbone.named_parameters():
            if "base" in name:
                assert param.grad is None, name

    def test_cp_variant_works(self, rng):
        model = make_meta_resnet(rng, fmt="cp")
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert model(x).shape == (2, 4)

    def test_mixer_backbone(self, rng):
        backbone = mixer_small(4, rng)
        extractor = FeatureExtractor(mixer_small(4, np.random.default_rng(3)))
        result = attach(backbone, "meta_cp", rank=2, targets=(Linear,), rng=rng)
        model = MetaLoRAModel(backbone, extractor, rng=rng, adapters=result)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert model(x).shape == (2, 4)

    def test_head_gain_scales_seeds(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        base_seed = model.generate_seeds(x)[0].data.copy()
        model.head_gains.data[0] = 3.0
        scaled_seed = model.generate_seeds(x)[0].data
        assert np.allclose(scaled_seed, 3.0 * base_seed, atol=1e-5)

    def test_head_gains_receive_gradients(self, rng):
        model = make_meta_resnet(rng)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        model(x).sum().backward()
        assert model.head_gains.grad is not None

    def test_different_inputs_get_different_seeds_after_training_signal(self, rng):
        """After perturbing the trunk, seeds become input-dependent."""
        model = make_meta_resnet(rng)
        model.heads[0].weight.data[...] = rng.normal(
            size=model.heads[0].weight.shape
        ).astype(np.float32)
        a = Tensor(rng.normal(size=(1, 3, 16, 16)).astype(np.float32))
        b = Tensor((rng.normal(size=(1, 3, 16, 16)) + 3).astype(np.float32))
        seed_a = model.generate_seeds(a)[0].data
        seed_b = model.generate_seeds(b)[0].data
        assert not np.allclose(seed_a, seed_b)
