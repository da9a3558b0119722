"""The compile-time passes: precision tiers and fusion.

Each pass is tested against the identity it must preserve:

- fusion at f64 is *bit-identical* to the unfused program on every
  backbone and adapter family, including the split extractor / mapping /
  body programs the multi-tenant registry serves, and the fused program
  is bit-identical to the autograd ``extract_embeddings`` reference;
- the f32 tier stays within its accuracy budget and never touches the
  f64 contract.
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.eval.embeddings import extract_embeddings
from repro.models import FeatureExtractor, mixer_small, resnet_small
from repro.peft import MetaLoRAModel, attach
from repro.serve import (
    build_engine,
    compile_features,
    compile_forward,
    compile_seed_mapping,
    resolve_precision,
)
from repro.utils.rng import new_rng

BACKBONES = {
    "resnet": lambda rng: resnet_small(4, rng),
    "mixer": lambda rng: mixer_small(4, rng),
}

ADAPTER_METHODS = ("lora", "multi_lora", "meta_cp", "meta_tr")


def images_for(rng, n=5):
    return rng.normal(size=(n, 3, 16, 16)).astype(np.float32)


def randomize_zero_params(model, rng):
    for param in model.parameters():
        if not np.any(param.data):
            param.data[...] = (rng.normal(size=param.data.shape) * 0.2).astype(
                param.data.dtype
            )


def meta_model(fmt="meta_tr", seed=10):
    backbone = resnet_small(4, new_rng(seed))
    result = attach(backbone, fmt, rank=2, rng=new_rng(seed + 1))
    extractor = FeatureExtractor(resnet_small(4, new_rng(99)))
    model = MetaLoRAModel(backbone, extractor, rng=new_rng(seed + 2), adapters=result)
    randomize_zero_params(model, np.random.default_rng(seed + 3))
    return model


class TestResolvers:
    def test_precision_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_PRECISION", raising=False)
        assert resolve_precision(None) == "f64"
        monkeypatch.setenv("REPRO_SERVE_PRECISION", "f32")
        assert resolve_precision(None) == "f32"
        assert resolve_precision("f64") == "f64"  # explicit beats env

    def test_unknown_precision_raises(self):
        with pytest.raises(ServeError, match="unknown serve precision"):
            resolve_precision("f16")


class TestFusionIdentity:
    """Fusion at f64 is bit-identical to the unfused program."""

    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    def test_plain_backbone(self, backbone, rng):
        model = BACKBONES[backbone](rng)
        images = images_for(rng)
        fused = compile_features(model, precision="f64", fuse=True)
        unfused = compile_features(model, precision="f64", fuse=False)
        assert fused.fusion_eliminated > 0
        assert len(fused) < len(unfused)
        assert np.array_equal(fused.run(images), unfused.run(images))

    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    @pytest.mark.parametrize("method", ADAPTER_METHODS)
    def test_adapted_backbone(self, backbone, method, rng):
        model = BACKBONES[backbone](rng)
        attach(model, method, rank=2, rng=rng)
        randomize_zero_params(model, rng)
        images = images_for(rng)
        fused = compile_features(model, precision="f64", fuse=True)
        unfused = compile_features(model, precision="f64", fuse=False)
        assert np.array_equal(fused.run(images), unfused.run(images))

    def test_meta_split_programs(self, rng):
        """The registry's extractor / mapping / body split, fused vs not."""
        model = meta_model()
        images = images_for(rng, 4)
        outputs = {}
        for fuse in (True, False):
            extractor = compile_forward(model.extractor, precision="f64", fuse=fuse)
            mapping = compile_seed_mapping(model, precision="f64", fuse=fuse)
            body = compile_features(
                model, external_seeds=True, precision="f64", fuse=fuse
            )
            seeds = mapping.run(extractor.run(images))
            outputs[fuse] = body.run(images, seeds)
        assert np.array_equal(outputs[True], outputs[False])
        # And the split pipeline matches the fused single program.
        fused = compile_features(model, precision="f64")
        assert np.array_equal(outputs[True], fused.run(images))

    def test_fused_matches_autograd_reference(self, rng):
        model = resnet_small(4, rng)
        images = images_for(rng)
        program = compile_features(model, precision="f64", fuse=True)
        assert np.array_equal(program.run(images), extract_embeddings(model, images))


class TestPrecisionTiers:
    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    def test_f32_close_to_f64(self, backbone, rng):
        model = BACKBONES[backbone](rng)
        images = images_for(rng)
        reference = compile_features(model, precision="f64").run(images)
        out = compile_features(model, precision="f32").run(images)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference, atol=1e-3, rtol=0)


class TestEngineCounters:
    def test_stats_carry_optimizer_series(self, rng):
        from tests.serve.conftest import serve_bulk

        with build_engine(resnet_small(4, rng), precision="f32") as engine:
            serve_bulk(engine, images_for(rng, 4))
            stats = engine.stats()
        assert "serve.fusion.steps_eliminated" in stats
        assert stats["serve.fusion.steps_eliminated"]["calls"] > 0
