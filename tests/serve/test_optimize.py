"""The compile-time passes: precision tiers and fusion.

Each pass is tested against the identity it must preserve:

- fusion at f64 is *bit-identical* to the unfused program on every
  backbone and adapter family, including the split extractor / mapping /
  body programs the multi-tenant registry serves, and the fused program
  is bit-identical to the autograd ``extract_embeddings`` reference;
- the relaxed tiers stay within their accuracy budgets and never touch
  the f64 contract.
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
    quantize_weight,
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
        assert resolve_precision("int8") == "int8"  # explicit beats env

    def test_unknown_precision_raises(self):
        with pytest.raises(ServeError, match="unknown serve precision"):
            resolve_precision("f16")


class TestQuantizeWeight:
    def test_error_bounded_by_per_channel_scale(self, rng):
        weight = rng.normal(size=(32, 16)).astype(np.float64)
        deq = quantize_weight(weight)
        assert deq.dtype == np.float32
        scale = np.abs(weight).max(axis=0) / 127.0
        assert np.all(np.abs(deq - weight) <= scale / 2 + 1e-7)

    def test_channel_extremes_survive(self, rng):
        weight = rng.normal(size=(8, 4))
        deq = quantize_weight(weight)
        # The per-channel max maps exactly to code ±127 and back.
        rows = np.abs(weight).argmax(axis=0)
        for col, row in enumerate(rows):
            assert deq[row, col] == pytest.approx(weight[row, col], rel=1e-6)

    def test_zero_channel_stays_zero(self):
        weight = np.zeros((4, 3))
        weight[:, 0] = [1.0, -2.0, 0.5, 0.0]
        deq = quantize_weight(weight)
        assert np.all(deq[:, 1:] == 0.0)

    def test_stable_under_requantization(self, rng):
        # Already-on-grid values stay put bar float32 rounding of the
        # rebuilt scale.
        weight = rng.normal(size=(6, 6))
        once = quantize_weight(weight)
        np.testing.assert_allclose(quantize_weight(once), once, rtol=1e-5, atol=1e-6)


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
            extractor = compile_forward(
                model.extractor, precision="f64", fuse=fuse, quantize=False
            )
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

    def test_int8_quantizes_and_stays_close(self, rng):
        model = mixer_small(4, rng)
        images = images_for(rng)
        reference = compile_features(model, precision="f64").run(images)
        program = compile_features(model, precision="int8")
        assert program.quantized > 0
        out = program.run(images)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference, atol=0.5, rtol=0)

    def test_f64_never_quantizes(self, rng):
        program = compile_features(mixer_small(4, rng), precision="f64")
        assert program.quantized == 0

    def test_int8_exempts_seed_generation(self, rng):
        # The registry compiles the extractor with quantize=False so the
        # seed path is untouched at every tier.
        model = meta_model()
        program = compile_forward(
            model.extractor, precision="int8", quantize=False
        )
        assert program.quantized == 0


class TestEngineCounters:
    def test_stats_carry_optimizer_series(self, rng):
        from tests.serve.conftest import serve_bulk

        with build_engine(resnet_small(4, rng), precision="f32") as engine:
            serve_bulk(engine, images_for(rng, 4))
            stats = engine.stats()
        for name in ("serve.fusion.steps_eliminated", "serve.quantized.weights"):
            assert name in stats, name
        assert stats["serve.fusion.steps_eliminated"]["calls"] > 0
