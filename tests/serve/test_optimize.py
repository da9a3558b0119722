"""The compile-time pass pipeline: tiers, fusion, arena, parallelism.

Each optimization is tested against the identity it must preserve:

- fusion at f64 is *bit-identical* to the unfused program on every
  backbone and adapter family, including the split extractor / mapping /
  body programs the multi-tenant registry serves;
- the arena never leaks a recycled buffer's stale contents into a
  result (the NaN booby-trap would detect a single early read);
- the parallel scheduler reproduces the serial run exactly;
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
    Arena,
    build_engine,
    compile_features,
    compile_forward,
    compile_seed_mapping,
    quantize_weight,
    resolve_precision,
)
from repro.serve.optimize import pin_layouts, resolve_parallel
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

    def test_parallel_env_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_PARALLEL", raising=False)
        assert resolve_parallel(None) == 1
        monkeypatch.setenv("REPRO_SERVE_PARALLEL", "3")
        assert resolve_parallel(None) == 3
        with pytest.raises(ServeError, match=">= 1"):
            resolve_parallel(0)


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


class TestArena:
    def test_take_recycles_by_shape_and_dtype(self):
        arena = Arena()
        first = arena.take((4, 4), np.dtype(np.float64))
        arena.put(first, live=[])
        again = arena.take((4, 4), np.dtype(np.float64))
        assert again is first
        other = arena.take((4, 5), np.dtype(np.float64))
        assert other is not first
        assert arena.hits == 1 and arena.allocs == 2

    def test_put_refuses_views_and_aliases(self):
        arena = Arena()
        owner = np.zeros((4, 4))
        arena.put(owner[:2], live=[])  # a view: never pooled
        arena.put(owner.T, live=[])  # non-contiguous: never pooled
        arena.put(owner, live=[owner[1:]])  # aliased by a live slot
        assert arena.take((4, 4), owner.dtype) is not owner
        assert arena.hits == 0

    def test_poison_fills_pooled_buffers(self):
        arena = Arena(poison=True)
        buffer = np.ones((3, 3))
        arena.put(buffer, live=[])
        assert np.all(np.isnan(buffer))

    @pytest.mark.parametrize("precision", ("f64", "f32"))
    def test_booby_trap(self, precision, rng):
        """NaN-poisoning every pooled buffer must not change any result:
        a single kernel reading recycled memory before overwriting it
        would surface as NaNs in the output."""
        model = resnet_small(4, rng)
        images = images_for(rng)
        clean = compile_features(model, precision=precision)
        clean.arena = False
        expected = clean.run(images)

        trapped = compile_features(model, precision=precision)
        trapped.arena = True
        trapped.arena_poison = True
        out = trapped.run(images)
        assert not np.any(np.isnan(out))
        assert np.array_equal(out, expected)

    def test_relaxed_tier_reuses_buffers(self, rng):
        # At f32 nothing is layout-pinned, so repeated runs recycle.
        program = compile_features(mixer_small(4, rng), precision="f32")
        program.arena = True
        program.run(images_for(rng))
        counters = program.counters()
        assert counters["arena_hits"] > 0


class TestPinLayouts:
    def _steps(self):
        from repro.serve.compile import Step

        def spec(*inputs):
            return inputs[0].shape, inputs[0].dtype

        fn = np.copy
        return [
            Step("conv2d", fn, (0,), 1, fn_out=None, out_spec=None),
            Step("relu", fn, (1,), 2, fn_out=lambda o, x: None, out_spec=spec),
            Step("global_avg_pool2d", fn, (2,), 3),
            Step("linear", fn, (3,), 4, fn_out=lambda o, x: None, out_spec=spec),
        ]

    def test_taint_stops_at_barriers(self):
        steps = self._steps()
        pin_layouts(steps)
        # relu feeds the reduction: pinned.  linear is downstream and a
        # barrier itself: untouched.
        assert steps[1].fn_out is None and steps[1].out_spec is None
        assert steps[3].fn_out is not None

    def test_taint_is_transitive(self):
        from repro.serve.compile import Step

        def spec(*inputs):
            return inputs[0].shape, inputs[0].dtype

        fn = np.copy
        writer = lambda o, x: None  # noqa: E731
        steps = [
            Step("relu", fn, (0,), 1, fn_out=writer, out_spec=spec),
            Step("add", fn, (1,), 2, fn_out=writer, out_spec=spec),
            Step("mean", fn, (2,), 3),
        ]
        pin_layouts(steps)
        # Both elementwise ancestors are pinned, not just the direct one.
        assert steps[0].fn_out is None
        assert steps[1].fn_out is None

    def test_f64_program_is_pinned_f32_is_not(self, rng):
        # Unfused, so elementwise steps sit directly upstream of the
        # reductions (fusion folds them behind conv barriers instead).
        model = mixer_small(4, rng)
        pinned = compile_features(model, precision="f64", fuse=False)
        relaxed = compile_features(model, precision="f32", fuse=False)

        def writers(program):
            return sum(1 for step in program.steps if step.fn_out is not None)

        assert writers(relaxed) > writers(pinned)


class TestParallelIdentity:
    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    @pytest.mark.parametrize("precision", ("f64", "f32"))
    def test_parallel_matches_serial(self, backbone, precision, rng):
        model = BACKBONES[backbone](rng)
        images = images_for(rng, 6)
        serial = compile_features(model, precision=precision, parallel=1)
        threaded = compile_features(model, precision=precision, parallel=4)
        threaded.parallel_threshold = 0.0  # pin the cost gate off
        assert threaded.parallel == 4
        assert np.array_equal(threaded.run(images), serial.run(images))
        counters = threaded.counters()
        assert sum(counters["parallel_slots"].values()) > 0

    def test_parallel_meta_model(self, rng):
        model = meta_model()
        images = images_for(rng, 4)
        serial = compile_features(model, precision="f64", parallel=1)
        threaded = compile_features(model, precision="f64", parallel=3)
        threaded.parallel_threshold = 0.0
        assert np.array_equal(threaded.run(images), serial.run(images))


class TestParallelCostGate:
    def test_gate_skips_below_threshold_then_engages(self, rng):
        model = resnet_small(4, rng)
        images = images_for(rng, 4)
        program = compile_features(model, precision="f64", parallel=4)
        program.parallel_threshold = 1e9  # nothing clears this bar
        serial = compile_features(model, precision="f64", parallel=1)
        for _ in range(3):
            assert np.array_equal(program.run(images), serial.run(images))
        counters = program.counters()
        assert counters["parallel_skipped"] == 3
        assert sum(counters["parallel_slots"].values()) == 0
        # Once the measured serial time clears the threshold, the thread
        # scheduler engages and skips stop accruing.
        program.parallel_threshold = 1e-9
        assert np.array_equal(program.run(images), serial.run(images))
        counters = program.counters()
        assert counters["parallel_skipped"] == 3
        assert sum(counters["parallel_slots"].values()) > 0

    def test_first_run_measures_before_engaging(self, rng):
        # With a finite threshold the first run is always serial — the
        # gate needs a measurement before it can decide.
        program = compile_features(resnet_small(4, rng), parallel=4)
        assert program.parallel_threshold > 0.0
        program.run(images_for(rng, 2))
        assert program.counters()["parallel_skipped"] >= 1

    def test_threshold_env_override(self, monkeypatch):
        from repro.serve.optimize import resolve_parallel_threshold

        monkeypatch.setenv("REPRO_SERVE_PARALLEL_MIN_SECONDS", "0.5")
        assert resolve_parallel_threshold(None) == 0.5
        monkeypatch.setenv("REPRO_SERVE_PARALLEL_MIN_SECONDS", "0")
        assert resolve_parallel_threshold(None) == 0.0
        with pytest.raises(ServeError):
            resolve_parallel_threshold(-1.0)


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
        for name in (
            "serve.fusion.steps_eliminated",
            "serve.quantized.weights",
            "serve.arena.hit",
            "serve.arena.alloc",
            "serve.parallel.slots",
            "serve.parallel.skipped",
        ):
            assert name in stats, name
        assert stats["serve.fusion.steps_eliminated"]["calls"] > 0
        assert stats["serve.parallel.slots"]["kind"] == "histogram"
