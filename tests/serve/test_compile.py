"""Compiled-program bit-exactness against the autograd reference path.

The contract under test is exact equality (``max_abs_diff == 0.0``), not
closeness: a compiled program is the model's own eval forward, captured
and replayed on the same kernels and operands.  That contract is pinned
to the f64 tier; when the suite runs under ``REPRO_SERVE_PRECISION=f32``
the same tests assert tier-sized closeness instead (see conftest's
``assert_serving_match``).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.ops import sqrt
from repro.errors import ServeError
from repro.eval.embeddings import extract_embeddings
from repro.models import FeatureExtractor, mixer_small, resnet_small, vit_small
from repro.models.tiny_vit import MultiHeadSelfAttention
from repro.nn import BatchNorm2d, Conv2d, Linear
from repro.peft import MetaLoRAModel, PrefixTuningAttention, attach
from repro.serve import AdapterRegistry, build_engine, compile_features

BACKBONES = {
    "resnet": lambda rng: resnet_small(4, rng),
    "mixer": lambda rng: mixer_small(4, rng),
}

#: Every PEFT_METHODS family (aliases of the meta formats left out); all
#: of them compile unmerged, whether they write ``add_delta`` or their own
#: ``forward`` (DoRA, bottleneck).
ADAPTER_METHODS = (
    "lora", "multi_lora", "meta_cp", "meta_tr", "moe_lora", "tt_lora", "dora", "bottleneck"
)

#: Families that adapt Linear layers only.  ResNet's one Linear is the
#: classifier head, which ``features()`` never runs, so these are tested
#: on the mixer alone.
LINEAR_ONLY = ("moe_lora", "tt_lora", "dora", "bottleneck")

ADAPTED_BACKBONES = [
    (method, backbone)
    for method in ADAPTER_METHODS
    for backbone in sorted(BACKBONES)
    if backbone == "mixer" or method not in LINEAR_ONLY
]


def images_for(rng, n=5):
    return rng.normal(size=(n, 3, 16, 16)).astype(np.float32)


def randomize_zero_params(model, rng):
    """Adapter B-side factors start at zero (identity adapters); give them
    real values so exactness failures cannot hide behind a zero delta."""
    for param in model.parameters():
        if not np.any(param.data):
            param.data[...] = (rng.normal(size=param.data.shape) * 0.2).astype(
                param.data.dtype
            )


def assert_bit_identical(model, images):
    from tests.serve.conftest import assert_serving_match

    program = compile_features(model)
    reference = extract_embeddings(model, images, batch_size=images.shape[0])
    assert_serving_match(program.run(images), reference)


class TestBackboneExactness:
    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    def test_plain_backbone(self, backbone, rng):
        model = BACKBONES[backbone](rng)
        assert_bit_identical(model, images_for(rng))

    @pytest.mark.parametrize("method, backbone", ADAPTED_BACKBONES)
    def test_adapted_backbone(self, backbone, method, rng):
        model = BACKBONES[backbone](rng)
        targets = (Linear,) if method in LINEAR_ONLY else (Linear, Conv2d)
        attach(model, method, rank=2, rng=rng, targets=targets)
        randomize_zero_params(model, rng)
        assert_bit_identical(model, images_for(rng))

    def test_batch_polymorphic_program(self, rng):
        from tests.serve.conftest import assert_serving_match

        model = resnet_small(4, rng)
        program = compile_features(model)
        for n in (1, 3, 7):
            x = images_for(rng, n)
            assert_serving_match(program.run(x), extract_embeddings(model, x))


class TestUnmergedTransformer:
    def test_tiny_vit_with_prefix_tuning(self, rng):
        """Prefix tuning overrides ``forward`` and broadcasts its prefix per
        batch; it serves unmerged on TinyViT, any batch size."""
        model = vit_small(4, rng)
        attach(
            model,
            lambda layer: PrefixTuningAttention(layer, 2, rng=rng),
            targets=(MultiHeadSelfAttention,),
        )
        randomize_zero_params(model, rng)
        assert_bit_identical(model, images_for(rng))


class TestMetaModelExactness:
    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    @pytest.mark.parametrize("fmt", ("cp", "tr"))
    def test_meta_model(self, backbone, fmt, rng):
        base = BACKBONES[backbone](rng)
        result = attach(base, f"meta_{fmt}", rank=2, rng=rng)
        extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(9)))
        model = MetaLoRAModel(base, extractor, rng=rng, adapters=result)
        randomize_zero_params(model, rng)
        assert_bit_identical(model, images_for(rng))

    def test_moe_lora_meta_model(self, rng):
        """MoE-LoRA's gate logits come from the mapping net like a seed."""
        base = mixer_small(4, rng)
        result = attach(base, "moe_lora", rank=2, rng=rng, targets=(Linear,))
        extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(9)))
        model = MetaLoRAModel(base, extractor, rng=rng, adapters=result)
        randomize_zero_params(model, rng)
        assert_bit_identical(model, images_for(rng))

    def test_one_adapter_meta_model(self, rng):
        """One head: the fused mapping step still matches ``generate_seeds``."""
        base = resnet_small(4, rng)
        skip = [
            name
            for name, module in base.named_modules()
            if isinstance(module, (Conv2d, Linear)) and name != "stem"
        ]
        result = attach(base, "meta_tr", rank=2, rng=rng, skip=skip)
        extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(9)))
        model = MetaLoRAModel(base, extractor, rng=rng, adapters=result)
        assert len(model.heads) == 1
        randomize_zero_params(model, rng)
        assert_bit_identical(model, images_for(rng))


class TestMergedFastPath:
    def test_merge_then_compile_matches_merged_reference(self, rng):
        model = resnet_small(4, rng)
        result = attach(model, "lora", rank=2, rng=rng)
        randomize_zero_params(model, rng)
        images = images_for(rng)
        engine = build_engine(result)
        assert result.state == "merged"
        # The program was compiled from the merged model: no adapter steps.
        program = engine.registry.get(engine.default_adapter).program
        assert not any("LoRA" in line for line in program.describe())
        from tests.serve.conftest import assert_serving_match, serve_bulk

        assert_serving_match(
            serve_bulk(engine, images), extract_embeddings(result.model, images)
        )
        engine.close()

    def test_meta_adapters_compile_unmerged(self, rng):
        model = resnet_small(4, rng)
        result = attach(model, "meta_tr", rank=2, rng=rng)
        engine = build_engine(result)
        assert result.state == "attached"  # meta adapters cannot merge
        program = engine.registry.get(engine.default_adapter).program
        assert any("MetaLoRATRConv" in line for line in program.describe())
        engine.close()


class TestCompilerErrors:
    def test_model_without_rule_raises(self):
        from repro.nn import Linear

        with pytest.raises(ServeError, match="features"):
            compile_features(Linear(4, 4))


class TestProgramStructure:
    def test_describe_and_len(self, rng):
        program = compile_features(resnet_small(4, rng))
        lines = program.describe()
        assert len(lines) == len(program) > 0
        assert lines[0].startswith("0: %")

    def test_compile_restores_training_mode(self, rng):
        model = resnet_small(4, rng)
        model.train()
        compile_features(model)
        assert model.training

    def test_snapshot_semantics(self, rng):
        # Constants fold at compile time; mutations need a recompile.
        model = resnet_small(4, rng)
        x = images_for(rng, 2)
        program = compile_features(model)
        before = program.run(x)
        model.stem.weight.data[...] += 1.0
        assert np.array_equal(program.run(x), before)
        assert not np.array_equal(compile_features(model).run(x), before)

    @pytest.mark.parametrize(
        "weight",
        [
            lambda model: model.embed.weight,  # a float32 Linear weight
            lambda model: model.mixer_blocks[0].channel_fc1.core_b,  # a meta factor
        ],
        ids=["linear", "meta_factor"],
    )
    def test_snapshot_holds_for_every_folded_constant(self, weight, rng):
        model = mixer_small(4, rng)
        attach(model, "meta_tr", rank=2, rng=rng, targets=(Linear,), skip=("embed",))
        randomize_zero_params(model, rng)
        x = images_for(rng, 2)
        program = compile_features(model)
        before = program.run(x)
        weight(model).data[...] += 1.0
        assert np.array_equal(program.run(x), before)
        assert not np.array_equal(compile_features(model).run(x), before)


def step_names(program):
    """The ``Module.op`` name of every step a run program lists."""
    return [line.split(" = ", 1)[1].split("(", 1)[0] for line in program.describe()]


class TestUnfoldSharing:
    """A base conv and its adapter conv read one unfold step: the captured
    forward shares the patches exactly as ``Adapter.forward`` does."""

    #: attach() method -> the conv adapter its steps are named after.
    FAMILIES = {
        "lora": "ConvLoRA",
        "multi_lora": "MultiLoRAConv",
        "meta_cp": "MetaLoRACPConv",
        "meta_tr": "MetaLoRATRConv",
    }

    @staticmethod
    def unfolds(program):
        return sum(name.endswith(".unfold") for name in step_names(program))

    @pytest.mark.parametrize("method", sorted(FAMILIES))
    def test_one_unfold_per_backbone_conv(self, method, rng):
        model = resnet_small(4, rng)
        convs = sum(isinstance(module, Conv2d) for module in model.modules())
        attach(model, method, rank=2, rng=rng)
        randomize_zero_params(model, rng)
        program = compile_features(model)
        program.run(images_for(rng))
        assert any(name.startswith(self.FAMILIES[method] + ".") for name in step_names(program))
        assert self.unfolds(program) == convs

    def test_seed_fed_body_shares_unfolds(self, rng):
        base = resnet_small(4, rng)
        convs = sum(isinstance(module, Conv2d) for module in base.modules())
        result = attach(base, "meta_tr", rank=2, rng=rng)
        extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(9)))
        model = MetaLoRAModel(base, extractor, rng=rng, adapters=result)
        entry = AdapterRegistry().register("meta", model)
        images = images_for(rng)
        entry.run(images)
        assert self.unfolds(entry.body) == convs


def composite_batch_norm(bn, x):
    """The eval BatchNorm2d the one-node op replaced, as ``Tensor`` ops."""
    mean = Tensor(bn._buffers["running_mean"].reshape(1, -1, 1, 1))
    var = Tensor(bn._buffers["running_var"].reshape(1, -1, 1, 1))
    x_hat = (x - mean) / sqrt(var + bn.eps)
    gamma = bn.gamma.reshape(1, bn.channels, 1, 1)
    beta = bn.beta.reshape(1, bn.channels, 1, 1)
    return x_hat * gamma + beta


class TestBatchNormKernel:
    """The eval batch norm node runs NHWC-storage inputs row-wise and
    allocates only where the dtype promotes; its bits, dtype and strides
    must still match the composite ``Tensor`` expression."""

    def test_mixed_dtype_matches_tensor_path(self, rng):
        channels = 6
        bn = BatchNorm2d(channels)
        bn.gamma.data[...] = rng.normal(size=channels).astype(np.float32)
        bn.beta.data[...] = rng.normal(size=channels).astype(np.float32)
        bn._buffers["running_mean"][...] = rng.normal(size=channels)
        bn._buffers["running_var"][...] = rng.uniform(0.5, 2.0, size=channels)
        bn.eval()
        contiguous = rng.normal(size=(3, channels, 5, 4)).astype(np.float32)
        # Conv outputs reach batch norm as transposed NHWC-storage views.
        nhwc = np.ascontiguousarray(contiguous.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        # Those take the row-wise path, with constants tiled per (H, W).
        other = rng.normal(size=(2, 3, 7, channels)).astype(np.float32).transpose(0, 3, 1, 2)
        for x in (contiguous, nhwc, other, nhwc):
            reference = composite_batch_norm(bn, Tensor(x)).data
            got = bn(Tensor(x)).data
            assert bn.gamma.data.dtype == x.dtype == np.float32
            assert got.dtype == reference.dtype == np.float64
            assert got.strides == reference.strides
            assert got.tobytes() == reference.tobytes()
