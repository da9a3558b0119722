"""Tests for the einsum plan cache and conv patch sharing.

Autograd ``conv2d`` is an unfold op followed by a GEMM over the patches;
a conv adapter unfolds its input once for its base conv and its own
convs (``Adapter.forward``).  ``TestConvPatchCache`` pins that: one
unfold per adapted conv in every training and evaluation path, bitwise
equal to unshared convs, and no patches outliving their forward.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import conv_ops, ops
from repro.eval.embeddings import extract_embeddings
from repro.models import FeatureExtractor, resnet_small
from repro.nn import Conv2d, Linear
from repro.peft import MetaLoRAModel, attach
from repro.train.optim import Adam
from repro.train.trainer import Trainer


@pytest.fixture(autouse=True)
def fresh_caches():
    ops.clear_einsum_plan_cache()
    conv_ops.clear_conv_caches()
    yield
    ops.clear_einsum_plan_cache()
    conv_ops.clear_conv_caches()


def tr_einsum(a, b, c):
    out = ops.einsum("ntpr,roq,nqp->nto", a, b, c)
    out.sum().backward()
    return out.data, a.grad, b.grad, c.grad


class TestEinsumPlanCache:
    def make_operands(self, rng, n=2, t=3, r=2, o=4):
        return (
            Tensor(rng.normal(size=(n, t, r, r)), requires_grad=True),
            Tensor(rng.normal(size=(r, o, r)), requires_grad=True),
            Tensor(rng.normal(size=(n, r, r)), requires_grad=True),
        )

    def test_repeat_call_hits_cache(self, rng):
        tr_einsum(*self.make_operands(rng))
        misses_after_first = ops.einsum_plan_cache_stats()["misses"]
        tr_einsum(*self.make_operands(rng))
        stats = ops.einsum_plan_cache_stats()
        assert stats["misses"] == misses_after_first  # no new plan built
        assert stats["hits"] > 0

    def test_new_shapes_miss(self, rng):
        tr_einsum(*self.make_operands(rng))
        before = ops.einsum_plan_cache_stats()["misses"]
        tr_einsum(*self.make_operands(rng, t=5))
        assert ops.einsum_plan_cache_stats()["misses"] > before

    def test_clear_resets_stats(self, rng):
        tr_einsum(*self.make_operands(rng))
        ops.clear_einsum_plan_cache()
        assert ops.einsum_plan_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_cached_plans_bit_identical_to_reference(self, rng):
        """The plan the cache serves contracts the forward and every
        gradient einsum to the bits of a freshly built plan."""
        spec = "ntpr,roq,nqp->nto"
        arrays = [t.data for t in self.make_operands(rng)]
        shapes = tuple(a.shape for a in arrays)
        tr_einsum(*(Tensor(a, requires_grad=True) for a in arrays))
        hits = ops.einsum_plan_cache_stats()["hits"]
        cached = ops._get_plan(spec, shapes, len(arrays))
        assert ops.einsum_plan_cache_stats()["hits"] == hits + 1
        fresh = ops._EinsumPlan(spec, shapes, len(arrays))
        out = fresh.contraction(arrays)
        np.testing.assert_array_equal(cached.contraction(arrays), out)
        g = rng.normal(size=out.shape)
        for i, (got, want) in enumerate(zip(cached.grad_plans(), fresh.grad_plans())):
            others = [g] + [a for j, a in enumerate(arrays) if j != i]
            assert (got.missing_dims, got.perm) == (want.missing_dims, want.perm)
            np.testing.assert_array_equal(
                got.contraction(others), want.contraction(others)
            )


class TestConvPatchCache:
    """Patch sharing: structural, per adapted conv, exact, and bit-identical."""

    FAMILIES = ("lora", "multi_lora", "meta_lora_cp", "meta_lora_tr", "moe_lora", "tt_lora")

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the unfold and col2im kernels, by name."""
        calls = {"unfold": 0, "col2im": 0}
        for name, kernel in (("unfold", conv_ops._unfold), ("col2im", conv_ops._col2im)):

            def counted(*args, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(conv_ops, "_" + name, counted)
        return calls

    def adapted_model(self, method, rng):
        """``resnet_small`` wearing ``method``, with its Conv2d count and
        the backbone's alone (a meta model's extractor runs graph-free)."""
        backbone = resnet_small(3, rng)
        # moe_lora and tt_lora adapt Linear layers only: their convs stay plain.
        targets = (Linear,) if method in ("moe_lora", "tt_lora") else (Linear, Conv2d)
        result = attach(backbone, method, rank=2, rng=rng, targets=targets)
        model = backbone
        if result.is_meta:
            extractor = FeatureExtractor(resnet_small(3, np.random.default_rng(7)))
            model = MetaLoRAModel(backbone, extractor, rng=rng, adapters=result)
        convs = sum(isinstance(m, Conv2d) for m in model.modules())
        return model, convs, sum(isinstance(m, Conv2d) for m in backbone.modules())

    def paired_convs(self, x, w1, w2, shared):
        if shared:
            cols = conv_ops.unfold(x, 3, 3, 1, 1)
            a, b = conv_ops.conv_patches(cols, w1), conv_ops.conv_patches(cols, w2)
        else:
            a = conv_ops.conv2d(x, w1, None, stride=1, padding=1)
            b = conv_ops.conv2d(x, w2, None, stride=1, padding=1)
        (a.sum() + b.sum()).backward()
        return a.data, b.data, w1.grad, w2.grad, x.grad

    def make_inputs(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 3, 3, 2)), requires_grad=True)
        return x, w1, w2

    @pytest.mark.parametrize("method", FAMILIES)
    def test_adapted_conv_unfolds_once(self, method, rng, counts):
        """Define-by-run, capture, replay and embedding extraction: one
        unfold per conv, and one col2im per conv the gradient reaches."""
        model, convs, backbone_convs = self.adapted_model(method, rng)
        images = rng.normal(size=(2, 3, 16, 16))
        labels = np.array([0, 2])
        trainer = Trainer(model, Adam(list(model.trainable_parameters()), lr=1e-3))
        for step in ("capture", "replay"):
            trainer.train_step(images, labels)
            assert counts["unfold"] == convs, step
            if method not in ("moe_lora", "tt_lora"):
                # Every backbone conv but the stem (it reads the images) has
                # a trainable adapter upstream: one scatter per conv.
                assert counts["col2im"] == backbone_convs - 1, step
            counts.update(unfold=0, col2im=0)
        assert list(trainer._programs.values()) != [None]  # it did replay
        model.train()
        loss = model(Tensor(images)).sum()
        assert counts["unfold"] == convs
        loss.backward()
        counts.update(unfold=0)
        extract_embeddings(model, images, batch_size=2)
        assert counts["unfold"] == convs

    def test_same_input_second_conv_hits(self, rng, counts):
        """Two convs over one unfold unfold once; two raw convs on one input
        unfold twice (sharing is structural, never looked up)."""
        self.paired_convs(*self.make_inputs(rng), shared=True)
        assert counts == {"unfold": 1, "col2im": 1}
        self.paired_convs(*self.make_inputs(rng), shared=False)
        assert counts == {"unfold": 3, "col2im": 3}

    def test_cached_matches_reference(self, rng):
        """Shared patches give the unshared outputs and weight gradients bit
        for bit; the input gradient is col2im of the summed patch
        gradients, within rounding of the per-conv sum."""
        x, w1, w2 = self.make_inputs(rng)
        reference = self.paired_convs(x, w1, w2, shared=False)
        reference = [array.copy() for array in reference]
        for t in (x, w1, w2):
            t.zero_grad()
        shared = self.paired_convs(x, w1, w2, shared=True)
        for ref, got in zip(reference[:4], shared[:4]):
            np.testing.assert_array_equal(ref, got)
        np.testing.assert_allclose(shared[4], reference[4], rtol=1e-12, atol=1e-12)

    def test_inplace_mutation_invalidates_fingerprint(self, rng):
        """Gradient checkers perturb x.data in place between forwards; no
        patches outlive the forward that unfolded them."""
        model, __, __ = self.adapted_model("lora", rng)
        model.eval()
        x = Tensor(rng.normal(size=(2, 3, 16, 16)))
        model(x)
        x.data[0, 0, 0, 0] += 1.0
        mutated = model(x).data
        np.testing.assert_array_equal(mutated, model(Tensor(x.data.copy())).data)

    def test_inplace_permutation_misses(self, rng):
        """A permutation of integer values keeps every sum and sum of
        squares; the second forward must still see the new input."""
        x = rng.integers(0, 2, size=(2, 3, 8, 8)).astype(np.float64)
        t = Tensor(x)
        w = Tensor(rng.normal(size=(3, 3, 3, 4)))
        first = conv_ops.conv2d(t, w, padding=1).data.copy()
        x[...] = x[:, :, ::-1, :].copy()
        second = conv_ops.conv2d(t, w, padding=1).data
        fresh = conv_ops.conv2d(Tensor(x.copy()), w, padding=1).data
        assert not np.array_equal(second, first)
        np.testing.assert_array_equal(second, fresh)
