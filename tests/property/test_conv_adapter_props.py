"""Conv adapters over their base conv's patches, against raw-kernel oracles.

An adapted conv unfolds its input once; its base conv and every adapter
conv read those patches, so backward sums their patch gradients in sweep
order and scatters the sum back with one col2im.  Fig. 3's 1x1 recovery
is one GEMM over the small conv's NHWC storage.  The oracles:

- the input gradient from raw kernels (each consumer's VJP written out,
  summed in the sweep's order, one ``_col2im``), bit for bit, and the
  per-conv ``Σ col2im`` that scattered each conv's gradient on its own,
  within rounding;
- finite differences, for every conv family and every trainable input;
- Conv-LoRA and multi-LoRA forwards against the ``einsum`` form of
  Fig. 3 and against one conv with the materialized ``W + ΔW``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, conv2d
from repro.autograd import conv_ops
from repro.autograd.grad_check import check_gradients
from repro.nn.conv import Conv2d
from repro.peft import ConvLoRA
from repro.peft.meta_cp import MetaLoRACPConv
from repro.peft.meta_tr import MetaLoRATRConv
from repro.peft.multi_lora import MultiLoRAConv

SETTINGS = dict(max_examples=25, deadline=None)
seeds = st.integers(0, 2**31 - 1)
geometry = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1))


def make_adapter(cls, rng, kernel=3, stride=1, padding=1, in_channels=2, out_channels=3):
    """An f64 adapter with every factor random (no zero-initialized ``B``)."""
    base = Conv2d(in_channels, out_channels, kernel, stride=stride, padding=padding, rng=rng)
    options = {"branches": 3} if cls is MultiLoRAConv else {}
    adapter = cls(base, rank=2, rng=rng, **options)
    for param in adapter.parameters():
        param.data = rng.normal(size=param.shape) * 0.5
    return adapter


def branches(adapter):
    """``(A, B, scale)`` per Fig. 3 branch, ``scale`` as the op computes it."""
    scaling = np.asarray(adapter.scaling)
    if isinstance(adapter, ConvLoRA):
        return [(adapter.lora_a, adapter.lora_b, scaling)]
    gates = adapter.gates.data
    return [
        (branch.lora_a, branch.lora_b, np.asarray(np.asarray(gates[i]) * scaling))
        for i, branch in enumerate(adapter.lora_branches)
    ]


def raw_patch_gradients(adapter, g):
    """``{id(weight): d_cols}`` for the base conv and every branch's small
    conv, from the raw kernels each VJP runs (``g`` reaches the base conv
    and every branch's scaled delta unchanged through the adds)."""
    fold = conv_ops.fold_conv_weight
    grads = {id(adapter.base.weight): g.transpose(0, 2, 3, 1) @ fold(adapter.base.weight.data).T}
    n, o, h, w = g.shape
    for a, b, scale in branches(adapter):
        g_rows = (g * scale).transpose(0, 2, 3, 1).reshape(n * h * w, o)
        g_mid = (g_rows @ b.data.T).reshape(n, h, w, -1).transpose(0, 3, 1, 2)
        grads[id(a)] = g_mid.transpose(0, 2, 3, 1) @ fold(a.data).T
    return grads


def sweep_order(out, x, base_weight):
    """The weights of the patches' consumers, in the order the backward
    sweep reaches them (a frozen base conv has the patches as its only
    parent)."""
    order = out._topological_order()
    (cols,) = [node for node in order if any(p is x for p in node._parents)]
    consumers = [node for node in order if any(p is cols for p in node._parents)]
    return [
        next((p for p in node._parents if p is not cols), base_weight) for node in consumers
    ]


class TestAdaptedConvInputGradient:
    @pytest.mark.parametrize("cls", [ConvLoRA, MultiLoRAConv])
    @given(seeds, st.integers(1, 3), geometry)
    @settings(**SETTINGS)
    def test_is_one_col2im_of_summed_patch_gradients(self, cls, seed, n, geom):
        kernel, stride, padding = geom
        rng = np.random.default_rng(seed)
        adapter = make_adapter(cls, rng, kernel, stride, padding)
        x = Tensor(rng.normal(size=(n, 2, 6, 5)), requires_grad=True)
        out = adapter(x)
        g = rng.normal(size=out.shape)
        order = sweep_order(out, x, adapter.base.weight)
        out.backward(g)

        grads = raw_patch_gradients(adapter, g)
        assert len(order) == len(grads)
        summed = grads[id(order[0])]
        for weight in order[1:]:
            summed = summed + grads[id(weight)]
        oh, ow = summed.shape[1:3]
        patches = lambda d: d.reshape(n, oh, ow, 2, kernel, kernel)  # noqa: E731
        scatter = lambda d: conv_ops._col2im(  # noqa: E731
            patches(d), x.shape, kernel, kernel, stride, padding
        )
        expected = scatter(summed)
        assert x.grad.dtype == expected.dtype and x.grad.tobytes() == expected.tobytes()

        per_conv = sum(scatter(grads[id(weight)]) for weight in order)
        scale = np.abs(per_conv).max()
        assert np.abs(x.grad - per_conv).max() <= 1e-12 * scale


def _seeded(adapter, seed):
    """``adapter(x)`` with the generated ``seed`` installed for the call."""

    def run(x, *params_and_seed):
        adapter.set_seed(params_and_seed[-1])
        try:
            return adapter(x)
        finally:
            adapter.set_seed(None)

    return run


class TestConvAdapterGradients:
    """Finite differences through each conv family, every input at once."""

    @pytest.mark.parametrize(
        "cls, seeded",
        [
            (ConvLoRA, False),
            (MultiLoRAConv, False),
            (MetaLoRACPConv, False),
            (MetaLoRACPConv, True),
            (MetaLoRATRConv, False),
            (MetaLoRATRConv, True),
        ],
    )
    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 0)])
    def test_matches_finite_differences(self, cls, seeded, stride, padding, rng):
        adapter = make_adapter(cls, rng, stride=stride, padding=padding)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        params = list(adapter.trainable_parameters())
        assert params and all(p.data.dtype == np.float64 for p in params)
        if not seeded:
            check_gradients(lambda x, *params: adapter(x), [x, *params])
            return
        params = [p for p in params if p is not adapter.static_seed]
        seed = Tensor(rng.normal(size=(2, *adapter.seed_shape)), requires_grad=True)
        check_gradients(_seeded(adapter, seed), [x, *params, seed])


class TestFig3Forward:
    """Conv-LoRA's GEMM recovery equals Fig. 3's einsum and the merged
    conv to f64 rounding."""

    @pytest.mark.parametrize("cls", [ConvLoRA, MultiLoRAConv])
    @given(seeds, st.integers(1, 3), geometry)
    @settings(**SETTINGS)
    def test_matches_einsum_form_and_merged_conv(self, cls, seed, n, geom):
        kernel, stride, padding = geom
        rng = np.random.default_rng(seed)
        adapter = make_adapter(cls, rng, kernel, stride, padding)
        base = adapter.base
        x = Tensor(rng.normal(size=(n, 2, 6, 5)))
        got = adapter(x).data

        einsum_form = base(x).data
        for a, b, scale in branches(adapter):
            mid = conv2d(x, a, stride=stride, padding=padding).data
            einsum_form = einsum_form + np.einsum("nrhw,ro->nohw", mid, b.data) * scale
        merged_weight = Tensor(base.weight.data + adapter.delta_weight())
        merged = conv2d(x, merged_weight, base.bias, stride=stride, padding=padding).data

        np.testing.assert_allclose(got, einsum_form, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got, merged, rtol=1e-12, atol=1e-12)
