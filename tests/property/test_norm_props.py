"""Property-based tests for the fused training-mode BatchNorm2d node."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, conv_ops, ops
from repro.autograd.ops import sqrt
from repro.models.resnet import BasicBlock
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
)
from tests.property.test_conv_props import _nchw_col2im

seeds = st.integers(0, 2**31 - 1)


def _composite_forward(bn, x):
    """Oracle: BatchNorm2d as the mean/var/sub/div/sqrt/mul/add Tensor graph."""
    if bn.training:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        m = bn.momentum
        bn._buffers["running_mean"] *= 1 - m
        bn._buffers["running_mean"] += m * mean.data.reshape(-1)
        bn._buffers["running_var"] *= 1 - m
        bn._buffers["running_var"] += m * var.data.reshape(-1)
    else:
        mean = Tensor(bn._buffers["running_mean"].reshape(1, -1, 1, 1))
        var = Tensor(bn._buffers["running_var"].reshape(1, -1, 1, 1))
    x_hat = (x - mean) / sqrt(var + bn.eps)
    gamma = bn.gamma.reshape(1, bn.channels, 1, 1)
    beta = bn.beta.reshape(1, bn.channels, 1, 1)
    return x_hat * gamma + beta


def _probe(t, captured):
    """An identity node that records the exact gradient array reaching it."""

    def grad_fn(ctx, g):
        captured.append(g)
        return g

    return Tensor._op(lambda data: (data, None), (grad_fn,), t)


def _layout(rng, shape, dtype, nhwc):
    n, c, h, w = shape
    if nhwc:
        # Conv outputs reach BN as transposed NHWC views.
        return rng.normal(size=(n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    return rng.normal(size=shape).astype(dtype)


def _same_bits(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _bn(c, rng, training, frozen):
    bn = BatchNorm2d(c)
    bn.gamma.data = rng.normal(size=c).astype(np.float32)
    bn.beta.data = rng.normal(size=c).astype(np.float32)
    bn._buffers["running_mean"][:] = rng.normal(size=c)
    bn._buffers["running_var"][:] = rng.uniform(0.5, 2.0, size=c)
    bn.gamma.requires_grad = bn.beta.requires_grad = not frozen
    bn.training = training
    return bn


def _run(bn, forward, x_data, x_grad, g_data):
    leaf = Tensor(x_data, requires_grad=x_grad)
    captured = []
    out = forward(bn, _probe(leaf, captured) if x_grad else leaf)
    if out.requires_grad:
        out.backward(g_data.astype(out.dtype))
    return out, captured, bn


class TestFusedBatchNorm:
    """The one-node training BatchNorm2d equals the composite graph bit for bit."""

    @given(
        seeds,
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from([np.float32, np.float64]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_composite_oracle(
        self, seed, n, c, h, w, dtype, x_nhwc, g_nhwc, x_grad, frozen, training
    ):
        rng = np.random.default_rng(seed)
        x_data = _layout(rng, (n, c, h, w), dtype, x_nhwc)
        g_data = _layout(rng, (n, c, h, w), np.float64, g_nhwc)
        bn_state = rng.integers(2**31)
        results = [
            _run(
                _bn(c, np.random.default_rng(bn_state), training, frozen),
                forward,
                x_data,
                x_grad,
                g_data,
            )
            for forward in (_composite_forward, BatchNorm2d.__call__)
        ]
        (want, want_g, want_bn), (got, got_g, got_bn) = results
        _same_bits(got.data, want.data)
        assert got.data.strides == want.data.strides
        if training:
            # float32 activations are promoted through the 0-d float64 1/count.
            assert got.dtype == np.float64
        for name in ("running_mean", "running_var"):
            _same_bits(got_bn._buffers[name], want_bn._buffers[name])
        assert len(got_g) == len(want_g) == int(x_grad)
        for g_got, g_want in zip(got_g, want_g):
            _same_bits(g_got, g_want)
            assert g_got.strides == g_want.strides
        for name in ("gamma", "beta"):
            p_got, p_want = getattr(got_bn, name), getattr(want_bn, name)
            if frozen:
                assert p_got.grad is None and p_want.grad is None
            else:
                _same_bits(p_got.grad, p_want.grad)

    def test_one_node_in_training_mode(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.ones((2, 3, 4, 4), np.float32), requires_grad=True)
        parents = bn(x)._parents
        assert len(parents) == 3
        assert parents[0] is x and parents[1] is bn.gamma and parents[2] is bn.beta


class _Net(Module):
    """Stem, max pool, a plain and a projecting BasicBlock, avg pool, head."""

    def __init__(self, rng):
        super().__init__()
        self.stem = Conv2d(3, 8, 3, padding=1, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(8)
        self.max_pool = MaxPool2d(2)
        self.block1 = BasicBlock(8, 8, rng=rng)
        self.block2 = BasicBlock(8, 16, stride=2, rng=rng)
        self.avg_pool = AvgPool2d(2)
        self.gap = GlobalAvgPool2d()
        self.head = Linear(16, 5, rng=rng)

    def forward(self, x):
        out = self.max_pool(ops.relu(self.stem_bn(self.stem(x))))
        out = self.avg_pool(self.block2(self.block1(out)))
        return self.head(self.gap(out))


class TestTrainingKernelsInNetwork:
    """A training step through ResNet blocks is bit-equal to the old kernels.

    The per-kernel oracles above compare values; this also pins the
    layouts the kernels hand downstream, which decide the summation order
    of later reductions.
    """

    def _grads(self, monkeypatch, dtype, size, oracle_col2im, oracle_bn):
        with monkeypatch.context() as patch:
            if oracle_col2im:
                patch.setattr(conv_ops, "_col2im", _nchw_col2im)
            if oracle_bn:
                patch.setattr(BatchNorm2d, "forward", _composite_forward)
            rng = np.random.default_rng(size)
            net = _Net(rng)
            x = Tensor(
                rng.normal(size=(4, 3, size, size)).astype(dtype), requires_grad=True
            )
            out = net(x)
            (out * out).sum().backward()
        grads = [(name, p.grad) for name, p in net.named_parameters()]
        # The state dict carries the BN running statistics.
        return [("out", out.data), ("x", x.grad)] + grads + sorted(net.state_dict().items())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize(
        "oracles", [(True, False), (False, True), (True, True)], ids=["col2im", "bn", "both"]
    )
    def test_matches_old_kernels(self, monkeypatch, dtype, size, oracles):
        got = self._grads(monkeypatch, dtype, size, False, False)
        want = self._grads(monkeypatch, dtype, size, *oracles)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
