"""Tests for Linear, Conv2d, norms, activations, pooling, dropout, init."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ShapeError
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    init,
)


class TestLinear:
    def test_affine_map(self, rng):
        layer = Linear(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        out = layer(x)
        assert out.shape == (5, 4)
        assert np.allclose(out.data, x.data @ layer.weight.data + layer.bias.data, atol=1e-5)

    def test_no_bias(self, rng):
        layer = Linear(3, 4, bias=False, rng=rng)
        assert layer.bias is None
        assert layer.parameter_count() == 12

    def test_3d_input(self, rng):
        layer = Linear(3, 4, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 7, 3)).astype(np.float32)))
        assert out.shape == (2, 7, 4)

    def test_dim_validation(self, rng):
        with pytest.raises(ShapeError):
            Linear(0, 3)
        layer = Linear(3, 4, rng=rng)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 5), dtype=np.float32)))

    def test_deterministic_init_from_rng(self):
        a = Linear(3, 4, rng=np.random.default_rng(0))
        b = Linear(3, 4, rng=np.random.default_rng(0))
        assert np.allclose(a.weight.data, b.weight.data)


class TestConv2d:
    def test_shape_and_layout(self, rng):
        conv = Conv2d(3, 8, 3, padding=1, rng=rng)
        assert conv.weight.shape == (3, 3, 3, 8)  # (K, K, I, O) — paper layout
        out = conv(Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 8, 8)

    def test_stride(self, rng):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (1, 4, 4, 4)

    def test_invalid_kernel(self):
        with pytest.raises(ShapeError):
            Conv2d(3, 4, 0)


class TestBatchNorm:
    def test_normalizes_in_train_mode(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor((rng.normal(size=(8, 4, 5, 5)) * 3 + 2).astype(np.float32))
        out = bn(x)
        assert abs(float(out.data.mean())) < 1e-4
        assert float(out.data.std()) == pytest.approx(1.0, abs=0.01)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor((rng.normal(size=(16, 2, 4, 4)) + 5).astype(np.float32))
        bn(x)
        assert np.all(bn._buffers["running_mean"] > 1.0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32))
        bn(x)
        bn.eval()
        y1 = bn(x).data
        y2 = bn(x).data
        assert np.allclose(y1, y2)

    def test_shape_validation(self):
        bn = BatchNorm2d(3)
        with pytest.raises(ShapeError):
            bn(Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32)))


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        ln = LayerNorm(16)
        x = Tensor((rng.normal(size=(4, 7, 16)) * 5 + 3).astype(np.float32))
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=-1), 1.0, atol=0.01)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            LayerNorm(8)(Tensor(np.zeros((2, 7), dtype=np.float32)))

    def test_gamma_beta_applied(self, rng):
        ln = LayerNorm(4)
        ln.gamma.data[...] = 2.0
        ln.beta.data[...] = 1.0
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        out = ln(x).data
        assert out.mean() == pytest.approx(1.0, abs=0.01)


class TestActivationsAndPooling:
    def test_activation_layers_forward(self, rng):
        x = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
        assert np.all(ReLU()(x).data >= 0)
        assert np.all(np.abs(Tanh()(x).data) <= 1)
        assert np.all((Sigmoid()(x).data > 0) & (Sigmoid()(x).data < 1))
        assert GELU()(x).shape == (3, 5)

    def test_pooling_layers(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert AvgPool2d(4)(x).shape == (2, 3, 2, 2)
        assert GlobalAvgPool2d()(x).shape == (2, 3)

    def test_global_pool_value(self):
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32) * 3)
        assert np.allclose(GlobalAvgPool2d()(x).data, 3.0)


class TestDropoutLayer:
    def test_eval_identity(self):
        d = Dropout(0.5, seed=0)
        d.eval()
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        assert np.allclose(d(x).data, 1.0)

    def test_train_drops(self):
        d = Dropout(0.5, seed=0)
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = d(x).data
        assert (out == 0).mean() == pytest.approx(0.5, abs=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestSequential:
    def test_applies_in_order(self, rng):
        net = Sequential(Linear(3, 5, rng=rng), ReLU(), Linear(5, 2, rng=rng))
        out = net(Tensor(rng.normal(size=(4, 3)).astype(np.float32)))
        assert out.shape == (4, 2)
        assert len(net) == 3

    def test_iteration_and_indexing(self, rng):
        net = Sequential(Linear(3, 5, rng=rng), ReLU())
        assert type(net[1]).__name__ == "ReLU"
        assert [type(m).__name__ for m in net] == ["Linear", "ReLU"]


class TestInit:
    def test_kaiming_bound(self, rng):
        w = init.kaiming_uniform(rng, (100, 100), fan_in=100)
        bound = np.sqrt(6.0 / 100)
        assert np.all(np.abs(w) <= bound)
        assert w.std() > bound / 3

    def test_invalid_fan_in(self, rng):
        with pytest.raises(ValueError):
            init.kaiming_uniform(rng, (3, 3), fan_in=0)

    def test_zeros_ones(self):
        assert np.all(init.zeros((3,)) == 0)
        assert np.all(init.ones((3,)) == 1)

    def test_normal_std(self, rng):
        w = init.normal(rng, (200, 200), std=0.02)
        assert w.std() == pytest.approx(0.02, rel=0.05)
