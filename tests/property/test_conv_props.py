"""Property-based tests for the convolution operator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, conv2d
from repro.autograd import conv_ops
from repro.errors import ShapeError

SETTINGS = dict(max_examples=25, deadline=None)
seeds = st.integers(0, 2**31 - 1)


def _conv(x, w, stride=1, padding=0):
    return conv2d(
        Tensor(np.asarray(x, dtype=np.float64)),
        Tensor(np.asarray(w, dtype=np.float64)),
        stride=stride,
        padding=padding,
    ).data


class TestConvProperties:
    @given(seeds)
    @settings(**SETTINGS)
    def test_linearity_in_input(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(1, 2, 6, 6))
        b = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 3, 2, 4))
        assert np.allclose(_conv(a + b, w), _conv(a, w) + _conv(b, w), atol=1e-10)

    @given(seeds)
    @settings(**SETTINGS)
    def test_linearity_in_weight(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 6, 6))
        w1 = rng.normal(size=(3, 3, 2, 4))
        w2 = rng.normal(size=(3, 3, 2, 4))
        assert np.allclose(
            _conv(x, w1 + w2), _conv(x, w1) + _conv(x, w2), atol=1e-10
        )

    @given(seeds, st.integers(1, 3))
    @settings(**SETTINGS)
    def test_translation_equivariance(self, seed, shift):
        """Rolling the (periodically padded) input rolls the output —
        convolution's defining symmetry.  Checked with circular inputs by
        comparing interior regions unaffected by boundary effects."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 1, 12, 12))
        w = rng.normal(size=(3, 3, 1, 1))
        out = _conv(x, w, padding=0)
        shifted_out = _conv(np.roll(x, shift, axis=3), w, padding=0)
        # interior columns of the shifted output equal shifted interior
        interior = out[:, :, :, : out.shape[3] - shift]
        assert np.allclose(shifted_out[:, :, :, shift:], interior, atol=1e-10)

    @given(seeds)
    @settings(**SETTINGS)
    def test_delta_kernel_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 3, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        for c in range(3):
            w[0, 0, c, c] = 1.0
        assert np.allclose(_conv(x, w), x, atol=1e-12)

    @given(seeds, st.integers(1, 2), st.integers(0, 2))
    @settings(**SETTINGS)
    def test_batch_independence(self, seed, stride, padding):
        """conv(batch) row n == conv(single sample n)."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 2, 7, 7))
        w = rng.normal(size=(3, 3, 2, 4))
        full = _conv(x, w, stride=stride, padding=padding)
        for n in range(3):
            single = _conv(x[n : n + 1], w, stride=stride, padding=padding)
            assert np.allclose(full[n : n + 1], single, atol=1e-10)


def _strided_unfold(x, kh, kw, stride, padding):
    """Oracle: pad, take a strided ``(N, oh, ow, C, kh, kw)`` view, copy it."""
    n, c, h, w = x.shape
    out_h = conv_ops._out_size(h, kh, stride, padding)
    out_w = conv_ops._out_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    stride_n, stride_c, stride_h, stride_w = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, out_h, out_w, c, kh, kw),
        strides=(stride_n, stride_h * stride, stride_w * stride, stride_c, stride_h, stride_w),
        writeable=False,
    )
    return np.ascontiguousarray(patches), out_h, out_w


class TestGatherUnfold:
    """The gather-index unfold equals the strided-view unfold bit for bit."""

    @given(
        seeds,
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 2),
        st.sampled_from([np.float32, np.float64]),
        st.booleans(),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_strided_oracle(
        self, seed, n, c, h, w, kernel, stride, padding, dtype, nhwc
    ):
        rng = np.random.default_rng(seed)
        if nhwc:
            # GEMM outputs reach the next conv as transposed NHWC views.
            x = rng.normal(size=(n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
        else:
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
        if (min(h, w) + 2 * padding - kernel) // stride + 1 <= 0:
            with pytest.raises(ShapeError) as oracle_error:
                _strided_unfold(x, kernel, kernel, stride, padding)
            with pytest.raises(ShapeError) as gather_error:
                conv_ops._unfold(x, kernel, kernel, stride, padding)
            assert str(gather_error.value) == str(oracle_error.value)
            return
        expected, out_h, out_w = _strided_unfold(x, kernel, kernel, stride, padding)
        got, got_h, got_w = conv_ops._unfold(x, kernel, kernel, stride, padding)
        assert (got_h, got_w) == (out_h, out_w)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        # Both C-contiguous; strides of length-1 axes carry no layout.
        assert got.flags.c_contiguous and expected.flags.c_contiguous
        assert [step for step, size in zip(got.strides, got.shape) if size > 1] == [
            step for step, size in zip(expected.strides, expected.shape) if size > 1
        ]
        assert got.tobytes() == expected.tobytes()


def _nchw_col2im(cols, x_shape, kh, kw, stride, padding):
    """Oracle: scatter-add patches into an NCHW ``(N, C, H+2p, W+2p)`` buffer."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    out_h, out_w = cols.shape[1], cols.shape[2]
    for i in range(kh):
        for j in range(kw):
            padded[
                :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
            ] += cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if padding:
        return padded[:, :, padding : padding + h, padding : padding + w]
    return padded


class TestChannelsLastCol2im:
    """The channels-last col2im equals the NCHW scatter bit for bit."""

    @given(
        seeds,
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(["contiguous", "nhwc", "pool_spread"]),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_nchw_oracle(
        self, seed, n, c, h, w, kernel, stride, padding, dtype, layout
    ):
        if layout == "pool_spread":
            padding = 0  # pooling windows are unpadded
        out_h = (h + 2 * padding - kernel) // stride + 1
        out_w = (w + 2 * padding - kernel) // stride + 1
        if min(out_h, out_w) <= 0:
            return
        rng = np.random.default_rng(seed)
        shape = (n, out_h, out_w, c, kernel, kernel)
        if layout == "contiguous":
            # conv's grad_x: a reshaped (N, oh, ow, C*kh*kw) GEMM output.
            cols = rng.normal(size=shape).astype(dtype)
        elif layout == "nhwc":
            g = rng.normal(size=(n, out_h, out_w, kernel, kernel, c)).astype(dtype)
            cols = g.transpose(0, 1, 2, 5, 3, 4)
        else:
            # avg_pool2d's backward: one value per window, broadcast over it.
            g = rng.normal(size=(n, out_h, out_w, c)).astype(dtype)
            cols = np.broadcast_to(g[..., None, None], shape)
        x_shape = (n, c, h, w)
        expected = _nchw_col2im(
            np.ascontiguousarray(cols), x_shape, kernel, kernel, stride, padding
        )
        got = conv_ops._col2im(cols, x_shape, kernel, kernel, stride, padding)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        # NCHW-ordered, as the oracle's (possibly cropped) buffer is, so
        # downstream reductions sum in the same order.
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
