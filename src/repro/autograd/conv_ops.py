"""Differentiable 2-D convolution and pooling.

Convolution is implemented with im2col: patches are unfolded into a matrix
so the convolution becomes a single matmul, which is the fastest approach
available in pure numpy.  The backward pass uses the exact adjoint
(col2im scatter-add), and is validated against finite differences in the
test suite.

The unfold is the paper's dummy-tensor view of convolution (Eq. 2) stored
as indices rather than as a 0/1 tensor.  For each geometry
``(C, H, W, kh, kw, stride, padding)`` an integer index, independent of
the batch size, says which flattened input element lands at each
``(out_h, out_w, C, kh, kw)`` patch position.  Every image is copied into
a fresh ``(N, C*H*W + 1)`` array whose last slot is zero, and every
padded position points at that slot, so the whole unfold — padding
included — is one ``np.take``.  The result is the C-contiguous patch
matrix a strided im2col view would give once copied, bit for bit.

The forward is that unfold followed by one GEMM epilogue,
:func:`conv_from_patches`.  Autograd splits it the same way into two
ops: :func:`unfold`, whose VJP is the col2im scatter-add, and
:func:`conv_patches`, the epilogue, whose VJP to the patches is one GEMM
against the folded weight.  :func:`conv2d` is the two composed.  A conv
adapter (:class:`repro.peft.base.Adapter` around a ``Conv2d``) unfolds
its input once and runs its base conv and its own convs over those
patches, so the backward sweep sums their patch gradients and scatters
them back with one col2im.  A captured serving program runs those
same ops, so it shares the one unfold too.  Every conv ends in the same
epilogue.

No mutable scratch is shared between calls: the index cache holds
read-only arrays, so the kernels may run on several threads at once.

Layout convention: activations are ``(N, C, H, W)`` and convolution
weights are ``(K_h, K_w, C_in, C_out)`` — the latter matches the paper's
``W ∈ R^{K×K×I×O}`` notation for Conv-LoRA (Eq. 5).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.autograd.ops import apply
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.obs import OBS


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size would be {out} "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Unpadded ``(N, C, H, W)`` windows as a zero-copy strided view.

    Returns ``(N, out_h, out_w, C, kh, kw)`` patches; the pooling kernels
    reduce over the last two axes without ever materializing them.
    """
    n, c, h, w = x.shape
    out_h = _out_size(h, kh, stride, 0)
    out_w = _out_size(w, kw, stride, 0)
    stride_n, stride_c, stride_h, stride_w = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, out_h, out_w, c, kh, kw),
        strides=(stride_n, stride_h * stride, stride_w * stride, stride_c, stride_h, stride_w),
        writeable=False,
    )
    return patches, out_h, out_w


@functools.lru_cache(maxsize=64)
def _gather_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Eq. 2's dummy tensor as a flat gather index, built once per geometry.

    Entry ``((i*out_w + j)*C + ch)*kh*kw + a*kw + b`` is the flattened
    position of input ``(ch, i*stride + a - padding, j*stride + b -
    padding)``, or ``C*H*W`` — the zero slot — where that lands in the
    padding.  Read-only, so cached arrays can be shared across threads.
    """
    out_h = _out_size(h, kh, stride, padding)
    out_w = _out_size(w, kw, stride, padding)
    # Input row (column) read at each (output row, kernel row) pair,
    # broadcast to (out_h, out_w, C, kh, kw).
    r = (np.arange(out_h) * stride - padding)[:, None] + np.arange(kh)
    q = (np.arange(out_w) * stride - padding)[:, None] + np.arange(kw)
    r = r[:, None, None, :, None]
    q = q[None, :, None, None, :]
    ch = np.arange(c)[None, None, :, None, None]
    inside = (r >= 0) & (r < h) & (q >= 0) & (q < w)
    idx = np.where(inside, (ch * h + r) * w + q, c * h * w).astype(np.intp).reshape(-1)
    idx.flags.writeable = False
    return idx, out_h, out_w


def clear_conv_caches() -> None:
    """Drop the cached gather indices (frees memory)."""
    _gather_index.cache_clear()


def _unfold(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """C-contiguous ``(N, out_h, out_w, C, kh, kw)`` patches via one gather."""
    n, c, h, w = x.shape
    idx, out_h, out_w = _gather_index(c, h, w, kh, kw, stride, padding)
    ext = np.empty((n, c * h * w + 1), dtype=x.dtype)
    # Copy each image into its row through a (N, C, H, W) view of the rows,
    # so any input strides (NHWC-storage GEMM outputs) take one pass.
    np.copyto(ext[:, :-1].reshape(n, c, h, w), x)
    ext[:, -1] = 0
    cols = np.take(ext, idx, axis=1).reshape(n, out_h, out_w, c, kh, kw)
    return cols, out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add patches back into an image.

    Scatters into a channels-last ``(N, H+2p, W+2p, C)`` buffer, so each
    of the ``kh*kw`` strided adds writes whole contiguous channel rows,
    then copies the crop out as a C-contiguous ``(N, C, H, W)`` array.
    Each element receives the same terms in the same ``(i, j)`` order as
    an NCHW scatter, so the values are bit for bit those of one; the
    NCHW layout keeps them so downstream, where numpy's reductions sum
    in memory order.
    """
    n, c, h, w = x_shape
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    out_h, out_w = cols.shape[1], cols.shape[2]
    for i in range(kh):
        for j in range(kw):
            padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ] += cols[:, :, :, :, i, j]
    cropped = padded[:, padding : padding + h, padding : padding + w, :]
    return np.ascontiguousarray(cropped.transpose(0, 3, 1, 2))


def fold_conv_weight(weight: np.ndarray) -> np.ndarray:
    """Reshape a ``(Kh, Kw, Cin, Cout)`` kernel into the im2col matmul matrix.

    This is the weight layout work of :func:`conv_patches`, its own op so
    that a captured forward folds it once instead of on every request.
    """
    kh, kw, c_in, c_out = weight.shape
    return weight.transpose(2, 0, 1, 3).reshape(c_in * kh * kw, c_out)


def conv_from_patches(
    cols: np.ndarray, w_mat: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    """The GEMM epilogue every convolution ends in.

    ``cols`` is the ``(N, out_h, out_w, Cin*kh*kw)`` patch matrix and
    ``w_mat`` the pre-folded ``(Cin*kh*kw, Cout)`` matrix from
    :func:`fold_conv_weight`; returns the ``(N, Cout, out_h, out_w)``
    output (an NHWC-storage view, plus the bias if given).  Every conv
    ends here.
    """
    out = cols @ w_mat  # (N, oh, ow, Cout)
    out = out.transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.reshape(1, w_mat.shape[1], 1, 1)
    if OBS.enabled:
        OBS.inc("conv2d.forward", bytes=out.nbytes)
    return out


def conv2d_forward(
    x: np.ndarray,
    w_mat: np.ndarray,
    bias: np.ndarray | None,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Graph-free convolution forward on raw arrays: unfold, then epilogue.

    ``w_mat`` is the pre-folded ``(Cin*kh*kw, Cout)`` matrix from
    :func:`fold_conv_weight`.  Returns ``(out, cols, out_h, out_w)`` —
    ``cols`` is the flattened patch matrix a backward pass needs.
    """
    cols = _patch_matrix(x, kh, kw, stride, padding)
    return conv_from_patches(cols, w_mat, bias), cols, cols.shape[1], cols.shape[2]


def _patch_matrix(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """``(N, out_h, out_w, C*kh*kw)`` patches: a view of the contiguous
    unfold, so the one copy happens inside :func:`_unfold`."""
    patches, out_h, out_w = _unfold(x, kh, kw, stride, padding)
    return patches.reshape(x.shape[0], out_h, out_w, x.shape[1] * kh * kw)


def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Graph-free max-pool forward; returns ``(out, argmax, out_h, out_w)``."""
    patches, out_h, out_w = _im2col(x, kernel, kernel, stride)
    n, c = x.shape[0], x.shape[1]
    windows = patches.reshape(n, out_h, out_w, c, kernel * kernel)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out.transpose(0, 3, 1, 2), arg, out_h, out_w


def avg_pool2d_forward(x: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Graph-free average-pool forward; returns ``(out, out_h, out_w)``."""
    patches, out_h, out_w = _im2col(x, kernel, kernel, stride)
    n, c = x.shape[0], x.shape[1]
    out = patches.reshape(n, out_h, out_w, c, kernel * kernel).mean(axis=-1)
    return out.transpose(0, 3, 1, 2), out_h, out_w


def unfold(x: Tensor, kh: int, kw: int, stride: int, padding: int) -> Tensor:
    """Eq. 2's dummy tensor applied to ``x``: the ``(N, out_h, out_w,
    C*kh*kw)`` patch matrix, as a differentiable op.

    Its VJP is the col2im scatter-add, so convs that read the same
    patches (an adapter's and its base conv's) sum their patch gradients
    first and scatter them back once.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input (N, C, H, W), got {x.shape}")
    x_shape = x.shape

    def fwd(data: np.ndarray) -> tuple[np.ndarray, None]:
        return _patch_matrix(data, kh, kw, stride, padding), None

    def grad_fn(ctx: None, g: np.ndarray) -> np.ndarray:
        n, out_h, out_w = g.shape[:3]
        d_patches = g.reshape(n, out_h, out_w, x_shape[1], kh, kw)
        result = _col2im(d_patches, x_shape, kh, kw, stride, padding)
        if OBS.enabled:
            OBS.inc("conv2d.backward", bytes=result.nbytes)
        return result

    return Tensor._op(fwd, (grad_fn,), x)


def conv_patches(cols: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """:func:`conv_from_patches` as a differentiable op.

    ``cols`` is an :func:`unfold` result and ``weight`` a ``(K_h, K_w,
    C_in, C_out)`` kernel of the same geometry; returns ``(N, C_out,
    out_h, out_w)``.
    """
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d weight (Kh, Kw, Cin, Cout), got {weight.shape}")
    kh, kw, c_in, c_out = weight.shape
    if cols.shape[-1] != c_in * kh * kw:
        raise ShapeError(
            f"patch width {cols.shape[-1]} does not match the weight's "
            f"C_in*K_h*K_w = {c_in * kh * kw}"
        )

    def fwd(cols: np.ndarray, w: np.ndarray, b: np.ndarray | None, w_mat: np.ndarray):
        return conv_from_patches(cols, w_mat, b), (w_mat, cols)

    def grad_cols(ctx: tuple, g: np.ndarray) -> np.ndarray:
        return g.transpose(0, 2, 3, 1) @ ctx[0].T  # (N, oh, ow, C*kh*kw)

    def grad_w(ctx: tuple, g: np.ndarray) -> np.ndarray:
        g_cols = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        cols_flat = ctx[1].reshape(-1, c_in * kh * kw)
        d_w_mat = cols_flat.T @ g_cols  # (C*kh*kw, Cout)
        if OBS.enabled:
            OBS.inc("conv2d.backward", bytes=d_w_mat.nbytes)
        return d_w_mat.reshape(c_in, kh, kw, c_out).transpose(1, 2, 0, 3)

    def grad_b(ctx: tuple, g: np.ndarray) -> np.ndarray:
        return g.sum(axis=(0, 2, 3))

    # The weight's im2col matrix is a graph-free op of the weight alone,
    # so a captured forward folds it once; the gradient still flows to
    # ``weight`` through ``grad_w``.
    w_mat = apply(fold_conv_weight, weight)
    return Tensor._op(fwd, (grad_cols, grad_w, grad_b, None), cols, weight, bias, w_mat)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution of ``(N, C_in, H, W)`` with ``(K_h, K_w, C_in, C_out)``.

    Returns ``(N, C_out, H_out, W_out)``.  ``bias``, if given, has shape
    ``(C_out,)`` and is added per output channel.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input (N, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d weight (Kh, Kw, Cin, Cout), got {weight.shape}")
    kh, kw, c_in, __ = weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(
            f"input channels {x.shape[1]} do not match weight channels {c_in}"
        )
    return conv_patches(unfold(x, kh, kw, stride, padding), weight, bias)


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the spatial dimensions of a ``(N, C, H, W)`` tensor."""
    if padding < 0:
        raise ShapeError(f"padding must be non-negative, got {padding}")
    if padding == 0:
        return x
    width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    return Tensor._op(
        lambda data: (np.pad(data, width), None),
        (lambda ctx, g: g[:, :, padding:-padding, padding:-padding],),
        x,
    )


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) spatial windows."""
    stride = stride or kernel
    n, c = x.shape[0], x.shape[1]
    x_shape = x.shape

    def fwd(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out, arg, __, __ = max_pool2d_forward(data, kernel, stride)
        return out, arg

    def grad_fn(arg: np.ndarray, g: np.ndarray) -> np.ndarray:
        out_h, out_w = arg.shape[1], arg.shape[2]
        g_windows = np.zeros((n, out_h, out_w, c, kernel * kernel), dtype=g.dtype)
        np.put_along_axis(
            g_windows, arg[..., None], g.transpose(0, 2, 3, 1)[..., None], axis=-1
        )
        d_patches = g_windows.reshape(n, out_h, out_w, c, kernel, kernel)
        return _col2im(d_patches, x_shape, kernel, kernel, stride, padding=0)

    return Tensor._op(fwd, (grad_fn,), x)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over spatial windows."""
    stride = stride or kernel
    n, c = x.shape[0], x.shape[1]
    x_shape = x.shape
    scale = 1.0 / (kernel * kernel)

    def fwd(data: np.ndarray) -> tuple[np.ndarray, None]:
        return avg_pool2d_forward(data, kernel, stride)[0], None

    def grad_fn(ctx: None, g: np.ndarray) -> np.ndarray:
        out_h, out_w = g.shape[2], g.shape[3]
        g_spread = np.broadcast_to(
            (g.transpose(0, 2, 3, 1) * scale)[..., None, None],
            (n, out_h, out_w, c, kernel, kernel),
        )
        return _col2im(g_spread, x_shape, kernel, kernel, stride, 0)

    return Tensor._op(fwd, (grad_fn,), x)
