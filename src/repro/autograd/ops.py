"""Differentiable functional operations.

The most important op here is :func:`einsum`: every tensor-network
contraction in the library (CP, Tensor Ring, Conv-LoRA, the MetaLoRA
formats) is expressed as an einsum, so making einsum differentiable makes
the whole tensor-network layer differentiable for free.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.autograd.tensor import GradFn, Tensor, unbroadcast
from repro.errors import ShapeError
from repro.obs import OBS

try:  # numpy >= 2.4: the pairwise kernel ``np.einsum(optimize=...)`` runs.
    from numpy._core.einsumfunc import bmm_einsum as _bmm_einsum
    from numpy._core.einsumfunc import c_einsum as _c_einsum
except ImportError:  # older numpy: replay through np.einsum itself
    _bmm_einsum = None

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# -- graph-free forward kernels ----------------------------------------------
#
# The raw-array forward computations, split out so the serve compiler can
# run them without Tensor wrapping or graph bookkeeping.  The autograd ops
# below call the same functions, which keeps the two paths bit-identical.


def relu_forward(data: np.ndarray) -> np.ndarray:
    return np.maximum(data, 0.0)


def tanh_forward(data: np.ndarray) -> np.ndarray:
    return np.tanh(data)


def sigmoid_forward(data: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-data))


def gelu_forward(data: np.ndarray) -> np.ndarray:
    out, __ = _gelu_parts(data)
    return out


def _gelu_parts(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU output plus the inner tanh (which the backward pass reuses)."""
    inner = _SQRT_2_OVER_PI * (data + 0.044715 * data**3)
    t = np.tanh(inner)
    return 0.5 * data * (1.0 + t), t


def softmax_forward(data: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# -- elementwise -------------------------------------------------------------
#
# Each op is a forward ``fwd(*arrays) -> (out, ctx)`` and one VJP
# ``vjp(ctx, g)`` per operand, run through ``Tensor._op``; neither closes
# over an array, so a captured training step can replay them.


def _exp(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = np.exp(data)
    return out, out


def _mul_ctx(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * out


def exp(x: Tensor) -> Tensor:
    return Tensor._op(_exp, (_mul_ctx,), x)


def _log(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.log(data), data


def _log_vjp(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g / data


def log(x: Tensor) -> Tensor:
    return Tensor._op(_log, (_log_vjp,), x)


def _sqrt(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = np.sqrt(data)
    return out, out


def _sqrt_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * 0.5 / out


def sqrt(x: Tensor) -> Tensor:
    return Tensor._op(_sqrt, (_sqrt_vjp,), x)


def _tanh(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = tanh_forward(data)
    return out, out


def _tanh_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (1.0 - out**2)


def tanh(x: Tensor) -> Tensor:
    return Tensor._op(_tanh, (_tanh_vjp,), x)


def _sigmoid(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = sigmoid_forward(data)
    return out, out


def _sigmoid_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


def sigmoid(x: Tensor) -> Tensor:
    return Tensor._op(_sigmoid, (_sigmoid_vjp,), x)


def _relu(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return relu_forward(data), data


def _relu_vjp(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (data > 0)


def relu(x: Tensor) -> Tensor:
    return Tensor._op(_relu, (_relu_vjp,), x)


def _gelu(data: np.ndarray) -> tuple[np.ndarray, tuple]:
    out, t = _gelu_parts(data)
    return out, (data, t)


def _gelu_vjp(ctx: tuple, g: np.ndarray) -> np.ndarray:
    data, t = ctx
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * data**2)
    return g * (0.5 * (1.0 + t) + 0.5 * data * (1.0 - t**2) * d_inner)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in MLP-Mixer)."""
    return Tensor._op(_gelu, (_gelu_vjp,), x)


def _maximum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple]:
    x_wins = (x > y).astype(x.dtype)
    tie = (x == y).astype(x.dtype) * 0.5
    return np.maximum(x, y), (x_wins + tie, (1.0 - x_wins) - tie)


def maximum(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise max; at ties the gradient is split evenly."""
    x_shape, y_shape = x.shape, y.shape
    vjps = (
        lambda ctx, g: unbroadcast(g * ctx[0], x_shape),
        lambda ctx, g: unbroadcast(g * ctx[1], y_shape),
    )
    return Tensor._op(_maximum, vjps, x, y)


def _where(x: np.ndarray, y: np.ndarray, condition: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cond = np.asarray(condition, dtype=bool)
    return np.where(cond, x, y), cond


def where(condition: np.ndarray, x: Tensor, y: Tensor) -> Tensor:
    """Select from ``x`` where ``condition`` else ``y`` (condition is constant)."""
    x_shape, y_shape = x.shape, y.shape
    vjps = (
        lambda cond, g: unbroadcast(g * cond, x_shape),
        lambda cond, g: unbroadcast(g * ~cond, y_shape),
        None,
    )
    return Tensor._op(_where, vjps, x, y, np.asarray(condition))


def apply(fn: Callable[..., np.ndarray], *operands: Tensor | np.ndarray) -> Tensor:
    """A graph-free op: ``fn`` over the operands' arrays, no gradient.

    For module code that computes on activations outside autograd (the
    feature extractor's normalization and channel statistics): as an op
    it is one step of a captured training step, where raw numpy on
    ``.data`` would be frozen into a constant.
    """
    return Tensor._op(lambda *arrays: (fn(*arrays), None), None, *operands)


# -- softmax family -----------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    def fwd(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = softmax_forward(data, axis=axis)
        return out, out

    def grad_fn(out: np.ndarray, g: np.ndarray) -> np.ndarray:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Tensor._op(fwd, (grad_fn,), x)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    def fwd(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shifted = data - data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_sum
        return out, np.exp(out)

    def grad_fn(soft: np.ndarray, g: np.ndarray) -> np.ndarray:
        return g - soft * g.sum(axis=axis, keepdims=True)

    return Tensor._op(fwd, (grad_fn,), x)


# -- structural ----------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradient splits back to each input."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_grad(i: int) -> GradFn:
        def grad_fn(ctx: None, g: np.ndarray) -> np.ndarray:
            index = [slice(None)] * g.ndim
            index[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(index)]

        return grad_fn

    return Tensor._op(
        lambda *arrays: (np.concatenate(arrays, axis=axis), None),
        tuple(make_grad(i) for i in range(len(tensors))),
        *tensors,
    )


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis; gradient indexes back per input."""
    if not tensors:
        raise ShapeError("stack requires at least one tensor")

    def make_grad(i: int) -> GradFn:
        def grad_fn(ctx: None, g: np.ndarray) -> np.ndarray:
            return np.take(g, i, axis=axis)

        return grad_fn

    return Tensor._op(
        lambda *arrays: (np.stack(arrays, axis=axis), None),
        tuple(make_grad(i) for i in range(len(tensors))),
        *tensors,
    )


def _masked(data: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return data * mask, mask


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate) during training.

    The mask is drawn by its own graph-free op, so a captured training
    step draws a fresh mask from ``rng`` on every replay.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    shape, dtype = x.shape, x.data.dtype
    mask = apply(lambda: (rng.random(shape) < keep).astype(dtype) / keep)
    return Tensor._op(_masked, (_mul_ctx, None), x, mask)


# -- einsum ---------------------------------------------------------------------


def _parse_einsum_spec(spec: str, operand_count: int) -> tuple[list[str], str]:
    if "..." in spec:
        raise ShapeError("ellipsis einsum specs are not supported")
    if "->" not in spec:
        raise ShapeError("einsum spec must be explicit (contain '->')")
    inputs_part, output = spec.split("->")
    inputs = [part.strip() for part in inputs_part.split(",")]
    for labels in inputs:
        if len(set(labels)) != len(labels):
            raise ShapeError(
                f"einsum spec {labels!r} repeats a label within one operand; "
                "diagonal extraction is not differentiable in this engine"
            )
    if len(inputs) != operand_count:
        raise ShapeError(
            f"einsum spec {spec!r} names {len(inputs)} operands, got {operand_count}"
        )
    return inputs, output.strip()


class _Contraction:
    """One explicit einsum with its pairwise contraction list, planned once.

    For >=3 operands ``path`` is the optimal pairwise order and
    ``contractions`` the list ``np.einsum_path(..., einsum_call=True)``
    builds from it — the steps ``np.einsum(spec, *ops, optimize=path)``
    re-derives on every call.  :meth:`__call__` replays that list with the
    same pairwise kernels ``np.einsum`` uses (``bmm_einsum`` for two
    operands, ``c_einsum`` otherwise), so its bits equal that call's while
    skipping its per-call input parsing and path rebuild.  1- and
    2-operand einsums use numpy's direct kernel.
    """

    __slots__ = ("spec", "path", "contractions")

    def __init__(self, spec: str, shapes: tuple[tuple[int, ...], ...]) -> None:
        self.spec = spec
        self.path: list | None = None
        self.contractions: list | None = None
        if len(shapes) >= 3:
            dummies = [np.broadcast_to(np.float32(0.0), shape) for shape in shapes]
            self.path, __ = np.einsum_path(spec, *dummies, optimize="optimal")
            __, self.contractions = np.einsum_path(
                spec, *dummies, optimize=self.path, einsum_call=True
            )

    def __call__(self, arrays) -> np.ndarray:
        if self.path is None:
            return np.einsum(self.spec, *arrays)
        if _bmm_einsum is None:
            return np.einsum(self.spec, *arrays, optimize=self.path)
        operands = list(arrays)
        for positions, pair_spec, __ in self.contractions:
            picked = [operands.pop(position) for position in positions]
            if len(picked) == 2:
                operands.append(_bmm_einsum(pair_spec, *picked))
            else:
                operands.append(_c_einsum(pair_spec, *picked))
        return operands[0]


class _GradPlan:
    """Everything operand ``i``'s gradient einsum needs, derived once."""

    __slots__ = ("contraction", "missing_dims", "perm")

    def __init__(
        self,
        contraction: _Contraction,
        missing_dims: tuple[int, ...],
        perm: tuple[int, ...],
    ) -> None:
        self.contraction = contraction
        self.missing_dims = missing_dims
        self.perm = perm


class _EinsumPlan:
    """Parsed spec + contraction list + per-operand gradient plans.

    Cached on ``(spec, shapes)`` so repeated contractions (every training
    step re-runs the same adapter einsums) skip spec parsing, gradient-spec
    derivation and contraction planning entirely.  Gradient plans are
    derived lazily: inference-only einsums never pay for them.
    """

    __slots__ = ("inputs", "output", "shapes", "contraction", "_grad_plans")

    def __init__(self, spec: str, shapes: tuple[tuple[int, ...], ...], operand_count: int):
        inputs, output = _parse_einsum_spec(spec, operand_count)
        for labels, shape in zip(inputs, shapes):
            if len(labels) != len(shape):
                raise ShapeError(
                    f"einsum operand with spec {labels!r} has {len(shape)} axes; "
                    f"shape {shape}"
                )
        self.inputs = inputs
        self.output = output
        self.shapes = shapes
        self.contraction = _Contraction(spec, shapes)
        self._grad_plans: list[_GradPlan] | None = None

    def grad_plans(self) -> list[_GradPlan]:
        if self._grad_plans is None:
            self._grad_plans = [self._derive_grad(i) for i in range(len(self.inputs))]
        return self._grad_plans

    def _derive_grad(self, i: int) -> _GradPlan:
        inputs, output = self.inputs, self.output
        target = inputs[i]
        other_specs = [output] + [inputs[j] for j in range(len(inputs)) if j != i]
        available = set("".join(other_specs))
        direct = [label for label in target if label in available]
        missing = [label for label in target if label not in available]
        direct_spec = ",".join(other_specs) + "->" + "".join(direct)
        target_shape = self.shapes[i]
        label_dims = {label: target_shape[k] for k, label in enumerate(target)}
        current = "".join(missing) + "".join(direct)
        perm = tuple(current.index(label) for label in target)
        dims = {}
        for labels, shape in zip(inputs, self.shapes):
            dims.update(zip(labels, shape))
        out_shape = tuple(dims[label] for label in output)
        other_shapes = tuple(self.shapes[j] for j in range(len(inputs)) if j != i)
        return _GradPlan(
            _Contraction(direct_spec, (out_shape,) + other_shapes),
            tuple(label_dims[m] for m in missing),
            perm,
        )


_PLAN_CACHE: "OrderedDict[tuple[str, tuple[tuple[int, ...], ...]], _EinsumPlan]" = (
    OrderedDict()
)
_PLAN_CACHE_CAPACITY = 512
_PLAN_CACHE_STATS = {"hits": 0, "misses": 0}


def einsum_plan_cache_stats() -> dict[str, int]:
    """Hit/miss counters plus current size of the plan cache."""
    return dict(_PLAN_CACHE_STATS, size=len(_PLAN_CACHE))


def clear_einsum_plan_cache() -> None:
    _PLAN_CACHE.clear()
    _PLAN_CACHE_STATS["hits"] = 0
    _PLAN_CACHE_STATS["misses"] = 0


def _get_plan(spec: str, shapes: tuple[tuple[int, ...], ...], count: int) -> _EinsumPlan:
    key = (spec, shapes)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE_STATS["hits"] += 1
        _PLAN_CACHE.move_to_end(key)
        OBS.enabled and OBS.inc("einsum.plan_cache.hit")
        return plan
    plan = _EinsumPlan(spec, shapes, count)
    _PLAN_CACHE_STATS["misses"] += 1
    OBS.enabled and OBS.inc("einsum.plan_cache.miss")
    _PLAN_CACHE[key] = plan
    if len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
        _PLAN_CACHE.popitem(last=False)
    return plan


def einsum_forward(spec: str, *arrays: np.ndarray) -> np.ndarray:
    """Graph-free einsum on raw arrays, sharing the plan cache.

    The serve compiler's pre-planned contractions call this: the first
    request populates :data:`_PLAN_CACHE` (including the pairwise
    contraction list for >=3 operands) and every subsequent request
    replays it.  The differentiable :func:`einsum` runs the identical
    forward, so the two paths are bit-exact.
    """
    shapes = tuple(a.shape for a in arrays)
    out = _get_plan(spec, shapes, len(arrays)).contraction(arrays)
    if OBS.enabled:
        OBS.inc("einsum.forward", bytes=np.asarray(out).nbytes)
    return out


def einsum(spec: str, *operands: Tensor) -> Tensor:
    """Differentiable Einstein summation with an explicit output spec.

    The gradient with respect to operand ``i`` is itself an einsum: contract
    the output gradient with every *other* operand, targeting operand ``i``'s
    index string.  Indices that appear only in operand ``i`` (summed out on
    their own) receive a broadcast gradient.

    Spec parsing, gradient-spec derivation and (for >=3 operands) the
    optimal pairwise contraction list are memoized per ``(spec, shapes)``
    — see :class:`_EinsumPlan`.
    """
    shapes = tuple(op.shape for op in operands)
    plan = _get_plan(spec, shapes, len(operands))

    def fwd(*arrays: np.ndarray) -> tuple[np.ndarray, tuple]:
        out = plan.contraction(arrays)
        if OBS.enabled:
            OBS.inc("einsum.forward", bytes=np.asarray(out).nbytes)
        return np.asarray(out), arrays

    def make_grad(i: int) -> GradFn:
        def grad_fn(arrays: tuple, g: np.ndarray) -> np.ndarray:
            gplan = plan.grad_plans()[i]
            others = [arrays[j] for j in range(len(arrays)) if j != i]
            partial = gplan.contraction([g, *others])
            if gplan.missing_dims:
                # Axes summed out alone in the forward pass: the gradient is
                # constant along them, so broadcast to the full shape.
                partial = np.broadcast_to(
                    np.expand_dims(partial, tuple(range(len(gplan.missing_dims)))),
                    gplan.missing_dims + partial.shape,
                )
            partial = partial.transpose(gplan.perm)
            if OBS.enabled:
                OBS.inc("einsum.backward", bytes=partial.nbytes)
            return np.ascontiguousarray(partial)

        return grad_fn

    return Tensor._op(fwd, tuple(make_grad(i) for i in range(len(operands))), *operands)
