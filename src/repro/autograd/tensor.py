"""The :class:`Tensor` type: a numpy array plus a reverse-mode AD tape.

Design
------
Every operation runs through one choke point, :meth:`Tensor._op`, as a
pair of kernels that read only what they are handed:

* a *forward* ``fwd(*arrays) -> (out, ctx)`` over the operands' arrays,
  returning the result and whatever the backward needs (``ctx``), and
* one *VJP* per operand, ``vjp(ctx, g) -> grad`` (``None`` for operands
  that take no gradient, such as index arrays or masks).

Kernels bind static arguments (axes, shapes, conv geometry) when the op
is called and never close over an array: arrays arrive as operands or in
``ctx``.  A differentiable result holds ``_parents``, ``_grad_fns`` (the
VJPs of its differentiable parents) and ``_ctx``.  ``backward()``
topologically sorts the graph reachable from the output and applies the
chain rule.  Gradients broadcast exactly like numpy: a helper
(:func:`unbroadcast`) sums gradient contributions back down to each
parent's shape, so ``(B, N) + (N,)`` behaves as expected.

Because kernels read only their operands, :mod:`repro.autograd.capture`
can record a training step's or an eval forward's kernels once and
replay them; while a thread's recorder is active, the ops, module calls
and backward sweep that thread runs report to it.  Each thread has its
own recorder, so captures on different threads never see each other.

Gradient recording is thread-unsafe by design (the library is
single-process) and can be paused with the :func:`no_grad` context manager,
which the evaluation protocol uses to extract embeddings cheaply.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError
from repro.obs import OBS

GradFn = Callable[[object, np.ndarray], np.ndarray]

_grad_enabled = True

#: Each thread's active :class:`repro.autograd.capture.Recorder` (see
#: :func:`repro.autograd.capture.recording`), and how many threads have
#: one: while that count is 0 the hot paths skip the thread-local lookup.
_RECORDERS = threading.local()
_CAPTURING = 0
_CAPTURING_LOCK = threading.Lock()


def _recorder():
    """This thread's active recorder, else None."""
    return getattr(_RECORDERS, "active", None) if _CAPTURING else None


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (like ``torch.no_grad``)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether operations currently record the autograd graph."""
    return _grad_enabled


def _set_recorder(recorder: object) -> None:
    """Make ``recorder`` this thread's active capture (``None`` ends it)."""
    global _CAPTURING
    active = getattr(_RECORDERS, "active", None)
    if recorder is not None and active is not None:
        raise RuntimeError("a step is already being captured")
    if (recorder is None) == (active is None):
        return
    with _CAPTURING_LOCK:
        _CAPTURING += 1 if recorder is not None else -1
    _RECORDERS.active = recorder


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summing over leading added axes and over axes that were size-1 in the
    original operand inverts broadcasting in the backward pass.
    """
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _unbroadcast_vjp(shape: tuple[int, ...]) -> GradFn:
    return lambda ctx, g: unbroadcast(g, shape)


def _add(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, None]:
    return x + y, None


def _sub(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, None]:
    return x - y, None


def _mul(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple]:
    return x * y, (x, y)


def _div(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple]:
    return x / y, (x, y)


def _neg(x: np.ndarray) -> tuple[np.ndarray, None]:
    return -x, None


def _neg_vjp(ctx: None, g: np.ndarray) -> np.ndarray:
    return -g


def _matmul(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple]:
    return x @ y, (x, y)


def _abs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.abs(x), x


def _abs_vjp(data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * np.sign(data)


class Tensor:
    """A numpy array that supports reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns", "_ctx")

    # Make numpy defer to Tensor.__radd__ etc. instead of elementwise-looping.
    __array_priority__ = 100

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _grad_fns: tuple[GradFn, ...] = (),
    ) -> None:
        array = np.asarray(data)
        if array.dtype.kind != "f":
            array = array.astype(np.float32)
        if _CAPTURING and array is not data:
            recorder = _recorder()
            if recorder is not None:
                recorder.converted(data, array)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self._ctx = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        if _grad_enabled:
            self._parents = _parents
            self._grad_fns = _grad_fns
        else:
            self._parents = ()
            self._grad_fns = ()

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy; do not mutate)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def __len__(self) -> int:
        if self.ndim == 0:
            raise ShapeError("len() of a 0-d tensor")
        return self.shape[0]

    # -- graph construction -----------------------------------------------

    @staticmethod
    def _op(
        fwd: Callable[..., tuple[np.ndarray, object]],
        vjps: Sequence[GradFn | None] | None,
        *operands: "Tensor | np.ndarray | None",
        effect: Callable[[object], None] | None = None,
    ) -> "Tensor":
        """Run one op: ``fwd`` over the operands' arrays, graph per ``vjps``.

        ``operands`` are Tensors or raw arrays (constants such as labels
        or an index; ``None`` stands in for an absent operand).  ``vjps``
        holds one VJP per operand, ``None`` where no gradient flows;
        ``vjps=None`` makes a graph-free op.  ``effect(ctx)`` runs right
        after the forward: the op's side effect on module state (batch
        norm's running statistics), recorded as its own step.

        Under :func:`no_grad`, or when no differentiable operand requires
        a gradient, the result carries no graph state at all: no parents,
        no VJPs and no ``ctx``, so whatever the forward saved (patch
        matrices, pre-activation buffers) is freed immediately.
        """
        arrays = [o.data if isinstance(o, Tensor) else o for o in operands]
        out, ctx = fwd(*arrays)
        if effect is not None:
            effect(ctx)
        result = Tensor(out)
        if vjps is not None and _grad_enabled:
            parents = []
            fns = []
            for operand, vjp in zip(operands, vjps):
                if vjp is not None and isinstance(operand, Tensor) and operand.requires_grad:
                    parents.append(operand)
                    fns.append(vjp)
            if parents:
                result.requires_grad = True
                result._parents = tuple(parents)
                result._grad_fns = tuple(fns)
                result._ctx = ctx
        if _CAPTURING:
            recorder = _recorder()
            if recorder is not None:
                recorder.op(fwd, operands, out, result, effect)
        return result

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``gradient`` defaults to ones (only valid to omit for scalars,
        matching common autograd semantics).  Only leaves (tensors
        created with ``requires_grad=True``, such as parameters) retain
        ``.grad``; intermediate gradients live in the sweep and die with it.

        A tensor with several consumers sums their contributions out of
        place (``existing + contribution``), so no array the caller passed
        in is ever written.  While a step is being captured, the sweep
        reports each VJP and each routing decision to the recorder, in
        this order.
        """
        if not self.requires_grad and not self._parents:
            raise GradientError("backward() called on a tensor with no graph")
        seeded = gradient is None
        if seeded:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=self.data.dtype)
        if gradient.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {gradient.shape} does not match output shape {self.shape}"
            )

        profile = OBS.enabled
        start = time.perf_counter() if profile else 0.0
        recorder = _recorder()
        if recorder is not None:
            recorder.begin_backward(self, seeded)

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): gradient}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if recorder is not None:
                recorder.node(node)
            if not node._parents:
                node._accumulate(node_grad)
                if recorder is not None:
                    recorder.accumulate(node)
                continue
            ctx = node._ctx
            for parent, vjp in zip(node._parents, node._grad_fns):
                contribution = vjp(ctx, node_grad)
                existing = grads.get(id(parent))
                if existing is None:
                    grads[id(parent)] = contribution
                    route = "set"
                else:
                    grads[id(parent)] = existing + contribution
                    route = "add"
                if recorder is not None:
                    recorder.vjp(parent, vjp, route)
        if profile:
            OBS.observe("backward.sweep", time.perf_counter() - start)

    def _topological_order(self) -> list["Tensor"]:
        """Nodes reachable from ``self``, outputs first (reverse topo order)."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """A view of the same data with no graph attached."""
        return Tensor(self.data)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: "Tensor | np.ndarray | float | int") -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        vjps = (_unbroadcast_vjp(self.shape), _unbroadcast_vjp(other.shape))
        return Tensor._op(_add, vjps, self, other)

    __radd__ = __add__

    def __sub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        other_shape = other.shape
        vjps = (
            _unbroadcast_vjp(self.shape),
            lambda ctx, g: unbroadcast(-g, other_shape),
        )
        return Tensor._op(_sub, vjps, self, other)

    def __rsub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        shape, other_shape = self.shape, other.shape
        vjps = (
            lambda ctx, g: unbroadcast(g * ctx[1], shape),
            lambda ctx, g: unbroadcast(g * ctx[0], other_shape),
        )
        return Tensor._op(_mul, vjps, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        shape, other_shape = self.shape, other.shape
        vjps = (
            lambda ctx, g: unbroadcast(g / ctx[1], shape),
            lambda ctx, g: unbroadcast(-g * ctx[0] / (ctx[1] ** 2), other_shape),
        )
        return Tensor._op(_div, vjps, self, other)

    def __rtruediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._op(_neg, (_neg_vjp,), self)

    def __pow__(self, exponent: float | int) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def fwd(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return base**exponent, base

        def grad_base(base: np.ndarray, g: np.ndarray) -> np.ndarray:
            return g * exponent * base ** (exponent - 1)

        return Tensor._op(fwd, (grad_base,), self)

    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        shape, other_shape = self.shape, other.shape

        def grad_left(ctx: tuple, g: np.ndarray) -> np.ndarray:
            right = ctx[1]
            if right.ndim == 1:
                return unbroadcast(np.multiply.outer(g, right), shape)
            return unbroadcast(g @ np.swapaxes(right, -1, -2), shape)

        def grad_right(ctx: tuple, g: np.ndarray) -> np.ndarray:
            left = ctx[0]
            if left.ndim == 1:
                return unbroadcast(np.multiply.outer(left, g), other_shape)
            return unbroadcast(np.swapaxes(left, -1, -2) @ g, other_shape)

        return Tensor._op(_matmul, (grad_left, grad_right), self, other)

    # -- shaping --------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        return Tensor._op(
            lambda data: (data.reshape(shape), None),
            (lambda ctx, g: g.reshape(original),),
            self,
        )

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        return Tensor._op(
            lambda data: (data.transpose(axes), None),
            (lambda ctx, g: g.transpose(inverse),),
            self,
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_axis: int = 0) -> "Tensor":
        """Collapse all axes from ``start_axis`` onward into one."""
        kept = self.shape[:start_axis]
        return self.reshape(*kept, -1)

    def __getitem__(self, key) -> "Tensor":
        """Index like numpy.  Array parts of ``key`` (labels, a gather
        index) are operands of the op, not constants of its kernels."""
        shape = self.shape
        dtype = self.data.dtype
        parts = key if isinstance(key, tuple) else (key,)
        arrays = [i for i, part in enumerate(parts) if isinstance(part, np.ndarray)]

        def rebuild(index_arrays: tuple) -> object:
            if not arrays:
                return key
            rebuilt = list(parts)
            for i, array in zip(arrays, index_arrays):
                rebuilt[i] = array
            return tuple(rebuilt) if isinstance(key, tuple) else rebuilt[0]

        def fwd(data: np.ndarray, *index_arrays: np.ndarray) -> tuple[np.ndarray, object]:
            index = rebuild(index_arrays)
            return np.asarray(data[index]), index

        def grad_fn(index: object, g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, index, g)
            return full

        vjps = (grad_fn,) + (None,) * len(arrays)
        return Tensor._op(fwd, vjps, self, *[parts[i] for i in arrays])

    # -- reductions ------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def grad_fn(ctx: None, g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).astype(g.dtype)
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            if not keepdims:
                g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
            return np.broadcast_to(g, shape).astype(g.dtype)

        return Tensor._op(
            lambda data: (np.asarray(data.sum(axis=axis, keepdims=keepdims)), None),
            (grad_fn,),
            self,
        )

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        def fwd(data: np.ndarray) -> tuple[np.ndarray, tuple]:
            out = data.max(axis=axis, keepdims=keepdims)
            return np.asarray(out), (data, out)

        def grad_fn(ctx: tuple, g: np.ndarray) -> np.ndarray:
            data, out = ctx
            if axis is None:
                mask = (data == data.max()).astype(g.dtype)
                mask /= mask.sum()
                return mask * g
            expanded = out if keepdims else np.expand_dims(out, axis)
            mask = (data == expanded).astype(g.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return mask * g_expanded

        return Tensor._op(fwd, (grad_fn,), self)

    # -- misc -------------------------------------------------------------------

    def clip(self, low: float, high: float) -> "Tensor":
        def grad_fn(data: np.ndarray, g: np.ndarray) -> np.ndarray:
            return g * ((data >= low) & (data <= high)).astype(g.dtype)

        return Tensor._op(lambda data: (np.clip(data, low, high), data), (grad_fn,), self)

    def abs(self) -> "Tensor":
        return Tensor._op(_abs, (_abs_vjp,), self)


def tensor(
    data: np.ndarray | float | int | Sequence,
    requires_grad: bool = False,
    dtype: np.dtype | type = np.float32,
) -> Tensor:
    """Build a :class:`Tensor` with an explicit dtype (default float32)."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """A zero tensor with the same shape and dtype as ``t``."""
    return Tensor(np.zeros_like(t.data), requires_grad=requires_grad)
