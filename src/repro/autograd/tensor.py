"""The :class:`Tensor` type: a numpy array plus a reverse-mode AD tape.

Design
------
Each differentiable operation creates a result ``Tensor`` holding

* ``_parents`` — the input tensors the result depends on, and
* ``_grad_fns`` — one callable per parent that maps the gradient of the
  result to the gradient contribution for that parent.

``backward()`` topologically sorts the graph reachable from the output and
applies the chain rule.  Gradients broadcast exactly like numpy: a helper
(:func:`unbroadcast`) sums gradient contributions back down to each
parent's shape, so ``(B, N) + (N,)`` behaves as expected.

Gradient recording is thread-unsafe by design (the library is
single-process) and can be paused with the :func:`no_grad` context manager,
which the evaluation protocol uses to extract embeddings cheaply.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError
from repro.perf import FLAGS
from repro.obs import OBS

GradFn = Callable[[np.ndarray], np.ndarray]

_grad_enabled = True


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


class Tensor:
    """A numpy array that supports reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fns", "_released")

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
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self._released = False
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
    def _result(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        grad_fns: tuple[GradFn, ...],
    ) -> "Tensor":
        if not _grad_enabled:
            # Under no_grad() the result carries no graph state at all: no
            # parent references, no grad-fn closures.  The closures passed
            # in are dropped here, so anything they captured (patch
            # matrices, pre-activation buffers) is freed immediately.
            return Tensor(data)
        if not any(p.requires_grad for p in parents):
            return Tensor(data)
        kept_parents = []
        kept_fns = []
        for parent, fn in zip(parents, grad_fns):
            if parent.requires_grad or parent._parents:
                kept_parents.append(parent)
                kept_fns.append(fn)
        return Tensor(
            data,
            requires_grad=True,
            _parents=tuple(kept_parents),
            _grad_fns=tuple(kept_fns),
        )

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``gradient`` defaults to ones (only valid to omit for scalars,
        matching common autograd semantics).

        Two flag-guarded memory optimizations (see :mod:`repro.perf`):
        with ``backward_inplace_accum`` (default on), gradients flowing
        into a tensor with several consumers accumulate in place once the
        buffer is owned by this sweep — bit-identical to the reference
        ``existing + contribution``; with ``backward_release`` (opt-in),
        each node's parents and gradient closures — which capture the
        forward activations — are dropped as soon as the sweep has
        consumed them, so peak memory no longer holds the whole graph.
        A released graph raises :class:`GradientError` if backpropagated
        again (the equivalent of PyTorch's ``retain_graph=False``).
        """
        if self._released:
            raise GradientError(
                "backward() on a released graph: backward_release "
                "(REPRO_BACKWARD_RELEASE) freed this graph during a previous "
                "backward() pass; rebuild the graph or disable the flag to "
                "backpropagate the same graph twice"
            )
        if not self.requires_grad and not self._parents:
            raise GradientError("backward() called on a tensor with no graph")
        if gradient is None:
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

        inplace = FLAGS.backward_inplace_accum
        release = FLAGS.backward_release
        profile = OBS.enabled
        start = time.perf_counter() if profile else 0.0
        inplace_adds = 0
        released_nodes = 0

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): gradient}
        #: ids whose accumulation buffer is private to this sweep, hence
        #: safe to mutate (first contributions may alias caller arrays).
        owned: set[int] = set()
        for node in order:
            if node._released:
                raise GradientError(
                    "backward() through a released graph: a backward() pass "
                    "under backward_release (REPRO_BACKWARD_RELEASE) already "
                    "consumed part of this graph; rebuild it or disable the "
                    "flag to backpropagate shared subgraphs twice"
                )
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            for parent, grad_fn in zip(node._parents, node._grad_fns):
                contribution = grad_fn(node_grad)
                existing = grads.get(id(parent))
                if existing is None:
                    grads[id(parent)] = contribution
                elif (
                    inplace
                    and id(parent) in owned
                    and type(existing) is np.ndarray  # np scalars reject out=
                    and existing.dtype == contribution.dtype
                    and existing.shape == contribution.shape
                ):
                    np.add(existing, contribution, out=existing)
                    inplace_adds += 1
                else:
                    grads[id(parent)] = existing + contribution
                    owned.add(id(parent))
            if release and node._parents:
                node._parents = ()
                node._grad_fns = ()
                node._released = True
                released_nodes += 1
        if profile:
            OBS.observe("backward.sweep", time.perf_counter() - start)
            OBS.inc("backward.inplace_accum", inplace_adds)
            OBS.inc("backward.released", released_nodes)

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
        out = self.data + other.data
        return Tensor._result(
            out,
            (self, other),
            (
                lambda g: unbroadcast(g, self.shape),
                lambda g: unbroadcast(g, other.shape),
            ),
        )

    __radd__ = __add__

    def __sub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out = self.data - other.data
        return Tensor._result(
            out,
            (self, other),
            (
                lambda g: unbroadcast(g, self.shape),
                lambda g: unbroadcast(-g, other.shape),
            ),
        )

    def __rsub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out = self.data * other.data
        return Tensor._result(
            out,
            (self, other),
            (
                lambda g: unbroadcast(g * other.data, self.shape),
                lambda g: unbroadcast(g * self.data, other.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out = self.data / other.data
        return Tensor._result(
            out,
            (self, other),
            (
                lambda g: unbroadcast(g / other.data, self.shape),
                lambda g: unbroadcast(-g * self.data / (other.data**2), other.shape),
            ),
        )

    def __rtruediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._result(-self.data, (self,), (lambda g: -g,))

    def __pow__(self, exponent: float | int) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self.data**exponent
        base = self.data

        def grad_base(g: np.ndarray) -> np.ndarray:
            return g * exponent * base ** (exponent - 1)

        return Tensor._result(out, (self,), (grad_base,))

    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        out = self.data @ other.data

        def grad_left(g: np.ndarray) -> np.ndarray:
            if other.data.ndim == 1:
                return unbroadcast(np.multiply.outer(g, other.data), self.shape)
            grad = g @ np.swapaxes(other.data, -1, -2)
            return unbroadcast(grad, self.shape)

        def grad_right(g: np.ndarray) -> np.ndarray:
            if self.data.ndim == 1:
                return unbroadcast(np.multiply.outer(self.data, g), other.shape)
            grad = np.swapaxes(self.data, -1, -2) @ g
            return unbroadcast(grad, other.shape)

        return Tensor._result(out, (self, other), (grad_left, grad_right))

    # -- shaping --------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out = self.data.reshape(shape)
        return Tensor._result(out, (self,), (lambda g: g.reshape(original),))

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out = self.data.transpose(axes)
        return Tensor._result(out, (self,), (lambda g: g.transpose(inverse),))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_axis: int = 0) -> "Tensor":
        """Collapse all axes from ``start_axis`` onward into one."""
        kept = self.shape[:start_axis]
        return self.reshape(*kept, -1)

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]
        shape = self.shape
        dtype = self.data.dtype

        def grad_fn(g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, key, g)
            return full

        return Tensor._result(np.asarray(out), (self,), (grad_fn,))

    # -- reductions ------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).astype(g.dtype)
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            if not keepdims:
                g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
            return np.broadcast_to(g, shape).astype(g.dtype)

        return Tensor._result(np.asarray(out), (self,), (grad_fn,))

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
        out = self.data.max(axis=axis, keepdims=keepdims)
        data = self.data

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                mask = (data == data.max()).astype(g.dtype)
                mask /= mask.sum()
                return mask * g
            expanded = out if keepdims else np.expand_dims(out, axis)
            mask = (data == expanded).astype(g.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return mask * g_expanded

        return Tensor._result(np.asarray(out), (self,), (grad_fn,))

    # -- misc -------------------------------------------------------------------

    def clip(self, low: float, high: float) -> "Tensor":
        out = np.clip(self.data, low, high)
        data = self.data

        def grad_fn(g: np.ndarray) -> np.ndarray:
            return g * ((data >= low) & (data <= high)).astype(g.dtype)

        return Tensor._result(out, (self,), (grad_fn,))

    def abs(self) -> "Tensor":
        out = np.abs(self.data)
        data = self.data
        return Tensor._result(out, (self,), (lambda g: g * np.sign(data),))


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
