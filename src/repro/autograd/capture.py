"""Capture a training step once, then replay it.

A define-by-run step pays for its graph on every batch: module calls,
``Tensor`` wrapping, VJP closures, the backward sweep's topological sort
and its dict routing.  None of that changes while the model, the batch
shape and the trainable set stay the same.  So
:meth:`repro.train.trainer.Trainer.train_step` runs the first step for a
key define-by-run under a :class:`Recorder` and replays the resulting
:class:`StepProgram` on every later batch with that key.

The recorder sees every op at its one choke point,
:meth:`repro.autograd.tensor.Tensor._op`, and every backward decision in
:meth:`~repro.autograd.tensor.Tensor.backward`.  It writes a flat list
of steps over integer *slots*, the form of
:class:`repro.serve.compile.CompiledProgram`:

- **forward kernels**, each ``slots[out], slots[ctx] = fwd(*slots[in])``;
- **side effects** in their places: batch norm's running-statistic
  update (the op's ``effect``) and dropout draws (a graph-free op with
  no operands, so it draws again on every replay);
- **VJPs** in the sweep's order, each fused with the routing the sweep
  chose for its contribution: the first contribution to a gradient is
  kept as is, each later one adds into a new buffer;
- **leaf accumulation** into each parameter's ``.grad``.

Last-use liveness drops every slot after its final reader.

Operands resolve to slots by identity: the step's inputs (image tensor,
label array), earlier ops' results and arrays, and ``Tensor`` wrappers of
those (a dtype conversion becomes a step).  ``Parameter`` operands are
read live, from ``param.data`` when each replay starts.  Two kinds of
other operand are constants of the program, held by reference: scalars,
and arrays the model held before the step began (an ndarray attribute or
buffer of one of its modules, or a view of one, so a view of a batch
norm buffer stays live).  Any other array was computed during the step
outside the recorded ops, say from the labels or activations in raw
numpy, and would be frozen at the first batch's values; such work must
be an op (:func:`repro.autograd.ops.apply`).  Replay calls the same
kernels on the same operands in the same order, so every value it
produces has the bits the define-by-run step would have produced.

A step that reads such an array, reaches a graph node the recorder did
not see, or accumulates into a leaf that is not a ``Parameter`` is not
captured: :meth:`Recorder.program` returns ``None`` and the caller keeps
training that key define-by-run.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator

import numpy as np

from repro.autograd.tensor import Tensor, _set_recorder
from repro.nn.module import Module, Parameter
from repro.obs import OBS

#: One step: ``run(values)`` plus the slots it reads (for liveness).
_Step = tuple[Callable[[list], None], tuple[int, ...]]


def _as_data(array: object) -> np.ndarray:
    """What :class:`Tensor` stores for ``array`` (its ``__init__`` rule)."""
    array = np.asarray(array)
    return array.astype(np.float32) if array.dtype.kind != "f" else array


def _forward_step(fn: Callable, ins: tuple[int, ...], out: int, ctx: int) -> Callable:
    if len(ins) == 1:
        (a,) = ins

        def run(v: list) -> None:
            v[out], v[ctx] = fn(v[a])

    elif len(ins) == 2:
        a, b = ins

        def run(v: list) -> None:
            v[out], v[ctx] = fn(v[a], v[b])

    else:

        def run(v: list) -> None:
            v[out], v[ctx] = fn(*[v[i] for i in ins])

    return run


def _vjp_step(vjp: Callable, ctx: int, g: int, route: str, into: int, out: int) -> Callable:
    if route == "set":

        def run(v: list) -> None:
            v[out] = vjp(v[ctx], v[g])

    else:  # "add"

        def run(v: list) -> None:
            v[out] = v[into] + vjp(v[ctx], v[g])

    return run


class StepProgram:
    """A captured training step: forward steps, then backward steps.

    :meth:`start` fills the input, parameter and constant slots;
    :meth:`forward` runs up to the loss and returns it; :meth:`backward`
    runs the VJPs and leaves each parameter's ``.grad`` as
    ``loss.backward()`` would.
    """

    def __init__(
        self,
        steps: list[_Step],
        split: int,
        n_slots: int,
        params: list[tuple[int, Parameter]],
        consts: list[tuple[int, object]],
        loss_slot: int,
    ) -> None:
        last_use: dict[int, int] = {}
        for index, (__, reads) in enumerate(steps):
            for slot in reads:
                last_use[slot] = index
        release: list[list[int]] = [[] for __ in steps]
        for slot, index in last_use.items():
            if slot != loss_slot:
                release[index].append(slot)
        runs = [(run, tuple(dead)) for (run, __), dead in zip(steps, release)]
        self._forward = tuple(runs[:split])
        self._backward = tuple(runs[split:])
        self.n_slots = n_slots
        self._params = tuple(params)
        self._consts = tuple(consts)
        self.loss_slot = loss_slot

    def start(self, images: np.ndarray, labels: np.ndarray) -> list:
        values: list = [None] * self.n_slots
        values[0] = _as_data(images)
        values[1] = labels
        for slot, param in self._params:
            values[slot] = param.data
        for slot, const in self._consts:
            values[slot] = const
        return values

    def forward(self, values: list) -> np.ndarray:
        _run(self._forward, values)
        return values[self.loss_slot]

    def backward(self, values: list) -> None:
        if not OBS.enabled:
            _run(self._backward, values)
            return
        start = time.perf_counter()
        _run(self._backward, values)
        OBS.observe("backward.sweep", time.perf_counter() - start)


def _run(steps: tuple, values: list) -> None:
    for run, dead in steps:
        run(values)
        for slot in dead:
            values[slot] = None


class Recorder:
    """Records one define-by-run step as a :class:`StepProgram`.

    Slot 0 is the image tensor and slot 1 the label array.  ``model``'s
    arrays, taken before the step runs, are the non-scalar constants the
    program may hold.  Every object keyed by ``id`` is kept alive until
    the capture ends, so an id is never recycled mid-capture.
    """

    def __init__(self, x: Tensor, labels: np.ndarray, model: Module | None = None) -> None:
        self.steps: list[_Step] = []
        self.n_slots = 2
        self.failed: str | None = None
        self._tensor_slot: dict[int, int] = {id(x): 0}
        self._array_slot: dict[int, int] = {id(x.data): 0, id(labels): 1}
        self._ctx_slot: dict[int, int] = {}
        self._params: dict[int, tuple[int, Parameter]] = {}
        self._consts: dict[int, tuple[int, object]] = {}
        self._grad_slot: dict[int, int] = {}
        self._node_grad = self._node_ctx = -1
        self._split: int | None = None
        self._loss_slot = -1
        self._keep: list[object] = [x, labels]
        self._state: dict[int, np.ndarray] = {}
        for module in model.modules() if model is not None else ():
            for value in (*vars(module).values(), *getattr(module, "_buffers", {}).values()):
                if isinstance(value, np.ndarray):
                    self._state[id(value)] = value

    def _new(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def opaque(self, reason: str) -> None:
        """Mark the step uncapturable (the first reason is kept)."""
        if self.failed is None:
            self.failed = reason

    # -- forward -------------------------------------------------------------

    def slot(self, operand: object) -> int:
        """The slot an op operand reads, allocating constants on first use."""
        if isinstance(operand, Tensor):
            slot = self._tensor_slot.get(id(operand))
            if slot is not None:
                return slot
            if isinstance(operand, Parameter):
                entry = self._params.get(id(operand))
                if entry is None:
                    entry = self._params[id(operand)] = (self._new(), operand)
                    self._keep.append(operand)
                return entry[0]
            operand = operand.data
        slot = self._array_slot.get(id(operand))
        if slot is not None:
            return slot
        entry = self._consts.get(id(operand))
        if entry is None:
            if not self._constant(operand):
                self.opaque("an array computed outside the recorded ops")
            entry = self._consts[id(operand)] = (self._new(), operand)
            self._keep.append(operand)
        return entry[0]

    def _constant(self, array: object) -> bool:
        """Whether ``array`` may be frozen: a scalar or the model's own."""
        if np.size(array) <= 1:
            return True
        while isinstance(array, np.ndarray):
            if id(array) in self._state:
                return True
            array = array.base
        return False

    def converted(self, data: object, array: np.ndarray) -> None:
        """``Tensor(data)`` copied a recorded array: record the copy."""
        source = self._array_slot.get(id(data))
        if source is None:
            return
        out = self._new()

        def run(v: list) -> None:
            v[out] = _as_data(v[source])

        self.steps.append((run, (source,)))
        self._array_slot[id(array)] = out
        self._keep.append(array)

    def op(
        self,
        fwd: Callable,
        operands: tuple,
        out: object,
        result: Tensor,
        effect: Callable | None,
    ) -> None:
        ins = tuple(self.slot(operand) for operand in operands)
        if result.data is not out:
            raw = fwd

            def fwd(*arrays: np.ndarray) -> tuple[np.ndarray, object]:
                value, ctx = raw(*arrays)
                return _as_data(value), ctx

        out_slot, ctx_slot = self._new(), self._new()
        self.steps.append((_forward_step(fwd, ins, out_slot, ctx_slot), ins))
        if effect is not None:
            self.steps.append((lambda v: effect(v[ctx_slot]), (ctx_slot,)))
        self._tensor_slot[id(result)] = out_slot
        self._array_slot[id(result.data)] = out_slot
        self._ctx_slot[id(result)] = ctx_slot
        self._keep.append(result)

    # -- backward ------------------------------------------------------------

    def begin_backward(self, loss: Tensor, seeded: bool) -> None:
        loss_slot = self._tensor_slot.get(id(loss))
        if self._split is not None or loss_slot is None or not seeded:
            self.opaque("backward() twice, with an explicit gradient, or from "
                        "a tensor the step did not compute")
            return
        self._split = len(self.steps)
        self._loss_slot = loss_slot
        seed = self._new()

        def run(v: list) -> None:
            v[seed] = np.ones_like(v[loss_slot])

        self.steps.append((run, (loss_slot,)))
        self._grad_slot[id(loss)] = seed

    def node(self, node: Tensor) -> None:
        """The sweep reached ``node``: its gradient is final."""
        self._node_grad = self._grad_slot.pop(id(node), -1)
        self._node_ctx = self._ctx_slot.get(id(node), -1)
        if self._node_grad < 0 or (node._parents and self._node_ctx < 0):
            self.opaque("a graph node recorded outside this step")

    def accumulate(self, leaf: Tensor) -> None:
        if not isinstance(leaf, Parameter):
            self.opaque("a leaf requiring grad that is not a Parameter")
            return
        g = self._node_grad
        accumulate = leaf._accumulate
        self.steps.append((lambda v: accumulate(v[g]), (g,)))

    def vjp(self, parent: Tensor, vjp: Callable, route: str) -> None:
        into = self._grad_slot.get(id(parent), -1)
        out = self._new()
        reads = (self._node_ctx, self._node_grad) + ((into,) if route == "add" else ())
        self.steps.append(
            (_vjp_step(vjp, self._node_ctx, self._node_grad, route, into, out), reads)
        )
        self._grad_slot[id(parent)] = out

    # -- result ----------------------------------------------------------------

    def program(self) -> StepProgram | None:
        """The captured program, or ``None`` if the step was uncapturable."""
        if self.failed is None and self._split is None:
            self.opaque("the step never called backward()")
        if self.failed is not None:
            return None
        return StepProgram(
            self.steps,
            self._split,
            self.n_slots,
            list(self._params.values()),
            list(self._consts.values()),
            self._loss_slot,
        )


@contextlib.contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Route every op and backward sweep in the block to ``recorder``."""
    _set_recorder(recorder)
    try:
        yield recorder
    finally:
        _set_recorder(None)
        recorder._keep.clear()

