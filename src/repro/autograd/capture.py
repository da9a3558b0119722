"""Capture a define-by-run computation once, then replay it.

A define-by-run step pays for its graph on every batch: module calls,
``Tensor`` wrapping, VJP closures, the backward sweep's topological sort
and its dict routing.  None of that changes while the model, the input
shapes and the trainable set stay the same.  So the code is run once
under a :class:`Recorder` and the flat program it writes is replayed
after.  Two kinds of program come out of it:

- a training step (:class:`StepProgram`):
  :meth:`repro.train.trainer.Trainer.train_step` records the first step
  for a key and replays it on every later batch with that key;
- an eval forward (:class:`ForwardProgram`): a serving program
  (:class:`repro.serve.compile.CompiledProgram`) records a model's
  forward once per input shape and serves every request from it.

The recorder sees every op at its one choke point,
:meth:`repro.autograd.tensor.Tensor._op`, every backward decision in
:meth:`~repro.autograd.tensor.Tensor.backward`, and every module call.
It writes a flat list of steps over integer *slots*:

- **forward kernels**, each ``slots[out], slots[ctx] = fwd(*slots[in])``
  (a forward-only recording keeps no ``ctx``);
- **side effects** in their places: batch norm's running-statistic
  update (the op's ``effect``) and dropout draws (a graph-free op with
  no operands, so it draws again on every replay);
- **VJPs** in the sweep's order, each fused with the routing the sweep
  chose for its contribution: the first contribution to a gradient is
  kept as is, each later one adds into a new buffer;
- **leaf accumulation** into each parameter's ``.grad``.

Operands resolve to slots by identity: the inputs, earlier ops' results
and arrays, and ``Tensor`` wrappers of those (a dtype conversion becomes
a step).  Two kinds of other operand are constants of the program, held
by reference: scalars, and arrays the model held before the recording
began (an ndarray attribute or buffer of one of its modules, or a view
of one, so a view of a batch norm buffer stays live).  A training step
reads each ``Parameter`` live, from ``param.data`` when each replay
starts; a forward recording treats parameters as constants, since it
records a frozen copy of the model.  Any other array was computed
outside the recorded ops, say from the labels or activations in raw
numpy, and would be frozen at the first batch's values; such work must
be an op (:func:`repro.autograd.ops.apply`).  Replay calls the same
kernels on the same operands in the same order, so every value it
produces has the bits the define-by-run code would have produced.

A recording that reads such an array, reaches a graph node the recorder
did not see, accumulates into a leaf that is not a ``Parameter``, or (a
forward recording) runs a side effect or a backward sweep is not
captured: :meth:`Recorder.program` and :meth:`Recorder.forward_program`
return ``None`` and :attr:`Recorder.failed` says why.

A forward program is also compiled: every step whose reads are all
constants ran once, while the recording ran, so its result is folded in
as a constant (the conv weight's im2col matrix, batch norm's tiled
statistics, a factor's layout change).  A step with no reads, such as a
dropout draw, is never folded.  Steps no output depends on are dropped,
and at a reduced precision every floating constant is cast to it, so the
program computes in that dtype end to end.  Both kinds of program free
each slot after its last reader (:func:`release_lists`) and run one
loop (:func:`run_steps`).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Sequence

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


def _forward_step(fn: Callable, ins: tuple[int, ...], out: int, ctx: int | None) -> Callable:
    """``v[out], v[ctx] = fn(*v[ins])``; with ``ctx=None`` the ctx is dropped."""
    if ctx is None:
        if len(ins) == 1:
            (a,) = ins

            def run(v: list) -> None:
                v[out] = fn(v[a])[0]

        elif len(ins) == 2:
            a, b = ins

            def run(v: list) -> None:
                v[out] = fn(v[a], v[b])[0]

        else:

            def run(v: list) -> None:
                v[out] = fn(*[v[i] for i in ins])[0]

    elif len(ins) == 1:
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


def release_lists(reads: Sequence[tuple[int, ...]], keep: int) -> tuple[tuple[int, ...], ...]:
    """Last-use liveness: for each step, the slots it is the final reader
    of, to drop once it has run (never ``keep``, the program's result)."""
    last_use: dict[int, int] = {}
    for index, slots in enumerate(reads):
        for slot in slots:
            last_use[slot] = index
    release: list[list[int]] = [[] for __ in reads]
    for slot, index in last_use.items():
        if slot != keep:
            release[index].append(slot)
    return tuple(tuple(slots) for slots in release)


def run_steps(steps: Sequence[tuple[Callable[[list], None], tuple[int, ...]]], values: list) -> None:
    """Run ``(run, dead)`` steps in order, dropping each dead slot after."""
    for run, dead in steps:
        run(values)
        for slot in dead:
            values[slot] = None


def _op_name(fn: Callable) -> str:
    """``unfold``, ``einsum``, ``reshape``, ``add``: the op a kernel belongs to."""
    name = getattr(fn, "__qualname__", type(fn).__name__).split(".<locals>", 1)[0]
    return name.rsplit(".", 1)[-1].strip("_")


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
        release = release_lists([reads for __, reads in steps], loss_slot)
        runs = [(run, dead) for (run, __), dead in zip(steps, release)]
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
        run_steps(self._forward, values)
        return values[self.loss_slot]

    def backward(self, values: list) -> None:
        if not OBS.enabled:
            run_steps(self._backward, values)
            return
        start = time.perf_counter()
        run_steps(self._backward, values)
        OBS.observe("backward.sweep", time.perf_counter() - start)


class ForwardProgram:
    """A captured eval forward over raw arrays, constants folded.

    ``run(*inputs)`` fills the input slots (slot 0, and slot 1 for a
    second input) into a copy of the constant template and runs the
    steps; ``names[i]`` is step ``i``'s ``Module.op`` and ``outs[i]`` /
    ``reads[i]`` its output and input slots.
    """

    def __init__(
        self,
        steps: list[tuple[str, Callable[[list], None], tuple[int, ...], int]],
        template: list,
        inputs: tuple[int, ...],
        output: int,
    ) -> None:
        self.names = tuple(name for name, __, __, __ in steps)
        self.reads = tuple(reads for __, __, reads, __ in steps)
        self.outs = tuple(out for __, __, __, out in steps)
        release = release_lists(self.reads, output)
        self._runs = tuple((run, dead) for (__, run, __, __), dead in zip(steps, release))
        self._template = template
        self.inputs = inputs
        self.output = output

    def __len__(self) -> int:
        return len(self._runs)

    def _start(self, arrays: Sequence[np.ndarray]) -> list:
        values = list(self._template)
        for slot, array in zip(self.inputs, arrays):
            values[slot] = _as_data(array)
        return values

    def run(self, *arrays: np.ndarray) -> np.ndarray:
        values = self._start(arrays)
        run_steps(self._runs, values)
        return values[self.output]

    def stepwise(self, *arrays: np.ndarray) -> Iterator[np.ndarray]:
        """Run step by step, yielding each step's output as it is made."""
        values = self._start(arrays)
        for index, step in enumerate(self._runs):
            run_steps((step,), values)
            yield values[self.outs[index]]

    def describe(self, shapes: Sequence[str] | None = None) -> list[str]:
        lines = []
        for index, (name, reads, out) in enumerate(zip(self.names, self.reads, self.outs)):
            args = ", ".join("%" + str(slot) for slot in reads)
            line = f"{index}: %{out} = {name}({args})"
            if shapes is not None:
                line += f" -> {shapes[index]}"
            lines.append(line)
        return lines


class Recorder:
    """Records one define-by-run step as a :class:`StepProgram`, or with
    ``forward_only`` one eval forward as a :class:`ForwardProgram`.

    Slot 0 is the image tensor and slot 1 the label array (a training
    step) or the second input tensor, if any (a forward).  ``model``'s
    arrays, taken before the recording runs, are the non-scalar constants
    the program may hold, and its class names the steps run outside its
    submodules.  Every object keyed by ``id`` is kept alive until the
    capture ends, so an id is never recycled mid-capture.
    """

    def __init__(
        self,
        x: Tensor,
        labels: np.ndarray | Tensor | None,
        model: Module | None = None,
        *,
        forward_only: bool = False,
    ) -> None:
        self.steps: list[_Step] = []
        self.n_slots = 2
        self.failed: str | None = None
        self.forward_only = forward_only
        self._tensor_slot: dict[int, int] = {id(x): 0}
        self._array_slot: dict[int, int] = {id(x.data): 0}
        if isinstance(labels, Tensor):
            self._tensor_slot[id(labels)] = 1
            labels = labels.data
        if labels is not None:
            self._array_slot[id(labels)] = 1
        self._ctx_slot: dict[int, int] = {}
        self._params: dict[int, tuple[int, Parameter]] = {}
        self._consts: dict[int, tuple[int, object]] = {}
        self._grad_slot: dict[int, int] = {}
        self._node_grad = self._node_ctx = -1
        self._split: int | None = None
        self._loss_slot = -1
        self._keep: list[object] = [x, labels]
        #: Forward recordings: each step's name, output slot and value.
        self._made: list[tuple[str, int, object]] = []
        self._scopes = [type(model).__name__ if model is not None else ""]
        self._state: dict[int, np.ndarray] = {}
        for module in model.modules() if model is not None else ():
            for value in (*vars(module).values(), *getattr(module, "_buffers", {}).values()):
                if isinstance(value, np.ndarray):
                    self._state[id(value)] = value
            if forward_only:
                for param in module._parameters.values():
                    self._state[id(param.data)] = param.data

    def _new(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def opaque(self, reason: str) -> None:
        """Mark the step uncapturable (the first reason is kept)."""
        if self.failed is None:
            self.failed = reason

    @contextlib.contextmanager
    def scope(self, module: Module) -> Iterator[None]:
        """Name the steps ``module``'s forward records after its class."""
        self._scopes.append(type(module).__name__)
        try:
            yield
        finally:
            self._scopes.pop()

    def _step(self, fn: Callable, run: Callable, reads: tuple[int, ...], out: int, value: object) -> None:
        self.steps.append((run, reads))
        if self.forward_only:
            self._made.append((f"{self._scopes[-1]}.{_op_name(fn)}", out, value))

    # -- forward -------------------------------------------------------------

    def slot(self, operand: object) -> int:
        """The slot an op operand reads, allocating constants on first use."""
        if isinstance(operand, Tensor):
            slot = self._tensor_slot.get(id(operand))
            if slot is not None:
                return slot
            if isinstance(operand, Parameter) and not self.forward_only:
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

        self._step(_as_data, run, (source,), out, array)
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
        kernel = fwd
        if result.data is not out:

            def kernel(*arrays: np.ndarray) -> tuple[np.ndarray, object]:
                value, ctx = fwd(*arrays)
                return _as_data(value), ctx

        out_slot = self._new()
        if self.forward_only:
            if effect is not None:
                self.opaque("an op with a side effect (a module in training mode)")
            self._step(fwd, _forward_step(kernel, ins, out_slot, None), ins, out_slot, result.data)
        else:
            ctx_slot = self._new()
            self._step(fwd, _forward_step(kernel, ins, out_slot, ctx_slot), ins, out_slot, None)
            if effect is not None:
                self.steps.append((lambda v: effect(v[ctx_slot]), (ctx_slot,)))
            self._ctx_slot[id(result)] = ctx_slot
        self._tensor_slot[id(result)] = out_slot
        self._array_slot[id(result.data)] = out_slot
        self._keep.append(result)

    # -- backward ------------------------------------------------------------

    def begin_backward(self, loss: Tensor, seeded: bool) -> None:
        loss_slot = self._tensor_slot.get(id(loss))
        if self.forward_only:
            self.opaque("a backward sweep in a forward recording")
            return
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

    def forward_program(
        self, output: Tensor, dtype: np.dtype | type | None = None
    ) -> ForwardProgram | None:
        """The recorded forward producing ``output``, compiled: constant
        steps folded, dead steps dropped and, given ``dtype``, floating
        constants cast to it.  ``None`` if the forward was uncapturable."""
        out = self._tensor_slot.get(id(output))
        if out is None:
            self.opaque("an output no recorded op computed")
        if self.failed is not None:
            return None
        consts: dict[int, object] = {slot: value for slot, value in self._consts.values()}
        live = []
        for (run, reads), (name, made, value) in zip(self.steps, self._made):
            if reads and all(slot in consts for slot in reads):
                consts[made] = value
            else:
                live.append((name, run, reads, made))
        needed = {out}
        kept = []
        for step in reversed(live):
            if step[3] in needed:
                needed.update(step[2])
                kept.append(step)
        kept.reverse()
        template: list = [None] * self.n_slots
        for slot, value in consts.items():
            if slot in needed:
                template[slot] = value if dtype is None else _cast(value, dtype)
        inputs = (0, 1) if 1 in self._tensor_slot.values() else (0,)
        return ForwardProgram(kept, template, inputs, out)


def _cast(value: object, dtype: np.dtype | type) -> object:
    """A floating constant (array or python float) in ``dtype``."""
    array = np.asarray(value)
    return array.astype(dtype) if array.dtype.kind == "f" else value


@contextlib.contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Route every op, module call and backward sweep this thread runs in
    the block to ``recorder``."""
    _set_recorder(recorder)
    try:
        yield recorder
    finally:
        _set_recorder(None)
        recorder._keep.clear()
