"""Serving programs: a model's eval forward, captured once per input shape.

A serving program is the model's own autograd forward, recorded by
:class:`repro.autograd.capture.Recorder` in its forward-only mode and
replayed over raw ``numpy`` arrays as a
:class:`~repro.autograd.capture.ForwardProgram`:

- the steps are the kernels the autograd ops call, on the same operands
  in the same order, so at f64 a program's rows are bit-identical to
  ``extract_embeddings`` by construction, and every module (backbone,
  adapter family, mapping net) serves unmerged with no code of its own
  here;
- work that reads only weights (a conv weight's im2col matrix, batch
  norm's tiled statistics, an adapter factor's layout) ran once while
  the forward was recorded and is folded in as a constant; each slot is
  freed after its last reader;
- a conv adapter's convs read the unfold its base conv made, as they do
  in training.

``precision`` (one of :data:`PRECISIONS`, chosen per program) picks the
compute tier.  ``"f64"`` (the default) keeps every constant as the
forward read it: the bit-exactness contract above.  ``"f32"`` casts the
inputs and every floating constant (``eps`` and ``1/count`` included) to
float32, so the program computes in float32 end to end; f32 programs are
held to a KNN-accuracy budget instead of bit-identity, measured by the
serve bench and pinned by the tier tests.

Compiling snapshots the model: a frozen, eval-mode copy made at compile
time.  The program records its forward from that copy the first time it
runs on each per-sample input shape and dtype, on the first sample of
that batch, so later changes to the model never reach it and one program
serves any batch size and image size.  Each recording is checked before
it serves, failing closed: the batch's first two samples (the first one
twice, for a batch of one) run together must give each sample's rows
alone, or :class:`~repro.errors.ServeError` names the step that broke (a
reshape that baked in the batch size, or an op that mixes rows).
"""

from __future__ import annotations

import copy
import os
import threading
from typing import Callable, Iterable

import numpy as np

from repro.autograd.capture import ForwardProgram, Recorder, recording
from repro.autograd.tensor import Tensor
from repro.errors import ServeError
from repro.nn.module import Module

#: The compile precision tiers, in decreasing exactness order.
PRECISIONS = ("f64", "f32")

#: Image size of the sample a program is listed on before any request ran
#: it, for a model that declares none (a ResNet runs at any size): the
#: size of every shipped config's images.
NOMINAL_IMAGE_SIZE = 16


def resolve_precision(precision: str | None) -> str:
    """Validate a tier, defaulting to ``REPRO_SERVE_PRECISION`` then f64."""
    if precision is None:
        precision = os.environ.get("REPRO_SERVE_PRECISION", "").strip() or "f64"
    if precision not in PRECISIONS:
        raise ServeError(
            f"unknown serve precision {precision!r}; "
            f"choose one of {', '.join(PRECISIONS)}"
        )
    return precision


class CompiledProgram:
    """``forward(module, *inputs)`` as captured programs, one per input shape.

    ``run(*inputs)`` takes ``len(input_slots)`` batched arrays (the
    seed-fed MetaLoRA body takes ``(images, seeds)``) and returns the
    forward's rows.  Captures live inside the one object, so tenants and
    perfbench roles that hold a program see one identity for every shape
    it serves.  Capturing is observable: a ``serve.compile`` span/timer
    when :mod:`repro.obs` is enabled.
    """

    def __init__(
        self,
        module: Module,
        forward: Callable[..., Tensor],
        source: str,
        *,
        inputs: int = 1,
        precision: str = "f64",
        unread: Iterable[object] = (),
    ) -> None:
        self.source = source
        self.precision = precision
        self.input_slots = tuple(range(inputs))
        self._forward = forward
        # Parts of ``module`` the forward never reads stay out of the
        # snapshot: it holds an empty module (or list) in their place.
        memo = {id(part): Module() if isinstance(part, Module) else type(part)() for part in unread}
        snapshot = copy.deepcopy(module, memo)
        snapshot.eval()
        snapshot.freeze()
        snapshot.zero_grad()
        self._snapshot = snapshot
        #: ``((shape[1:], dtype) per input) -> (program, step shapes)``.
        self._programs: dict[tuple, tuple[ForwardProgram, list[str]]] = {}
        self._latest: tuple | None = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._listed()[0])

    def describe(self) -> list[str]:
        """Step listing of the latest captured input shape, each line with
        the step's output dtype and shape for the first sample (a
        :func:`compile_features` program no request has run is captured on
        a nominal image first; any other must have run)."""
        program, shapes = self._listed()
        return program.describe(shapes)

    def _listed(self) -> tuple[ForwardProgram, list[str]]:
        if self._latest is None:
            if self._forward is not _features:
                raise ServeError(f"program {self.source!r} has not run yet")
            self.run(_nominal_images(self._snapshot))
        return self._programs[self._latest]

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        if len(inputs) != len(self.input_slots):
            raise ServeError(
                f"program {self.source!r} takes {len(self.input_slots)} "
                f"input(s), got {len(inputs)}"
            )
        inputs = tuple(np.asarray(array) for array in inputs)
        if self.precision != "f64":
            inputs = tuple(
                array.astype(np.float32)
                if array.dtype.kind == "f" and array.dtype != np.float32
                else array
                for array in inputs
            )
        key = tuple((array.shape[1:], array.dtype.str) for array in inputs)
        entry = self._programs.get(key)
        if entry is None:
            entry = self._capture(key, [array[:2] for array in inputs])
        return entry[0].run(*inputs)

    def _capture(self, key: tuple, head: list[np.ndarray]) -> tuple[ForwardProgram, list[str]]:
        from repro.obs import OBS, TRACER  # local: keep compile import-light

        with self._lock:
            entry = self._programs.get(key)
            if entry is None:
                with TRACER.span(
                    "serve.compile", model=self.source, precision=self.precision
                ), OBS.time("serve.compile"):
                    entry = self._programs[key] = self._record(head)
            self._latest = key
        return entry

    def _record(self, head: list[np.ndarray]) -> tuple[ForwardProgram, list[str]]:
        """Capture the forward on the first sample of ``head`` (a batch's
        first one or two), check it, and list its step shapes."""
        pair = [array if len(array) == 2 else np.concatenate([array, array]) for array in head]
        first = [array[:1] for array in pair]
        tensors = [Tensor(array) for array in first]
        second = tensors[1] if len(tensors) > 1 else None
        recorder = Recorder(tensors[0], second, self._snapshot, forward_only=True)
        with recording(recorder):
            output = self._forward(self._snapshot, *tensors)
        program = recorder.forward_program(
            output, None if self.precision == "f64" else np.float32
        )
        if program is None:
            raise ServeError(f"cannot serve {self.source}: {recorder.failed}")
        shapes = [
            f"{out.dtype}({', '.join(str(dim) for dim in out.shape)})"
            for out in program.stepwise(*first)
        ]
        alone = [program.run(*[array[i : i + 1] for array in pair]) for i in range(2)]
        if self.precision == "f64" and not _same(alone[0], output.data):
            raise ServeError(f"{self.source}: the replayed forward differs from the recorded one")
        try:
            both = program.run(*pair)
            batch_invariant = all(_same(both[i : i + 1], alone[i]) for i in range(2))
        except Exception:  # any failure is a divergence; _divergence names its step
            batch_invariant = False
        if not batch_invariant:
            raise ServeError(
                f"{self.source} does not serve a sample in a batch as it serves "
                f"it alone: {_divergence(program, first, pair)}"
            )
        return program, shapes


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _divergence(program: ForwardProgram, one: list, two: list) -> str:
    """The first step whose output for two samples does not scale from, or
    begin with, its output for the first sample alone."""
    alone, pair = program.stepwise(*one), program.stepwise(*two)
    for index, name in enumerate(program.names):
        try:
            a, b = next(alone), next(pair)
        except Exception as exc:  # reported in the ServeError, not handled
            return f"step {index} ({name}) raised {type(exc).__name__}: {exc}"
        n = a.shape[0] if a.ndim else 0
        if b.shape != (2 * n,) + a.shape[1:] or not _same(b[:n], a):
            return f"step {index} ({name}) gives {b.shape} for two samples, {a.shape} for one"
    return "the output rows differ"


def _nominal_images(module: Module) -> np.ndarray:
    """One zero image of the size ``module`` declares, else the nominal one."""
    channels = size = None
    for sub in module.modules():
        channels = channels or getattr(sub, "in_channels", None)
        size = size or getattr(sub, "image_size", None)
    size = size or NOMINAL_IMAGE_SIZE
    return np.zeros((1, channels or 3, size, size), dtype=np.float32)


def _features(model: Module, x: Tensor) -> Tensor:
    return model.features(x)


def compile_features(model: Module, *, precision: str | None = None) -> CompiledProgram:
    """Compile ``model.features(x)`` into a :class:`CompiledProgram`.

    ``precision`` selects the compute tier (``None`` resolves through
    ``REPRO_SERVE_PRECISION``, default f64 — the bit-exact tier).
    """
    if not callable(getattr(model, "features", None)):
        raise ServeError(f"{type(model).__name__} has no features() to serve")
    return CompiledProgram(
        model, _features, type(model).__name__, precision=resolve_precision(precision)
    )
