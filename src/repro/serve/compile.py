"""Lowering compiler: a model's ``features()`` as a flat, graph-free program.

The autograd path pays three per-op taxes that inference never needs:
``Tensor`` wrapping, parent bookkeeping, and grad-fn closure allocation.
This module removes all three by *lowering* a model once, at compile time,
into a flat list of steps over raw ``numpy`` arrays:

- every step is a plain callable closed over pre-folded constants (the
  im2col weight matrix, the batch-norm ``sqrt(var + eps)`` denominator,
  concatenated meta-head weights, adapter factors), so per-request work
  is only the arithmetic;
- steps read and write integer *slots*; a tiny liveness pass frees each
  intermediate after its last consumer, so peak memory tracks the widest
  layer instead of the whole forward;
- the heavy kernels are the *same functions* the autograd ops call
  (the conv unfold and :func:`repro.autograd.conv_ops.conv_from_patches`,
  :func:`repro.autograd.ops.einsum_forward`, …), so compiled outputs are
  bit-identical to the reference ``features()``, sharing the einsum
  plan cache and the conv gather-index cache;
- each conv's unfold is its own ``im2col`` step, emitted once per input
  slot and geometry (:meth:`ProgramBuilder.unfold`), so an adapter conv
  reads the patches its base conv already unfolded, as
  :meth:`repro.peft.base.Adapter.forward` does in training.

``precision`` (one of :data:`PRECISIONS`, chosen per program at compile
time) picks the compute tier.  ``"f64"`` (the default) folds constants
exactly as the autograd path computes them, preserving the bit-exactness
contract above.  ``"f32"`` casts folded constants (and with them all
kernel compute) to float32; f32 programs are held to a KNN-accuracy
budget instead of bit-identity — measured by the serve bench and pinned
by the tier tests.

``CompiledProgram.run`` executes the emitted steps as one serial loop:
each step's kernel, then the slots whose last consumer it was are dropped.

Lowering is rule-based: ``@compiles(ModuleType)`` registers how one module
forward becomes steps, ``@compiles_features(ModelType)`` does the same for
a model's top-level ``features()``.  Unknown module types raise
:class:`~repro.errors.ServeError`.  Adapters have one rule: every family
that writes its update as :meth:`~repro.peft.base.Adapter.add_delta` runs
that same method on :class:`CompiledKernels`, the raw-array twin of the
autograd kernels it trains on — static families unmerged, meta families
(MetaLoRA CP/TR, MoE-LoRA) fed by the seed slots the mapping network
produces.  Families without one (DoRA, bottleneck) must be merged first
(see :func:`repro.serve.engine.build_engine`).

Compilation snapshots the model: folded constants are copies of the
weights as they are *at compile time* (and batch norms lower in eval mode).
Mutating parameters afterwards requires recompiling, and never changes a
compiled program — nor another tenant sharing it.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro.autograd import ops
from repro.autograd.conv_ops import _unfold, conv_from_patches, fold_conv_weight
from repro.autograd.conv_ops import avg_pool2d_forward, max_pool2d_forward
from repro.errors import ServeError
from repro.models.feature_extractor import FeatureExtractor
from repro.models.mlp_mixer import MixerBlock, MLPMixer
from repro.models.resnet import BasicBlock, ResNet
from repro.nn.activations import GELU, ReLU, Sigmoid, Tanh
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter, eval_mode
from repro.nn.norm import BatchNorm2d, LayerNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.peft.base import Adapter
from repro.peft.meta_model import MetaLoRAModel

Kernel = Callable[..., np.ndarray]

#: The compile precision tiers, in decreasing exactness order.
PRECISIONS = ("f64", "f32")


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


def _scalar(value: float) -> np.ndarray:
    """A 0-d float64 constant.

    ``Tensor`` arithmetic coerces python scalars through ``np.asarray``,
    which makes them *strong* float64 operands under NEP 50 — a float32
    activation times a python float promotes to float64 on the autograd
    path.  Kernels must multiply by the same 0-d array, not the raw float
    (which numpy treats as weak and would keep float32), or bit-exactness
    with the reference path breaks.
    """
    return np.asarray(float(value))


class Step:
    """One lowered op: ``slots[output] = fn(*slots[inputs])``."""

    __slots__ = ("name", "fn", "inputs", "output")

    def __init__(
        self, name: str, fn: Kernel, inputs: tuple[int, ...], output: int
    ) -> None:
        self.name = name
        self.fn = fn
        self.inputs = inputs
        self.output = output


class CompiledProgram:
    """A flat step list with slot liveness, runnable on raw arrays.

    ``run`` is batch-polymorphic: kernels read batch/spatial sizes from
    the input at call time, so one program serves any request size.

    A program may take more than one input (``input_slot`` accepts a
    sequence of slots): the seed-fed backbone *body* programs used for
    multi-tenant serving take ``(images, seeds)``.
    """

    def __init__(
        self,
        steps: list[Step],
        n_slots: int,
        input_slot: int | tuple[int, ...] | list[int],
        output_slot: int,
        source: str,
        *,
        precision: str = "f64",
    ) -> None:
        if isinstance(input_slot, int):
            self.input_slots: tuple[int, ...] = (input_slot,)
        else:
            self.input_slots = tuple(int(slot) for slot in input_slot)
        self.output_slot = output_slot
        self.source = source
        self.precision = precision
        self.steps = tuple(steps)
        self.n_slots = n_slots
        # Last-use liveness: after step i runs, every slot whose final
        # consumer was step i is dropped (except the program output).
        last_use: dict[int, int] = {}
        for index, step in enumerate(self.steps):
            for slot in step.inputs:
                last_use[slot] = index
        release: list[list[int]] = [[] for _ in self.steps]
        for slot, index in last_use.items():
            if slot != output_slot:
                release[index].append(slot)
        self._release = tuple(tuple(slots) for slots in release)
        # Per-step output dtype/shape, seen on the first run.
        self._shapes: list[str | None] = [None] * len(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> list[str]:
        """Human-readable step listing (for tests and debugging).

        After the program has run at least once each line carries the
        step's resolved output dtype and shape, so listings show which
        tier the program computes in.
        """
        lines = []
        for index, step in enumerate(self.steps):
            args = ", ".join("%" + str(slot) for slot in step.inputs)
            line = f"{index}: %{step.output} = {step.name}({args})"
            if self._shapes[index] is not None:
                line += f" -> {self._shapes[index]}"
            lines.append(line)
        return lines

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        if len(inputs) != len(self.input_slots):
            raise ServeError(
                f"program {self.source!r} takes {len(self.input_slots)} "
                f"input(s), got {len(inputs)}"
            )
        if self.precision != "f64":
            inputs = tuple(
                array.astype(np.float32)
                if array.dtype.kind == "f" and array.dtype != np.float32
                else array
                for array in inputs
            )
        values: list[np.ndarray | None] = [None] * self.n_slots
        for slot, array in zip(self.input_slots, inputs):
            values[slot] = array
        shapes = self._shapes
        for index, (step, dead) in enumerate(zip(self.steps, self._release)):
            out = step.fn(*[values[slot] for slot in step.inputs])
            values[step.output] = out
            if shapes[index] is None:
                dims = ", ".join(str(dim) for dim in out.shape)
                shapes[index] = f"{out.dtype}({dims})"
            for slot in dead:
                values[slot] = None
        out = values[self.output_slot]
        assert out is not None
        return out


class ProgramBuilder:
    """Accumulates steps while lowering rules walk the module tree.

    ``precision`` fixes how rules fold constants: :meth:`const` copies
    them, casting floating constants to the tier's compute dtype, and
    :meth:`scalar` produces the 0-d strong operand matching ``Tensor``
    scalar coercion at that tier.
    """

    def __init__(self, external_seeds: bool = False, precision: str = "f64") -> None:
        self.steps: list[Step] = []
        self.n_slots = 0
        self.precision = precision
        #: ``id(adapter) -> slot`` holding that adapter's per-sample seed;
        #: populated by the MetaLoRAModel rule, consumed by the adapter
        #: rule.  Absent means the adapter runs its static-seed path.
        self.seed_slots: dict[int, int] = {}
        #: When set, the MetaLoRAModel rule does not lower the mapping
        #: network; per-sample seeds arrive as a second program input (the
        #: stacked ``(n, total)`` matrix :func:`compile_seed_mapping`
        #: produces) and are sliced per adapter.  This is what lets the
        #: multi-tenant engine stack requests from tenants that share a
        #: backbone but differ in mapping weights.
        self.external_seeds = external_seeds
        self.seed_input_slot: int | None = None
        #: ``(input slot, kh, kw, stride, padding) -> patch slot``.
        self._unfolds: dict[tuple[int, int, int, int, int], int] = {}

    def const(self, array: object) -> np.ndarray:
        """A folded constant at the program's compute tier: always a copy,
        so later in-place weight updates never reach the program.

        At f64 the values and dtype are kept (bit-exactness with the
        autograd path); at f32 floating constants cast to float32 so
        kernel compute stays in float32 end to end.
        """
        array = np.asarray(array)
        if self.precision != "f64" and array.dtype.kind == "f":
            return array.astype(np.float32)
        return np.array(array, copy=True)

    def scalar(self, value: float) -> np.ndarray:
        """A 0-d scalar constant at the tier (strong operand either way)."""
        if self.precision == "f64":
            return _scalar(value)
        return np.asarray(value, dtype=np.float32)

    def new_slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def seed_input(self) -> int:
        """The (lazily allocated) slot external seeds are fed through."""
        if self.seed_input_slot is None:
            self.seed_input_slot = self.new_slot()
        return self.seed_input_slot

    def emit(self, name: str, fn: Kernel, *inputs: int) -> int:
        output = self.new_slot()
        self.steps.append(Step(name, fn, tuple(inputs), output))
        return output

    def unfold(self, x: int, kh: int, kw: int, stride: int, padding: int) -> int:
        """The slot holding ``x``'s ``(N, oh, ow, C*kh*kw)`` conv patches.

        Emits one ``im2col`` step per (input slot, geometry) and returns
        the same slot after that, so a base conv and its adapter conv
        share one unfold.
        """
        key = (x, kh, kw, stride, padding)
        if key not in self._unfolds:

            def im2col(x: np.ndarray) -> np.ndarray:
                patches, out_h, out_w = _unfold(x, kh, kw, stride, padding)
                return patches.reshape(x.shape[0], out_h, out_w, -1)

            self._unfolds[key] = self.emit("im2col", im2col, x)
        return self._unfolds[key]

    def lower(self, module: Module, x: int) -> int:
        """Lower one module's forward; returns the output slot."""
        return _find_rule(_FORWARD_RULES, module)(module, self, x)

    def lower_features(self, model: Module, x: int) -> int:
        """Lower a model's ``features()``; returns the output slot."""
        return _find_rule(_FEATURES_RULES, model)(model, self, x)


_FORWARD_RULES: dict[type, Callable] = {}
_FEATURES_RULES: dict[type, Callable] = {}


def compiles(*types: type) -> Callable:
    """Register a lowering rule for one or more module types."""

    def register(rule: Callable) -> Callable:
        for klass in types:
            _FORWARD_RULES[klass] = rule
        return rule

    return register


def compiles_features(*types: type) -> Callable:
    """Register a ``features()`` lowering rule for one or more model types."""

    def register(rule: Callable) -> Callable:
        for klass in types:
            _FEATURES_RULES[klass] = rule
        return rule

    return register


def _find_rule(registry: dict[type, Callable], module: Module) -> Callable:
    for klass in type(module).__mro__:
        rule = registry.get(klass)
        if rule is not None:
            return rule
    raise _no_rule(module, "features()" if registry is _FEATURES_RULES else "forward")


def _no_rule(module: Module, kind: str) -> ServeError:
    return ServeError(
        f"no serve lowering rule for the {kind} of {type(module).__name__}; "
        "merge static adapters first (AttachResult.merge()) or register a "
        "rule with repro.serve.compile.compiles"
    )


def compile_features(
    model: Module,
    *,
    external_seeds: bool = False,
    precision: str | None = None,
) -> CompiledProgram:
    """Compile ``model.features(x)`` into a :class:`CompiledProgram`.

    The model is put in eval mode for the duration of lowering (batch
    norms fold their running statistics; dropout lowers to identity) and
    restored afterwards.  Compilation is observable: a ``serve.compile``
    span/timer when :mod:`repro.obs` is enabled.

    ``precision`` selects the compute tier (``None`` resolves through
    ``REPRO_SERVE_PRECISION``, default f64 — the bit-exact tier).

    With ``external_seeds=True`` (MetaLoRA models only) the mapping
    network is *not* lowered; the program takes ``(images, seeds)`` where
    ``seeds`` is the stacked per-sample matrix a separately compiled
    :func:`compile_seed_mapping` program produces.  Splitting the two lets
    the serve registry share one backbone body program across tenants
    whose mapping weights differ.
    """
    from repro.obs import OBS, TRACER  # local: keep compile import-light

    precision = resolve_precision(precision)
    with TRACER.span(
        "serve.compile", model=type(model).__name__, precision=precision
    ), OBS.time("serve.compile"):
        builder = ProgramBuilder(external_seeds=external_seeds, precision=precision)
        x = builder.new_slot()
        with eval_mode(model):
            output = builder.lower_features(model, x)
        inputs: tuple[int, ...] = (x,)
        if builder.seed_input_slot is not None:
            inputs = (x, builder.seed_input_slot)
        return CompiledProgram(
            builder.steps,
            builder.n_slots,
            inputs,
            output,
            type(model).__name__,
            precision=precision,
        )


def compile_forward(
    module: Module,
    *,
    precision: str | None = None,
) -> CompiledProgram:
    """Compile one module's ``forward`` (not ``features``) into a program.

    Used by the serve registry to compile a MetaLoRA model's feature
    extractor on its own, so tenants sharing an extractor share the
    compiled program.
    """
    from repro.obs import OBS, TRACER

    precision = resolve_precision(precision)
    with TRACER.span(
        "serve.compile", model=type(module).__name__, precision=precision
    ), OBS.time("serve.compile"):
        builder = ProgramBuilder(precision=precision)
        x = builder.new_slot()
        with eval_mode(module):
            output = builder.lower(module, x)
        return CompiledProgram(
            builder.steps,
            builder.n_slots,
            x,
            output,
            type(module).__name__,
            precision=precision,
        )


def compile_seed_mapping(
    model: Module,
    *,
    precision: str | None = None,
) -> CompiledProgram:
    """Compile a MetaLoRA model's mapping network: features in, seeds out.

    The program maps extractor features ``(n, F)`` to the stacked scaled
    seed matrix ``(n, total)`` — exactly the intermediate the single
    ``features()`` program computes before slicing per adapter, laid out
    by ``model._seed_offsets``.  Both emit it through one helper, so
    feeding the result into an ``external_seeds`` body program is
    bit-identical to the single program.
    """
    from repro.obs import OBS, TRACER

    if not isinstance(model, MetaLoRAModel):
        raise ServeError(
            f"compile_seed_mapping expects a MetaLoRAModel, got {type(model).__name__}"
        )
    precision = resolve_precision(precision)
    with TRACER.span(
        "serve.compile", model=f"{type(model).__name__}.seeds", precision=precision
    ), OBS.time("serve.compile"):
        builder = ProgramBuilder(precision=precision)
        feats = builder.new_slot()
        with eval_mode(model):
            out = _lower_mapping(model, builder, feats)
        return CompiledProgram(
            builder.steps,
            builder.n_slots,
            feats,
            out,
            f"{type(model).__name__}.seeds",
            precision=precision,
        )


# -- nn layer rules -----------------------------------------------------------


@compiles(Linear)
def _lower_linear(module: Linear, b: ProgramBuilder, x: int) -> int:
    w = b.const(module.weight.data)
    if module.bias is None:
        return b.emit("linear", lambda x: x @ w, x)
    bias = b.const(module.bias.data)
    return b.emit("linear", lambda x: x @ w + bias, x)


@compiles(Conv2d)
def _lower_conv2d(module: Conv2d, b: ProgramBuilder, x: int) -> int:
    """The GEMM over the shared unfold, weight folded to its im2col matrix."""
    size = module.kernel_size
    patches = b.unfold(x, size, size, module.stride, module.padding)
    w_mat = b.const(fold_conv_weight(module.weight.data))
    bias = b.const(module.bias.data) if module.bias is not None else None
    return b.emit("conv2d", lambda cols: conv_from_patches(cols, w_mat, bias), patches)


@compiles(BatchNorm2d)
def _lower_batchnorm2d(module: BatchNorm2d, b: ProgramBuilder, x: int) -> int:
    if module.training:
        raise ServeError("BatchNorm2d can only be compiled in eval mode")
    mean4 = b.const(module._buffers["running_mean"].reshape(1, -1, 1, 1))
    var4 = module._buffers["running_var"].reshape(1, -1, 1, 1)
    # Fold sqrt(var + eps) once; `var + eps` promotes to float64 exactly
    # as the Tensor path does (eps goes through _scalar).
    denom = b.const(np.sqrt(var4 + _scalar(module.eps)))
    gamma4 = b.const(module.gamma.data.reshape(1, module.channels, 1, 1))
    beta4 = b.const(module.beta.data.reshape(1, module.channels, 1, 1))
    consts = (mean4, denom, gamma4, beta4)
    #: ``(H, W) -> the four constants tiled along one H*W*C image row``
    #: (a racing first use tiles the same arrays twice).
    rows: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def normalize(x: np.ndarray, mean, denom, gamma, beta) -> np.ndarray:
        # (x - mean) / denom * gamma + beta, allocating a new array only
        # where the dtype promotes (f32 params against the f64 denom);
        # every other step runs in place on the fresh temporary.
        out = x - mean
        for ufunc, operand in ((np.divide, denom), (np.multiply, gamma), (np.add, beta)):
            inplace = np.result_type(out, operand) == out.dtype
            out = ufunc(out, operand, out=out if inplace else None)
        return out

    def kernel(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        nhwc = x.transpose(0, 2, 3, 1)
        if not nhwc.flags.c_contiguous:
            return normalize(x, *consts)
        # A conv output's NHWC storage: the same elementwise ops over whole
        # (N, H*W*C) rows instead of a C-long inner loop, so the same bits,
        # returned as the same NHWC-storage view.
        tiled = rows.get((h, w))
        if tiled is None:
            tiled = rows[(h, w)] = tuple(np.tile(const.reshape(c), h * w) for const in consts)
        out = normalize(nhwc.reshape(n, h * w * c), *tiled)
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    return b.emit("batchnorm2d", kernel, x)


@compiles(LayerNorm)
def _lower_layernorm(module: LayerNorm, b: ProgramBuilder, x: int) -> int:
    gamma, beta = b.const(module.gamma.data), b.const(module.beta.data)
    eps = b.scalar(module.eps)
    # Tensor.mean is sum * (1/count) with the scale coerced to a 0-d
    # float64 — mirrored exactly here.
    inv_count = b.scalar(1.0 / module.features)

    def kernel(x: np.ndarray) -> np.ndarray:
        mean = x.sum(axis=-1, keepdims=True) * inv_count
        centered = x - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
        x_hat = (x - mean) / np.sqrt(var + eps)
        return x_hat * gamma + beta

    return b.emit("layernorm", kernel, x)


@compiles(MaxPool2d)
def _lower_max_pool2d(module: MaxPool2d, b: ProgramBuilder, x: int) -> int:
    kernel, stride = module.kernel, module.stride
    return b.emit("max_pool2d", lambda x: max_pool2d_forward(x, kernel, stride)[0], x)


@compiles(AvgPool2d)
def _lower_avg_pool2d(module: AvgPool2d, b: ProgramBuilder, x: int) -> int:
    kernel, stride = module.kernel, module.stride
    return b.emit("avg_pool2d", lambda x: avg_pool2d_forward(x, kernel, stride)[0], x)


@compiles(GlobalAvgPool2d)
def _lower_global_avg_pool2d(module: GlobalAvgPool2d, b: ProgramBuilder, x: int) -> int:
    if b.precision == "f64":

        def kernel(x: np.ndarray) -> np.ndarray:
            inv = np.asarray(1.0 / (x.shape[2] * x.shape[3]))
            return x.sum(axis=(2, 3)) * inv

    else:

        def kernel(x: np.ndarray) -> np.ndarray:
            return x.sum(axis=(2, 3)) * np.float32(1.0 / (x.shape[2] * x.shape[3]))

    return b.emit("global_avg_pool2d", kernel, x)


@compiles(Sequential)
def _lower_sequential(module: Sequential, b: ProgramBuilder, x: int) -> int:
    for child in module._items:
        x = b.lower(child, x)
    return x


@compiles(Dropout)
def _lower_dropout(module: Dropout, b: ProgramBuilder, x: int) -> int:
    # Inference programs always run in eval mode, where dropout is identity.
    return x


@compiles(ReLU)
def _lower_relu_module(module: ReLU, b: ProgramBuilder, x: int) -> int:
    return b.emit("relu", ops.relu_forward, x)


@compiles(GELU)
def _lower_gelu_module(module: GELU, b: ProgramBuilder, x: int) -> int:
    return b.emit("gelu", ops.gelu_forward, x)


@compiles(Tanh)
def _lower_tanh_module(module: Tanh, b: ProgramBuilder, x: int) -> int:
    return b.emit("tanh", ops.tanh_forward, x)


@compiles(Sigmoid)
def _lower_sigmoid_module(module: Sigmoid, b: ProgramBuilder, x: int) -> int:
    return b.emit("sigmoid", ops.sigmoid_forward, x)


# -- backbone rules -----------------------------------------------------------


@compiles(BasicBlock)
def _lower_basic_block(module: BasicBlock, b: ProgramBuilder, x: int) -> int:
    out = b.lower(module.conv1, x)
    out = b.lower(module.bn1, out)
    out = b.emit("relu", ops.relu_forward, out)
    out = b.lower(module.conv2, out)
    out = b.lower(module.bn2, out)
    identity = b.lower(module.shortcut, x) if module.shortcut is not None else x

    def residual_relu(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        # One allocation: the sum's fresh buffer takes the relu in place.
        out = a + c
        return np.maximum(out, 0.0, out=out)

    return b.emit("residual_relu", residual_relu, out, identity)


@compiles(MixerBlock)
def _lower_mixer_block(module: MixerBlock, b: ProgramBuilder, x: int) -> int:
    y = b.lower(module.norm1, x)
    y = b.emit("transpose(0,2,1)", lambda y: y.transpose(0, 2, 1), y)
    y = b.lower(module.token_fc1, y)
    y = b.emit("gelu", ops.gelu_forward, y)
    y = b.lower(module.token_fc2, y)
    x = b.emit("token_residual", lambda x, y: x + y.transpose(0, 2, 1), x, y)
    z = b.lower(module.norm2, x)
    z = b.lower(module.channel_fc1, z)
    z = b.emit("gelu", ops.gelu_forward, z)
    z = b.lower(module.channel_fc2, z)
    return b.emit("channel_residual", lambda x, z: x + z, x, z)


@compiles_features(ResNet)
def _features_resnet(model: ResNet, b: ProgramBuilder, x: int) -> int:
    out = b.lower(model.stem, x)
    out = b.lower(model.stem_bn, out)
    out = b.emit("relu", ops.relu_forward, out)
    for block in model.blocks:
        out = b.lower(block, out)
    return b.lower(model.pool, out)


@compiles_features(MLPMixer)
def _features_mixer(model: MLPMixer, b: ProgramBuilder, x: int) -> int:
    p = model.patch_size
    grid = model.image_size // p
    c = model.in_channels

    def patchify(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        tiles = x.reshape(n, c, grid, p, grid, p)
        tiles = tiles.transpose(0, 2, 4, 1, 3, 5)
        return tiles.reshape(n, grid * grid, c * p * p)

    tokens = b.emit("patchify", patchify, x)
    tokens = b.lower(model.embed, tokens)
    for block in model.mixer_blocks:
        tokens = b.lower(block, tokens)
    tokens = b.lower(model.norm, tokens)
    inv = b.scalar(1.0 / model.num_patches)
    return b.emit("token_mean", lambda t: t.sum(axis=1) * inv, tokens)


@compiles(FeatureExtractor)
def _lower_feature_extractor(module: FeatureExtractor, b: ProgramBuilder, x: int) -> int:
    feats = b.lower_features(module.backbone, x)
    normalize = module.normalize
    include_stats = module.include_stats
    input_channels = module.input_channels

    # The reference forward operates on raw arrays already (it detaches
    # through no_grad + .data), so this kernel is the same numpy code.
    def kernel(feats: np.ndarray, x: np.ndarray) -> np.ndarray:
        if normalize:
            norms = np.linalg.norm(feats, axis=1, keepdims=True)
            feats = feats / np.maximum(norms, 1e-12)
        if include_stats:
            if x.ndim == 4:
                means = x.mean(axis=(2, 3))
                stds = x.std(axis=(2, 3))
            else:
                means = np.zeros((x.shape[0], input_channels), dtype=feats.dtype)
                stds = np.zeros((x.shape[0], input_channels), dtype=feats.dtype)
            feats = np.concatenate(
                [feats, means.astype(feats.dtype), stds.astype(feats.dtype)], axis=1
            )
        return feats

    return b.emit("extractor_stats", kernel, feats, x)


# -- adapters: one rule, each family's own add_delta ----------------------------


class CompiledKernels:
    """:class:`repro.peft.base.AutogradKernels` over raw arrays, for one adapter.

    ``add_delta`` runs on this at request time.  The adapter's parameters
    are folded (copied, cast to the tier) when the namespace is built, at
    compile time; ``fold`` computes each derived factor — a core's conv
    layout, a conv weight's im2col matrix — once from those copies, on
    first use (a racing first use computes the same array twice).  The
    other kernels are the ``*_forward`` functions the autograd ops call;
    ``conv`` is :func:`~repro.autograd.conv_ops.conv_patches`'s forward
    over the base conv's unfold step.
    """

    einsum = staticmethod(ops.einsum_forward)
    softmax = staticmethod(ops.softmax_forward)
    stack = staticmethod(np.stack)

    def __init__(self, adapter: Adapter, b: ProgramBuilder) -> None:
        self._params = {
            id(param): b.const(param.data)
            for name, param in adapter.named_parameters()
            if not name.startswith("base.")
        }
        self._folds: dict[tuple, np.ndarray] = {}
        self._dtype = np.float64 if b.precision == "f64" else np.float32

    def param(self, param: Parameter) -> np.ndarray:
        return self._params[id(param)]

    def scalar(self, value: float) -> np.ndarray:
        return np.asarray(float(value), dtype=self._dtype)

    def fold(self, fn: Kernel, *operands: np.ndarray) -> np.ndarray:
        key = (fn.__code__, *(id(operand) for operand in operands))
        folded = self._folds.get(key)
        if folded is None:
            folded = self._folds[key] = fn(*operands)
        return folded

    def conv(self, cols: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return conv_from_patches(cols, self.fold(fold_conv_weight, weight), None)


@compiles(Adapter)
def _lower_adapter(module: Adapter, b: ProgramBuilder, x: int) -> int:
    if type(module).add_delta is Adapter.add_delta:
        raise _no_rule(module, "forward")
    out = b.lower(module.base, x)
    kernels = CompiledKernels(module, b)
    base = module.base
    if isinstance(base, Conv2d):
        # The adapter's convs read the patches the base conv unfolded.
        x = b.unfold(x, base.kernel_size, base.kernel_size, base.stride, base.padding)
    name = type(module).__name__
    seed = b.seed_slots.get(id(module))
    if seed is not None:
        return b.emit(name, lambda o, x, s: module.add_delta(kernels, o, x, s), out, x, seed)
    if module.is_meta:
        name += "[static]"
    return b.emit(name, lambda o, x: module.add_delta(kernels, o, x, None), out, x)


# -- MetaLoRA: mapping network + seed-fed backbone ----------------------------


def _lower_mapping(model: MetaLoRAModel, b: ProgramBuilder, feats: int) -> int:
    """The mapping net over slot ``feats``: the stacked ``(n, total)``
    scaled seeds, with the heads fused exactly as ``generate_seeds`` runs
    them — both products through the same batch-invariant two-operand
    einsum, so each row's seeds do not depend on the rows beside it."""
    trunk_w = b.const(model.trunk.weight.data)
    trunk_b = b.const(model.trunk.bias.data)
    hidden = b.emit(
        "linear", lambda f: ops.einsum_forward("ni,io->no", f, trunk_w) + trunk_b, feats
    )
    hidden = b.emit("relu", ops.relu_forward, hidden)
    fused_w = b.const(np.concatenate([head.weight.data for head in model.heads], axis=1))
    fused_b = b.const(np.concatenate([head.bias.data for head in model.heads], axis=0))
    gains = b.const(model.head_gains.data[model._gain_index])
    return b.emit(
        "fused_seed_heads",
        lambda h: ops.tanh_forward(ops.einsum_forward("ni,io->no", h, fused_w) + fused_b)
        * gains,
        hidden,
    )


@compiles_features(MetaLoRAModel)
def _features_meta_lora(model: MetaLoRAModel, b: ProgramBuilder, x: int) -> int:
    # The stacked seeds come from this program's own mapping net, or — with
    # external_seeds — from a compile_seed_mapping program as a second
    # input.  The same kernels slice them per adapter either way, so the
    # split program sequence is bit-identical to the single program.
    if b.external_seeds:
        seeds = b.seed_input()
    else:
        seeds = _lower_mapping(model, b, b.lower(model.extractor, x))
    for index, adapter in enumerate(model._meta_adapters):
        lo = model._seed_offsets[index]
        hi = model._seed_offsets[index + 1]
        shape = adapter.seed_shape

        def slice_seed(s: np.ndarray, lo: int = lo, hi: int = hi, shape=shape) -> np.ndarray:
            return s[:, lo:hi].reshape(s.shape[0], *shape)

        b.seed_slots[id(adapter)] = b.emit(f"seed[{index}]", slice_seed, seeds)
    return b.lower_features(model.backbone, x)
