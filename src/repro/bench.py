"""The ``repro bench`` correctness benches.

Speed is perfbench's job (``perfbench/``).  These suites run the
in-process bit-identity and accuracy pins perfbench cannot, one JSON
record per suite:

- ``BENCH_autograd.json`` — the einsum plan cache / contraction planner
  and the conv2d patch cache against the reference implementation
  (flipped via :func:`repro.perf.perf_overrides`): per-case timing and
  the max |optimized - reference| output gap;
- ``BENCH_table1.json`` — the same for one Table I training step of a
  MetaLoRA model at reduced scale;
- ``BENCH_serve.json`` — the compiled engine against autograd, asserted
  bit-exact in-process, plus the ``precision`` section: the precision ×
  fusion matrix, f64 rows bit-exact, per-tier KNN accuracy budgets;
- ``BENCH_robustness.json`` (opt-in) — the corruption-shift accuracy
  matrix with its three bit-identity pins.

Every record is ``{"schema": "repro.bench/v1", "kind", "scale",
"repeats", ...}``; the rest of its shape is declared once, per kind, in
:data:`RECORD_SCHEMAS`, which :func:`validate_bench_record` walks.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.autograd import conv_ops, ops
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError
from repro.obs import OBS
from repro.obs.metrics import KINDS
from repro.perf import reference_mode
from repro.utils.timing import time_calls

SCHEMA = "repro.bench/v1"

#: problem sizes per scale; "tiny" is the CI smoke setting.
_SCALES = {
    "tiny": {"batch": 4, "tokens": 8, "rank": 4, "features": 32, "image": 12, "channels": 8},
    "small": {"batch": 16, "tokens": 16, "rank": 8, "features": 128, "image": 16, "channels": 16},
}


def _clear_caches() -> None:
    ops.clear_einsum_plan_cache()
    conv_ops.clear_conv_caches()


def _observed(fn: Callable[[], object]) -> tuple[object, dict]:
    """Run ``fn`` on cold caches with :data:`repro.obs.OBS` on; returns its
    result and the metrics snapshot (unified schema)."""
    _clear_caches()
    OBS.reset()
    OBS.enable()
    try:
        result = fn()
    finally:
        OBS.disable()
    return result, OBS.snapshot()


def _entry(name: str, fn: Callable[[], np.ndarray], repeats: int) -> dict:
    """Time ``fn`` under reference then optimized flags; ``counters`` is
    the optimized run's metrics snapshot."""
    with reference_mode():
        _clear_caches()
        ref_seconds, ref_out = time_calls(fn, repeats=repeats)
    (opt_seconds, opt_out), counters = _observed(lambda: time_calls(fn, repeats=repeats))
    return {
        "name": name,
        "reference_seconds": float(ref_seconds),
        "optimized_seconds": float(opt_seconds),
        "speedup": float(ref_seconds / max(opt_seconds, 1e-12)),
        "max_abs_diff": float(np.max(np.abs(np.asarray(ref_out) - np.asarray(opt_out)))),
        "counters": counters,
    }


# -- autograd micro-benches ----------------------------------------------------


def _einsum_case(spec: str, shapes: list, grad_of: int, seed: int) -> Callable[[], np.ndarray]:
    """``ops.einsum(spec, ...)`` forward + backward over seeded operands;
    returns the output and operand ``grad_of``'s gradient."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) for shape in shapes]

    def fn() -> np.ndarray:
        operands = [Tensor(array, requires_grad=True) for array in arrays]
        out = ops.einsum(spec, *operands)
        out.sum().backward()
        return np.concatenate([out.data.ravel(), operands[grad_of].grad.ravel()])

    return fn


def _paired_conv_case(sizes: dict) -> Callable[[], np.ndarray]:
    """Base conv + adapter conv over the same activations (patch-cache hit)."""
    rng = np.random.default_rng(2)
    n, c, hw, r = sizes["batch"], sizes["channels"], sizes["image"], sizes["rank"]
    x = Tensor(rng.standard_normal((n, c, hw, hw)))
    w_base = Tensor(rng.standard_normal((3, 3, c, c)) * 0.1, requires_grad=True)
    w_adapter = Tensor(rng.standard_normal((3, 3, c, r)) * 0.1, requires_grad=True)

    def fn() -> np.ndarray:
        base = conv_ops.conv2d(x, w_base, None, stride=1, padding=1)
        delta = conv_ops.conv2d(x, w_adapter, None, stride=1, padding=1)
        loss = base.sum() + delta.sum()
        loss.backward()
        out = np.concatenate([base.data.ravel(), delta.data.ravel()])
        w_base.zero_grad()
        w_adapter.zero_grad()
        return out

    return fn


def run_autograd_bench(scale: str = "tiny", repeats: int = 3) -> dict:
    """Reference-vs-optimized timings for the autograd hot paths."""
    sizes = _SCALES[scale]
    n, t, r, o, hw = (sizes[key] for key in ("batch", "tokens", "rank", "features", "image"))
    # The MetaLoRA-TR linear and MetaLoRA-CP conv mixing contractions.
    tr_linear = _einsum_case("ntpr,roq,nqp->nto", [(n, t, r, r), (r, o, r), (n, r, r)], 1, 0)
    cp_conv = _einsum_case("nrhw,nr,ro->nohw", [(n, r, hw, hw), (n, r), (r, o)], 1, 1)
    entries = [
        _entry("einsum.tr_linear_fwd_bwd", tr_linear, repeats),
        _entry("einsum.cp_conv_fwd_bwd", cp_conv, repeats),
        _entry("conv2d.paired_same_input", _paired_conv_case(sizes), repeats),
    ]
    return _finish_record("autograd", scale, repeats, entries)


# -- Table I protocol micro-bench ---------------------------------------------


def _meta_step_case(sizes: dict) -> Callable[[], np.ndarray]:
    """One Table I adaptation step: MetaLoRA-TR forward + backward."""
    from repro.models import FeatureExtractor, resnet_small
    from repro.peft import MetaLoRAModel, attach
    from repro.train.losses import cross_entropy
    from repro.utils.rng import new_rng

    rng = new_rng(0)
    num_classes = 4
    backbone = resnet_small(num_classes, rng)
    result = attach(backbone, "meta_tr", rank=sizes["rank"] // 2 or 2, rng=rng)
    extractor = FeatureExtractor(resnet_small(num_classes, new_rng(1)))
    model = MetaLoRAModel(backbone, extractor, rng=rng, adapters=result)
    data_rng = np.random.default_rng(2)
    x = Tensor(data_rng.normal(size=(sizes["batch"], 3, 16, 16)).astype(np.float32))
    labels = data_rng.integers(0, num_classes, size=sizes["batch"])

    def fn() -> np.ndarray:
        model.zero_grad()
        logits = model(x)
        loss = cross_entropy(logits, labels)
        loss.backward()
        grads = [
            p.grad.ravel() for p in model.trainable_parameters() if p.grad is not None
        ]
        return np.concatenate([logits.data.ravel(), loss.data.reshape(1)] + grads)

    return fn


def run_table1_bench(scale: str = "tiny", repeats: int = 3) -> dict:
    """Reference-vs-optimized timing of the Table I protocol training step."""
    sizes = _SCALES[scale]
    entries = [_entry("table1.meta_tr_train_step", _meta_step_case(sizes), repeats)]
    return _finish_record("table1", scale, repeats, entries)


# -- robustness-under-shift bench ---------------------------------------------

#: seeds for the robustness grid bench per scale.
_ROBUSTNESS_SEEDS = {"tiny": (0,), "small": (0, 1)}


def _robustness_bench_config(
    methods: tuple[str, ...] | None = None,
    corruptions: tuple[str, ...] | None = None,
    severities: tuple[int, ...] | None = None,
):
    """The seeded robustness grid the bench runs: the quick Table I
    protocol (training is the bottleneck; corruption cells are
    evaluation-only) over the full corruption catalog by default."""
    from dataclasses import replace as dc_replace

    from repro.eval.robustness import RobustnessConfig

    config = RobustnessConfig().quick()
    overrides: dict = {}
    if methods is not None:
        overrides["table1"] = dc_replace(config.table1, methods=tuple(methods))
        overrides["stream_methods"] = tuple(
            m for m in config.stream_methods if m in methods
        ) or (methods[0],)
    for key, value in (("corruptions", corruptions), ("severities", severities)):
        if value is not None:
            overrides[key] = tuple(value)
    return dc_replace(config, **overrides)


def _cells_equal(a: dict, b: dict) -> bool:
    """Exact (bit-level) equality of two key->RobustnessCell mappings."""
    return set(a) == set(b) and all(a[k].accuracy_by_k == b[k].accuracy_by_k for k in a)


def run_robustness_bench(
    scale: str = "tiny",
    repeats: int = 1,
    jobs: int = 2,
    seeds: tuple[int, ...] | None = None,
    methods: tuple[str, ...] | None = None,
    corruptions: tuple[str, ...] | None = None,
    severities: tuple[int, ...] | None = None,
) -> dict:
    """The robustness-under-shift matrix (``BENCH_robustness.json``).

    Runs the ``seeds × methods × corruptions × severities`` grid
    (:func:`repro.runtime.run_robustness_grid`) and asserts three
    bit-identity pins in-process, so the record only exists if they held:
    severity-0 cells equal the clean ``run_table1`` evaluation, the
    ``jobs``-worker grid equals the serial one, and a grid resumed after
    two checkpoints are deleted equals the serial one.  The record adds
    per-method degradation slopes (accuracy lost per severity rung, least
    squares), the MetaLoRA-vs-static-LoRA delta on corrupted cells (the
    headline) and the streaming-drift section
    (:func:`repro.eval.robustness.run_robustness_stream`).
    """
    import shutil
    import tempfile

    from repro.eval.protocol import run_table1
    from repro.eval.robustness import degradation_slope, run_robustness_stream
    from repro.runtime import run_robustness_grid

    if scale not in _SCALES:
        raise ConfigError(f"scale must be one of {sorted(_SCALES)}")
    config = _robustness_bench_config(methods, corruptions, severities)
    table1 = config.table1
    seeds = tuple(int(s) for s in (_ROBUSTNESS_SEEDS[scale] if seeds is None else seeds))
    if 0 not in config.severities:
        raise ConfigError("the robustness bench needs severity 0 (the clean pin)")
    baseline = "lora"
    meta_methods = [m for m in table1.methods if m in ("meta_lora_cp", "meta_lora_tr")]
    if baseline not in table1.methods or not meta_methods:
        raise ConfigError(
            "the robustness bench needs 'lora' plus a meta method for the headline delta"
        )

    # The serial grid checkpoints into a scratch run dir the resume pin reuses.
    scratch = tempfile.mkdtemp(prefix="robustness_bench_")
    try:
        start = time.perf_counter()
        serial = run_robustness_grid(config, seeds, jobs=1, out_dir=scratch)
        serial_seconds = time.perf_counter() - start
        for seed in seeds:  # pin 1: severity 0 == the clean Table I evaluation
            clean = run_table1(table1, seed)
            for method, corruption in itertools.product(table1.methods, config.corruptions):
                cell = serial.cells[(seed, method, corruption, 0)]
                if cell.accuracy_by_k != clean[method].accuracy_by_k:
                    raise ValueError(
                        f"severity-0 cell {(seed, method, corruption)} "
                        f"diverged from the clean Table I evaluation"
                    )
        start = time.perf_counter()
        parallel = run_robustness_grid(config, seeds, jobs=jobs)  # pin 2
        parallel_seconds = time.perf_counter() - start
        if not _cells_equal(serial.cells, parallel.cells):
            raise ValueError("parallel robustness cells diverged from serial")
        # Pin 3: drop the first and last checkpoints (typically different
        # (seed, method) groups, so contexts are rebuilt too) and resume.
        cells_dir = os.path.join(scratch, "cells")
        files = sorted(name for name in os.listdir(cells_dir) if name.endswith(".npz"))
        removed = [files[0], files[-1]]
        for name in removed:
            os.unlink(os.path.join(cells_dir, name))
        resumed = run_robustness_grid(config, seeds, jobs=1, resume=scratch)
        if not _cells_equal(serial.cells, resumed.cells):
            raise ValueError("resumed robustness cells diverged from serial")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def mean_accuracy(method: str, corruption: str, severity: int) -> float:
        """Mean accuracy over seeds and ks of one (method, corruption, severity)."""
        return float(np.mean([
            serial.cells[(seed, method, corruption, severity)].accuracy_by_k[k]
            for seed in seeds
            for k in table1.ks
        ]))

    rungs = sorted(config.severities)
    slopes = {}
    for method in table1.methods:
        per_corruption = {
            corruption: degradation_slope(
                rungs, [mean_accuracy(method, corruption, s) for s in rungs]
            )
            for corruption in config.corruptions
        }
        slopes[method] = {
            "per_corruption": per_corruption,
            "mean": float(np.mean(list(per_corruption.values()))),
        }

    def delta_at(corrupted: bool) -> float:
        """Mean meta-minus-baseline accuracy over (non-)corrupted cells."""
        return float(np.mean([
            np.mean([mean_accuracy(m, corruption, severity) for m in meta_methods])
            - mean_accuracy(baseline, corruption, severity)
            for corruption in config.corruptions
            for severity in config.severities
            if (severity > 0) == corrupted
        ]))

    headline = {
        "baseline": baseline,
        "meta_methods": meta_methods,
        "corrupted_delta": delta_at(True),
        "clean_delta": delta_at(False),
    }
    record = {
        "schema": SCHEMA,
        "kind": "robustness",
        "scale": scale,
        "repeats": int(repeats),
        "grid": {
            "backbone": table1.backbone,
            "seeds": list(seeds),
            "methods": list(table1.methods),
            "corruptions": list(config.corruptions),
            "severities": [int(s) for s in config.severities],
            "ks": [int(k) for k in table1.ks],
        },
        "cells": [
            {
                "seed": int(seed),
                "method": method,
                "corruption": corruption,
                "severity": int(severity),
                "accuracy_by_k": {str(k): float(v) for k, v in cell.accuracy_by_k.items()},
            }
            for (seed, method, corruption, severity), cell in sorted(serial.cells.items())
        ],
        "severity0_bit_identical": True,
        "parallel": {
            "jobs": int(jobs),
            "host_cpus": int(os.cpu_count() or 1),
            "serial_seconds": float(serial_seconds),
            "parallel_seconds": float(parallel_seconds),
            "cells_equal": True,
        },
        "resume": {
            "removed_cells": len(removed),
            "restored_cells": len(resumed.restored),
            "cells_equal": True,
        },
        "slopes": slopes,
        "headline": headline,
        "stream": run_robustness_stream(config, seeds[0]),
        "summary": {"headline_delta": headline["corrupted_delta"]},
    }
    validate_bench_record(record)
    return record


# -- serving bench -------------------------------------------------------------

#: sample-set and chunk sizes for the serve bench per scale.
_SERVE_SCALES = {
    "tiny": {"samples": 16, "image": 16, "batch": 8},
    "small": {"samples": 64, "image": 16, "batch": 16},
}


def _serve_models() -> list[tuple[str, object]]:
    """The Table I backbones plus a meta-adapted resnet (the unmergeable case)."""
    from repro.models import FeatureExtractor, mixer_small, resnet_small
    from repro.peft import MetaLoRAModel, attach
    from repro.utils.rng import new_rng

    num_classes = 4
    models: list[tuple[str, object]] = [
        ("resnet", resnet_small(num_classes, new_rng(0))),
        ("mixer", mixer_small(num_classes, new_rng(1))),
    ]
    backbone = resnet_small(num_classes, new_rng(2))
    result = attach(backbone, "meta_tr", rank=2, rng=new_rng(3))
    extractor = FeatureExtractor(resnet_small(num_classes, new_rng(4)))
    meta = MetaLoRAModel(backbone, extractor, rng=new_rng(5), adapters=result)
    # The B-side factors are zero-initialized (adapters start as identity);
    # randomize them so the exactness check exercises a nonzero delta path.
    param_rng = np.random.default_rng(6)
    for param in meta.parameters():
        if not np.any(param.data):
            noise = param_rng.normal(size=param.data.shape) * 0.2
            param.data[...] = noise.astype(param.data.dtype)
    models.append(("resnet+meta_tr", meta))
    return models


def _multi_tenant_models(tenants: int) -> tuple[object, list[object]]:
    """One merged-LoRA static tenant plus ``tenants - 1`` MetaLoRA tenants.

    The meta tenants are built from identical seeds and then given distinct
    mapping-net weights: byte-identical extractor/backbone states mean the
    registry shares one extractor and one body program across all of them,
    which is what makes their requests stackable.
    """
    from repro.models import FeatureExtractor, resnet_small
    from repro.peft import MetaLoRAModel, attach
    from repro.utils.rng import new_rng

    num_classes = 4

    def randomize_zeros(model: object, rng: np.random.Generator) -> None:
        for param in model.parameters():
            if not np.any(param.data):
                param.data[...] = (
                    rng.normal(size=param.data.shape) * 0.2
                ).astype(param.data.dtype)

    backbone = resnet_small(num_classes, new_rng(20))
    static = attach(backbone, "lora", rank=2, rng=new_rng(21))
    randomize_zeros(backbone, np.random.default_rng(22))

    metas = []
    for index in range(tenants - 1):
        meta_backbone = resnet_small(num_classes, new_rng(30))
        result = attach(meta_backbone, "meta_tr", rank=2, rng=new_rng(31))
        extractor = FeatureExtractor(resnet_small(num_classes, new_rng(32)))
        meta = MetaLoRAModel(meta_backbone, extractor, rng=new_rng(33), adapters=result)
        randomize_zeros(meta, np.random.default_rng(34))
        if index:  # tenant-specific fine-tune: perturb only the mapping net
            mapping_rng = np.random.default_rng(40 + index)
            meta.trunk.weight.data[...] += (
                mapping_rng.normal(size=meta.trunk.weight.data.shape) * 0.05
            )
            for head in meta.heads:
                head.weight.data[...] += (
                    mapping_rng.normal(size=head.weight.data.shape) * 0.05
                )
        metas.append(meta)
    return static, metas


def build_shard_tenant(kind: str, index: int = 0) -> object:
    """Rebuild one demo-fleet tenant *architecture* in a shard process.

    The importable builder :class:`~repro.serve.shard.ShardedEngine`
    ships to its workers: it only has to recreate the module graph with
    the right shapes — the authoritative weights arrive separately as
    the parent's ``state_dict`` and overwrite whatever the seeds here
    produce (the digest check proves it).  Seeds mirror
    :func:`_multi_tenant_models` so the architectures are identical.
    """
    from repro.models import FeatureExtractor, resnet_small
    from repro.peft import MetaLoRAModel, attach
    from repro.utils.rng import new_rng

    if kind == "static":
        backbone = resnet_small(4, new_rng(20))
        return attach(backbone, "lora", rank=2, rng=new_rng(21))
    if kind != "meta":
        raise ConfigError(f"unknown shard tenant kind {kind!r} (static|meta)")
    meta_backbone = resnet_small(4, new_rng(30))
    result = attach(meta_backbone, "meta_tr", rank=2, rng=new_rng(31))
    extractor = FeatureExtractor(resnet_small(4, new_rng(32)))
    return MetaLoRAModel(meta_backbone, extractor, rng=new_rng(33), adapters=result)


def _embed_chunked(engine, images: np.ndarray, batch_size: int) -> np.ndarray:
    """Bulk embeddings through the typed API, chunked like
    ``extract_embeddings`` so rows stay bit-identical to it."""
    from repro.serve import ServeRequest

    requests = [
        ServeRequest(sample=images[start : start + batch_size])
        for start in range(0, images.shape[0], batch_size)
    ]
    return np.concatenate(
        [result.require() for result in engine.serve(requests)], axis=0
    )


#: precision-tier accuracy budgets: largest allowed Table-I-style KNN
#: accuracy drop vs the f64 embeddings on the same support/query split.
PRECISION_ACCURACY_BUDGETS = {"f32": 0.02, "int8": 0.05}

#: KNN split sizes for the precision accuracy check per scale.
_PRECISION_KNN_SCALES = {
    "tiny": {"support": 24, "query": 24, "classes": 3, "k": 3},
    "small": {"support": 48, "query": 48, "classes": 4, "k": 5},
}

#: workload sizes for the precision matrix, per scale and backbone.  These
#: are deliberately larger than the serve-suite sizes: the tiers compare
#: kernel arithmetic, so the workload must be BLAS-bound, not
#: dispatch-bound, for the rows to mean anything.  The mixer's patchify
#: grid is baked for the paper's 16x16 images, so it scales by batch only.
_PRECISION_WORKLOADS = {
    scale: {
        "resnet": {"image": 32, "batch": 64, "samples": samples},
        "mixer": {"image": 16, "batch": 64, "samples": samples},
    }
    for scale, samples in (("tiny", 64), ("small", 128))
}


def run_precision_bench(scale: str = "tiny", repeats: int = 3) -> dict:
    """The precision × fusion matrix over both backbones.

    Every row times the *compiled program itself* (chunked ``run`` calls,
    no engine queueing) on the same sample set, against a baseline row
    compiled exactly like the pre-optimizer serving stack: f64 with
    fusion off.  Checks asserted in-process, so a record can only exist
    if they passed:

    - both f64 rows are bit-identical to ``extract_embeddings``;
    - per tier, Table-I-style KNN accuracy (cosine, fresh synthetic
      support/query split) drops no more than
      :data:`PRECISION_ACCURACY_BUDGETS` allows vs the f64 embeddings.
    """
    from repro.data.synthetic import generate_task_data
    from repro.data.tasks import TaskDistribution
    from repro.eval.embeddings import extract_embeddings
    from repro.eval.knn import KNNClassifier
    from repro.models import mixer_small, resnet_small
    from repro.serve import compile_features
    from repro.utils.rng import new_rng

    knn_sizes = _PRECISION_KNN_SCALES[scale]
    workloads = _PRECISION_WORKLOADS[scale]

    configs = [("f64", "f64", False)]  # (label, precision, fuse)
    configs += [(f"{tier}+fuse", tier, True) for tier in ("f64", "f32", "int8")]

    backbones = []
    best_speedup = 0.0
    for name, model in (
        ("resnet", resnet_small(4, new_rng(0))),
        ("mixer", mixer_small(4, new_rng(1))),
    ):
        workload = workloads[name]
        samples, batch, image = workload["samples"], workload["batch"], workload["image"]
        data_rng = np.random.default_rng(11)
        images = data_rng.normal(size=(samples, 3, image, image)).astype(np.float32)
        tasks = TaskDistribution(2, image_size=image, seed=12, noise_level=0.1)
        knn_rng = np.random.default_rng(13)
        support_data, query_data = (
            generate_task_data(tasks[1], knn_sizes[part], knn_sizes["classes"], image, knn_rng)
            for part in ("support", "query")
        )
        reference = extract_embeddings(model, images, batch_size=batch)

        def run_chunked(program, data: np.ndarray = images) -> np.ndarray:
            return np.concatenate(
                [program.run(data[i : i + batch]) for i in range(0, len(data), batch)]
            )

        accuracy: dict[str, float] = {}
        rows = []
        baseline_seconds = None
        for label, precision, fuse in configs:
            program = compile_features(model, precision=precision, fuse=fuse)
            out = run_chunked(program)
            err = float(np.max(np.abs(out - reference)))
            if precision == "f64" and not np.array_equal(out, reference):
                raise ValueError(
                    f"precision bench: f64 row {label!r} on {name!r} is not "
                    f"bit-identical to extract_embeddings (max err {err})"
                )
            if precision not in accuracy:
                knn = KNNClassifier(metric="cosine").fit(
                    run_chunked(program, support_data.images), support_data.labels
                )
                predicted = knn.predict(run_chunked(program, query_data.images), knn_sizes["k"])
                accuracy[precision] = float(np.mean(predicted == query_data.labels))

            seconds, __ = time_calls(lambda: run_chunked(program), repeats=repeats)
            if baseline_seconds is None:
                baseline_seconds = seconds
            counters = program.counters()
            speedup = float(baseline_seconds / max(seconds, 1e-12))
            rows.append(
                {
                    "label": label,
                    "precision": precision,
                    "fusion": bool(fuse),
                    "seconds": float(seconds),
                    "throughput": float(samples / max(seconds, 1e-12)),
                    "max_abs_err_vs_f64": err,
                    "speedup_vs_f64": speedup,
                    "fusion_steps_eliminated": int(counters["fusion_eliminated"]),
                    "quantized_weights": int(counters["quantized"]),
                }
            )
            if precision == "f32" and fuse:
                best_speedup = max(best_speedup, speedup)

        drops = {tier: max(0.0, accuracy["f64"] - accuracy[tier]) for tier in accuracy}
        del drops["f64"]
        for tier, drop in drops.items():
            if drop > PRECISION_ACCURACY_BUDGETS[tier]:
                raise ValueError(
                    f"precision bench: {tier} KNN accuracy on {name!r} dropped "
                    f"{drop:.3f} vs f64 (budget {PRECISION_ACCURACY_BUDGETS[tier]})"
                )
        backbones.append(
            {
                "name": name,
                "samples": int(samples),
                "batch_size": int(batch),
                "f64_bit_identical": True,
                "knn": {
                    **{key: int(knn_sizes[key]) for key in ("support", "query", "k")},
                    "accuracy": {tier: float(acc) for tier, acc in accuracy.items()},
                    "max_drop": {tier: float(drop) for tier, drop in drops.items()},
                },
                "rows": rows,
            }
        )

    return {
        "budgets": dict(PRECISION_ACCURACY_BUDGETS),
        "backbones": backbones,
        "best_speedup_vs_f64": float(best_speedup),
    }


def run_serve_bench(scale: str = "tiny", repeats: int = 3) -> dict:
    """Naive / batched-autograd / compiled-engine serving comparison.

    Unlike :func:`_entry`, every path here runs under the *same* (default)
    perf flags: the claim is that the compiled engine is bit-identical to
    ``extract_embeddings`` under identical flags, asserted in-process.  The
    entries pin ``precision="f64"`` so that holds whatever
    ``REPRO_SERVE_PRECISION`` says.  ``reference_seconds`` is the naive
    per-sample autograd total over the sample set, ``optimized_seconds``
    the compiled engine's batched total; the ``precision`` section is
    :func:`run_precision_bench`.
    """
    from repro.eval.embeddings import extract_embeddings
    from repro.serve import build_engine

    sizes = _SERVE_SCALES[scale]
    data_rng = np.random.default_rng(7)
    images = data_rng.normal(
        size=(sizes["samples"], 3, sizes["image"], sizes["image"])
    ).astype(np.float32)
    samples, batch = images.shape[0], sizes["batch"]

    entries = []
    for name, model in _serve_models():
        engine = build_engine(model, precision="f64")
        reference = extract_embeddings(model, images, batch_size=batch)

        compiled, counters = _observed(lambda: _embed_chunked(engine, images, batch))
        diff = float(np.max(np.abs(reference - compiled)))
        if diff != 0.0:
            raise ValueError(
                f"serve bench: compiled embeddings for {name!r} diverged from "
                f"extract_embeddings (max_abs_diff={diff})"
            )

        naive_seconds, __ = time_calls(
            lambda: [extract_embeddings(model, image[None], batch_size=1) for image in images],
            repeats=repeats,
        )
        batched_seconds, __ = time_calls(
            lambda: extract_embeddings(model, images, batch_size=batch), repeats=repeats
        )
        compiled_seconds, __ = time_calls(
            lambda: _embed_chunked(engine, images, batch), repeats=repeats
        )
        engine.close()

        entries.append(
            {
                "name": f"serve.{name}",
                "reference_seconds": float(naive_seconds),
                "optimized_seconds": float(compiled_seconds),
                "speedup": float(naive_seconds / max(compiled_seconds, 1e-12)),
                "max_abs_diff": diff,
                "samples": samples,
                "batch_size": batch,
                "batched_autograd_seconds": float(batched_seconds),
                "throughput": {
                    "naive_per_sample": float(samples / max(naive_seconds, 1e-12)),
                    "batched_autograd": float(samples / max(batched_seconds, 1e-12)),
                    "compiled": float(samples / max(compiled_seconds, 1e-12)),
                },
                "counters": counters,
            }
        )
    return _finish_record(
        "serve",
        scale,
        repeats,
        entries,
        precision=run_precision_bench(scale=scale, repeats=repeats),
    )


# -- record assembly -----------------------------------------------------------


def _finish_record(
    kind: str, scale: str, repeats: int, entries: list[dict], **sections
) -> dict:
    speedups = [e["speedup"] for e in entries]
    record = {
        "schema": SCHEMA,
        "kind": kind,
        "scale": scale,
        "repeats": repeats,
        "entries": entries,
        "summary": {
            "min_speedup": float(min(speedups)),
            "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
        },
        **sections,
    }
    validate_bench_record(record)
    return record


# -- record schema -------------------------------------------------------------
#
# A spec is a Rule (a leaf), a ListOf / MapOf (a homogeneous container) or
# a plain dict: a closed object with exactly those keys, where an ``Opt``
# value marks a key that may be absent.  Unknown keys are rejected, so a
# record carrying a removed section cannot validate.


class Rule(NamedTuple):
    """A named leaf check; ``bad`` is a value it rejects (the corruption
    tests write it into every leaf the rule guards)."""

    name: str
    check: Callable[[object], bool]
    bad: object


class Opt(NamedTuple):
    """A dict key that may be absent; when present it must match ``spec``."""

    spec: object


class ListOf(NamedTuple):
    """A list of at least ``min_len`` items, each matching ``item``."""

    item: object
    min_len: int = 1


def _number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


FINITE = Rule("finite number", _number, float("nan"))
FINITE_POS = Rule("finite number > 0", lambda v: _number(v) and v > 0, 0.0)
FINITE_NONNEG = Rule("finite number >= 0", lambda v: _number(v) and v >= 0, -1.0)
UNIT_INTERVAL = Rule("number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1, 1.5)
ZERO = Rule("exactly 0.0", lambda v: _number(v) and v == 0, 1e-9)
INT = Rule("int", _int, 0.5)
NONNEG_INT = Rule("int >= 0", lambda v: _int(v) and v >= 0, -1)
POS_INT = Rule("int >= 1", lambda v: _int(v) and v >= 1, 0)
MULTI_INT = Rule("int >= 2", lambda v: _int(v) and v >= 2, 1)
SEVERITY = Rule("int in 0..5", lambda v: _int(v) and 0 <= v <= 5, 6)
IS_TRUE = Rule("true", lambda v: v is True, False)
BOOL = Rule("bool", lambda v: isinstance(v, bool), "yes")
NAME = Rule("non-empty string", lambda v: isinstance(v, str) and v != "", "")
K_KEY = Rule("decimal k >= 1", lambda v: isinstance(v, str) and v.isdecimal() and int(v) >= 1, "x")


def one_of(*choices: str) -> Rule:
    name = f"one of {'|'.join(choices)}"
    return Rule(name, lambda v: isinstance(v, str) and v in choices, "?")


class MapOf(NamedTuple):
    """A dict of at least ``min_len`` entries, keys passing ``key``."""

    value: object
    key: Rule = NAME
    min_len: int = 1


def _header(kind: str) -> dict:
    scale = one_of(*_SCALES)
    return {"schema": one_of(SCHEMA), "kind": one_of(kind), "scale": scale, "repeats": POS_INT}


_TIERS = ("f64", *PRECISION_ACCURACY_BUDGETS)
_ENTRY = {
    "name": NAME,
    "reference_seconds": FINITE_POS,
    "optimized_seconds": FINITE_POS,
    "speedup": FINITE_POS,
    "max_abs_diff": FINITE_NONNEG,
    # one series of the unified metrics-snapshot schema each
    "counters": MapOf(
        {
            "kind": one_of(*KINDS),
            "calls": NONNEG_INT,
            "seconds": FINITE_NONNEG,
            "bytes": NONNEG_INT,
            "value": Opt(FINITE),  # gauges only
            "buckets": Opt(MapOf(NONNEG_INT, min_len=0)),  # histograms only
        },
        min_len=0,
    ),
}
_SUMMARY = {"min_speedup": FINITE_POS, "geomean_speedup": FINITE_POS}
_STREAM_STEP = {
    "step": NONNEG_INT,
    "corruption": NAME,
    "severity": SEVERITY,
    "accuracy": UNIT_INTERVAL,
    "refit_latency_s": FINITE_NONNEG,
}

#: Record kind -> spec.  :func:`validate_bench_record` walks it; the
#: corruption tests enumerate its leaves.
RECORD_SCHEMAS = {
    "autograd": {**_header("autograd"), "entries": ListOf(_ENTRY), "summary": _SUMMARY},
    "table1": {**_header("table1"), "entries": ListOf(_ENTRY), "summary": _SUMMARY},
    "serve": {
        **_header("serve"),
        "entries": ListOf(
            {
                **_ENTRY,
                "max_abs_diff": ZERO,  # compiled == extract_embeddings, bit for bit
                "samples": POS_INT,
                "batch_size": POS_INT,
                "batched_autograd_seconds": FINITE_POS,
                "throughput": dict.fromkeys(
                    ("naive_per_sample", "batched_autograd", "compiled"), FINITE_POS
                ),
            }
        ),
        "summary": _SUMMARY,
        "precision": {
            "budgets": dict.fromkeys(PRECISION_ACCURACY_BUDGETS, UNIT_INTERVAL),
            "backbones": ListOf(
                {
                    "name": NAME,
                    "samples": POS_INT,
                    "batch_size": POS_INT,
                    "f64_bit_identical": IS_TRUE,
                    "knn": {
                        **dict.fromkeys(("support", "query", "k"), POS_INT),
                        "accuracy": dict.fromkeys(_TIERS, UNIT_INTERVAL),
                        "max_drop": dict.fromkeys(PRECISION_ACCURACY_BUDGETS, FINITE_NONNEG),
                    },
                    "rows": ListOf(
                        {
                            "label": NAME,
                            "precision": one_of(*_TIERS),
                            "fusion": BOOL,
                            **dict.fromkeys(
                                ("seconds", "throughput", "speedup_vs_f64"), FINITE_POS
                            ),
                            "max_abs_err_vs_f64": FINITE_NONNEG,
                            "fusion_steps_eliminated": NONNEG_INT,
                            "quantized_weights": NONNEG_INT,
                        },
                        min_len=4,
                    ),
                }
            ),
            "best_speedup_vs_f64": FINITE_POS,
        },
    },
    "robustness": {
        **_header("robustness"),
        "grid": {
            "backbone": NAME,
            "seeds": ListOf(INT),
            "methods": ListOf(NAME, min_len=2),
            "corruptions": ListOf(NAME),
            "severities": ListOf(SEVERITY, min_len=2),
            "ks": ListOf(POS_INT),
        },
        "cells": ListOf(
            {
                "seed": INT,
                "method": NAME,
                "corruption": NAME,
                "severity": SEVERITY,
                "accuracy_by_k": MapOf(UNIT_INTERVAL, key=K_KEY),
            }
        ),
        "severity0_bit_identical": IS_TRUE,
        "parallel": {
            "jobs": MULTI_INT,
            "host_cpus": POS_INT,
            "serial_seconds": FINITE_POS,
            "parallel_seconds": FINITE_POS,
            "cells_equal": IS_TRUE,
        },
        "resume": {"removed_cells": POS_INT, "restored_cells": POS_INT, "cells_equal": IS_TRUE},
        "slopes": MapOf({"per_corruption": MapOf(FINITE), "mean": FINITE}),
        "headline": {
            "baseline": NAME,
            "meta_methods": ListOf(NAME),
            "corrupted_delta": FINITE,
            "clean_delta": FINITE,
        },
        "stream": {
            "seed": INT,
            "steps": MULTI_INT,
            "k": POS_INT,
            "methods": MapOf(
                {
                    "steps": ListOf(_STREAM_STEP),
                    "mean_accuracy": UNIT_INTERVAL,
                    "mean_refit_latency_s": FINITE_NONNEG,
                }
            ),
        },
        "summary": {"headline_delta": FINITE},
    },
}


def _expect(condition: bool, path: str, rule: str) -> None:
    if not condition:
        raise ValueError(f"invalid bench record: {path or 'record'}: {rule}")


def _walk(spec: object, value: object, path: str) -> None:
    """Check ``value`` against ``spec``; errors name the path, e.g.
    ``entries[0].counters[einsum.forward].calls``."""
    if isinstance(spec, Rule):
        _expect(spec.check(value), path, spec.name)
    elif isinstance(spec, ListOf):
        ok = isinstance(value, list) and len(value) >= spec.min_len
        _expect(ok, path, f"list of >= {spec.min_len}")
        for index, item in enumerate(value):
            _walk(spec.item, item, f"{path}[{index}]")
    elif isinstance(spec, MapOf):
        ok = isinstance(value, dict) and len(value) >= spec.min_len
        _expect(ok, path, f"object of >= {spec.min_len} entries")
        for key, item in value.items():
            _expect(spec.key.check(key), f"{path}[{key}]", f"key must be {spec.key.name}")
            _walk(spec.value, item, f"{path}[{key}]")
    else:  # a closed object
        _expect(isinstance(value, dict), path, "object")
        for key in value:
            _expect(key in spec, f"{path}.{key}" if path else str(key), "unexpected key")
        for key, sub in spec.items():
            here = f"{path}.{key}" if path else key
            if isinstance(sub, Opt):
                if key not in value:
                    continue
                sub = sub.spec
            _expect(key in value, here, "missing")
            _walk(sub, value[key], here)


# Cross-field checks: they run after the walk, so every field has its type.


def _check_grid_coverage(record: dict) -> None:
    """Robustness: cells, slopes, headline and stream match the grid."""
    grid, stream = record["grid"], record["stream"]
    methods, corruptions, severities = grid["methods"], grid["corruptions"], grid["severities"]
    _expect(0 in severities, "grid.severities", "must include 0 (the clean pin)")
    _expect(len(set(severities)) == len(severities), "grid.severities", "must be distinct")
    wanted = set(itertools.product(grid["seeds"], methods, corruptions, severities))
    seen = set()
    for index, cell in enumerate(record["cells"]):
        key = (cell["seed"], cell["method"], cell["corruption"], cell["severity"])
        _expect(key in wanted, f"cells[{index}]", f"{key} is outside the declared grid")
        _expect(key not in seen, f"cells[{index}]", f"duplicate cell {key}")
        seen.add(key)
        ks = {int(k) for k in cell["accuracy_by_k"]}
        _expect(ks == set(grid["ks"]), f"cells[{index}].accuracy_by_k", "must cover grid.ks")
    _expect(seen == wanted, "cells", f"must cover the grid ({len(seen)}/{len(wanted)})")
    _expect(set(record["slopes"]) == set(methods), "slopes", "one entry per grid method")
    for method, entry in record["slopes"].items():
        covered = set(entry["per_corruption"]) == set(corruptions)
        _expect(covered, f"slopes[{method}].per_corruption", "one entry per grid corruption")
    headline = record["headline"]
    _expect(headline["baseline"] in methods, "headline.baseline", "must be a grid method")
    meta = set(headline["meta_methods"]) <= set(methods)
    _expect(meta, "headline.meta_methods", "must be grid methods")
    for method, entry in stream["methods"].items():
        steps = len(entry["steps"]) == stream["steps"]
        _expect(steps, f"stream.methods[{method}].steps", "must list every stream step")


def _check_headline_delta(record: dict) -> None:
    same = record["summary"]["headline_delta"] == record["headline"]["corrupted_delta"]
    _expect(same, "summary.headline_delta", "must equal headline.corrupted_delta")


def _check_precision(record: dict) -> None:
    """Serve: KNN drops within budget, every tier has a row, and f64 rows
    are bit-exact (err == 0)."""
    budgets = record["precision"]["budgets"]
    for index, backbone in enumerate(record["precision"]["backbones"]):
        path = f"precision.backbones[{index}]"
        for tier, drop in backbone["knn"]["max_drop"].items():
            _expect(drop <= budgets[tier], f"{path}.knn.max_drop.{tier}", "KNN drop over budget")
        rows = backbone["rows"]
        tiers = {row["precision"] for row in rows} == set(_TIERS)
        _expect(tiers, f"{path}.rows", "must cover every tier")
        for position, row in enumerate(rows):
            exact = row["precision"] != "f64" or row["max_abs_err_vs_f64"] == 0.0
            _expect(exact, f"{path}.rows[{position}].max_abs_err_vs_f64", "f64 rows bit-exact")


_CROSS_CHECKS = {
    "serve": (_check_precision,),
    "robustness": (_check_grid_coverage, _check_headline_delta),
}


def validate_bench_record(record: dict) -> None:
    """Raise ``ValueError("invalid bench record: <path>: <rule>")`` unless
    ``record`` matches its kind's spec in :data:`RECORD_SCHEMAS` and
    passes the kind's cross-field checks."""
    _expect(isinstance(record, dict), "", "object")
    kind = record.get("kind")
    known = isinstance(kind, str) and kind in RECORD_SCHEMAS
    _expect(known, "kind", f"one of {'|'.join(RECORD_SCHEMAS)}")
    _walk(RECORD_SCHEMAS[kind], record, "")
    for check in _CROSS_CHECKS.get(kind, ()):
        check(record)


#: Suite name -> bench runner, in emission order.
_BENCH_SUITES = {
    "autograd": run_autograd_bench,
    "table1": run_table1_bench,
    "serve": run_serve_bench,
    "robustness": run_robustness_bench,
}

#: Suites the no-``--suite`` default runs (robustness runs a whole grid,
#: so it is opt-in).
_DEFAULT_SUITES = ("autograd", "table1", "serve")


def run_bench_suites(
    suites: tuple[str, ...] | None = None,
    scale: str = "tiny",
    repeats: int = 3,
    jobs: int = 1,
) -> Iterator[dict]:
    """Run the selected suites (default :data:`_DEFAULT_SUITES`) in order,
    yielding each validated record.  ``jobs`` sizes the robustness grid's
    parallel pin (at least 2)."""
    suites = _DEFAULT_SUITES if suites is None else tuple(suites)
    unknown = [kind for kind in suites if kind not in _BENCH_SUITES]
    if unknown:
        raise ValueError(f"unknown bench suite(s): {unknown}; known: {sorted(_BENCH_SUITES)}")
    for kind in suites:
        kwargs = {"jobs": max(jobs, 2)} if kind == "robustness" else {}
        yield _BENCH_SUITES[kind](scale=scale, repeats=repeats, **kwargs)


def write_bench_record(out_dir: str, record: dict) -> str:
    """Write ``record`` as ``<out_dir>/BENCH_<kind>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{record['kind']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_bench_records(
    out_dir: str = ".",
    scale: str = "tiny",
    repeats: int = 3,
    jobs: int = 1,
    suites: tuple[str, ...] | None = None,
) -> list[str]:
    """Run the selected suites and write one ``BENCH_<kind>.json`` each."""
    return [
        write_bench_record(out_dir, record)
        for record in run_bench_suites(suites, scale, repeats, jobs)
    ]


def _format_robustness_record(record: dict) -> str:
    """Human-readable table for the ``robustness`` record."""
    grid = record["grid"]
    headline = record["headline"]
    lines = [
        f"robustness bench  (scale={record['scale']}, backbone={grid['backbone']}, "
        f"{len(grid['seeds'])} seed(s))",
        f"grid: {len(grid['methods'])} methods x {len(grid['corruptions'])} "
        f"corruptions x {len(grid['severities'])} severities "
        f"= {len(record['cells'])} cells",
        f"headline: MetaLoRA vs {headline['baseline']} under corruption: "
        f"{headline['corrupted_delta']:+.4f} accuracy "
        f"(clean: {headline['clean_delta']:+.4f})",
        f"{'method':<14} {'mean slope':>11}  per-corruption slope (acc/severity)",
    ]
    for method in grid["methods"]:
        entry = record["slopes"][method]
        worst = min(entry["per_corruption"], key=entry["per_corruption"].get)
        lines.append(
            f"{method:<14} {entry['mean']:>+10.4f}   worst {worst} "
            f"({entry['per_corruption'][worst]:+.4f})"
        )
    parallel = record["parallel"]
    lines.append(
        f"grid runs: serial {parallel['serial_seconds']:.2f}s   "
        f"parallel({parallel['jobs']}) {parallel['parallel_seconds']:.2f}s   "
        f"(cells bit-identical: {parallel['cells_equal']}; severity-0 == "
        f"clean Table I: {record['severity0_bit_identical']})"
    )
    resume = record["resume"]
    lines.append(
        f"resume: {resume['removed_cells']} cell(s) recomputed, "
        f"{resume['restored_cells']} restored  "
        f"(bit-identical: {resume['cells_equal']})"
    )
    stream = record["stream"]
    lines.append(f"streaming drift ({stream['steps']} steps, K={stream['k']}):")
    for method, entry in stream["methods"].items():
        lines.append(
            f"  {method:<14} mean accuracy {entry['mean_accuracy']:.3f}   "
            f"mean re-fit {entry['mean_refit_latency_s'] * 1e3:.1f}ms"
        )
    return "\n".join(lines)


def format_bench_record(record: dict) -> str:
    """Human-readable table for one record (what the CLI prints)."""
    if record["kind"] == "robustness":
        return _format_robustness_record(record)
    summary = record["summary"]
    lines = [
        f"{record['kind']} bench  (scale={record['scale']}, best of {record['repeats']})",
        f"{'case':<28} {'reference':>11} {'optimized':>11} {'speedup':>9}  {'max|diff|':>10}",
        *(
            f"{e['name']:<28} {e['reference_seconds'] * 1e3:>9.2f}ms "
            f"{e['optimized_seconds'] * 1e3:>9.2f}ms "
            f"{e['speedup']:>8.2f}x  {e['max_abs_diff']:>10.2e}"
            for e in record["entries"]
        ),
        f"{'summary':<28} min {summary['min_speedup']:.2f}x   "
        f"geomean {summary['geomean_speedup']:.2f}x",
    ]
    if record["kind"] != "serve":
        return "\n".join(lines)
    lines += [
        f"{e['name']:<28} throughput (samples/s): "
        f"naive {e['throughput']['naive_per_sample']:.1f}   "
        f"batched {e['throughput']['batched_autograd']:.1f}   "
        f"compiled {e['throughput']['compiled']:.1f}"
        for e in record["entries"]
    ]
    precision = record["precision"]
    budgets = ", ".join(f"{tier}<={budget}" for tier, budget in precision["budgets"].items())
    lines.append(f"precision matrix (budgets {budgets}):")
    for backbone in precision["backbones"]:
        knn = backbone["knn"]["accuracy"]
        accuracy = "  ".join(f"{tier} {knn[tier]:.3f}" for tier in _TIERS)
        lines.append(
            f"  {backbone['name']}: knn accuracy {accuracy}  "
            f"(f64 bit-identical: {backbone['f64_bit_identical']})"
        )
        lines += [
            f"    {row['label']:<16} {row['seconds'] * 1e3:>8.2f}ms  "
            f"{row['throughput']:>7.1f}/s  x{row['speedup_vs_f64']:<5.2f} "
            f"err {row['max_abs_err_vs_f64']:.1e}"
            for row in backbone["rows"]
        ]
    lines.append(
        f"  best f32+fusion speedup vs f64 record: {precision['best_speedup_vs_f64']:.2f}x"
    )
    return "\n".join(lines)
