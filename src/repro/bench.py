"""The ``repro bench`` performance harness.

Times the optimized hot paths against the reference implementation —
in the same process, flipped via :func:`repro.perf.perf_overrides` — and
writes one JSON record per suite:

- ``BENCH_autograd.json`` — micro-benchmarks of the einsum plan cache /
  contraction planner and the conv2d patch cache, with per-case speedup
  and the max |optimized - reference| output gap;
- ``BENCH_table1.json`` — the Table I protocol micro-bench: one episodic
  training step (forward + backward) of a MetaLoRA model at reduced
  scale, reference vs. optimized;
- ``BENCH_serve.json`` — the serving bench: embedding throughput and
  per-request latency of the compiled ``repro.serve`` engine against the
  naive per-sample and batched autograd paths, with the compiled-vs-
  reference bit-exactness check asserted in-process (``max_abs_diff``
  is exactly ``0.0`` or the bench raises);
- ``BENCH_load.json`` (opt-in, ``--suite load``) — the end-to-end load
  bench: an open-loop Poisson generator drives the asyncio TCP
  ``ServingFrontend`` over real sockets at >= 3 offered-load levels
  bracketing measured capacity, recording throughput vs offered load,
  p50/p99/p999 latency, rejected / deadline-missed counts and the
  queue-depth and batch-size distributions; the first dispatched
  batches are replayed through ``MultiTenantEngine.serve`` directly and
  asserted bit-identical (``bit_identical`` is ``true`` or the bench
  raises).

Record schema (``validate_bench_record`` enforces it; the bench smoke
test round-trips it)::

    {
      "schema": "repro.bench/v1",
      "kind": "autograd" | "table1" | "serve",   # "load" has its own shape
      "scale": "tiny" | "small",
      "repeats": int,
      "entries": [
        {
          "name": str,
          "reference_seconds": float,   # best-of-``repeats`` wall time
          "optimized_seconds": float,
          "speedup": float,             # reference / optimized
          "max_abs_diff": float,        # output gap between the paths
          "counters": {str: {"kind": str, "calls": int,
                             "seconds": float, "bytes": int, ...}},
        }, ...
      ],
      "summary": {"min_speedup": float, "geomean_speedup": float},
    }

``counters`` holds the :data:`repro.obs.OBS` snapshot of the optimized
run (cache hit/miss counts, op calls, bytes) in the unified
metrics-snapshot schema — the same shape ``MultiTenantEngine.stats()``
returns, with histograms carrying ``buckets`` and gauges ``value``.

The ``table1`` record optionally carries a ``parallel`` section (when the
bench ran with ``--jobs N``, N >= 2) — the grid-runtime comparison from
:func:`run_table1_parallel_bench`::

    "parallel": {
      "jobs": int, "host_cpus": int, "seeds": [int], "cells": int,
      "per_cell_serial_seconds": float,   # naive sharding: context per cell
      "seed_loop_serial_seconds": float,  # pre-runtime serial loop
      "parallel_seconds": float,          # run_table1_grid at `jobs`
      "speedup": float,                   # per_cell_serial / parallel
      "speedup_vs_seed_loop": float,
      "rows_equal": true,                 # bit-identity asserted in-process
    }

``serve`` entries reinterpret the shared fields — ``reference_seconds``
is the naive per-sample autograd total over the sample set,
``optimized_seconds`` the compiled engine's batched total over the same
samples (both timed under the *same* default flags, since the exactness
contract is compiled-vs-reference, not optimized-vs-reference) — and add
``samples``, ``batch_size``, ``batched_autograd_seconds``, ``throughput``
(samples/sec: ``naive_per_sample`` / ``batched_autograd`` / ``compiled``)
and ``latency_ms`` (per-request ``naive_p50/p99`` and ``compiled_p50/p99``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

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


def _measure(
    fn: Callable[[], np.ndarray], repeats: int
) -> tuple[dict[str, float], np.ndarray, dict]:
    """Time ``fn`` under reference then optimized flags.

    Returns the timing/diff record fields, the reference output (for
    callers that chain checks), and the optimized run's metrics snapshot
    (unified schema, from :data:`repro.obs.OBS`).
    """
    with reference_mode():
        _clear_caches()
        ref_seconds, ref_out = time_calls(fn, repeats=repeats)
    _clear_caches()
    OBS.reset()
    OBS.enable()
    try:
        opt_seconds, opt_out = time_calls(fn, repeats=repeats)
    finally:
        OBS.disable()
    counters = OBS.snapshot()
    diff = float(np.max(np.abs(np.asarray(ref_out) - np.asarray(opt_out))))
    fields = {
        "reference_seconds": float(ref_seconds),
        "optimized_seconds": float(opt_seconds),
        "speedup": float(ref_seconds / max(opt_seconds, 1e-12)),
        "max_abs_diff": diff,
    }
    return fields, ref_out, counters


def _entry(name: str, fn: Callable[[], np.ndarray], repeats: int) -> dict:
    fields, __, counters = _measure(fn, repeats)
    return {"name": name, **fields, "counters": counters}


# -- autograd micro-benches ----------------------------------------------------


def _tr_linear_case(sizes: dict) -> Callable[[], np.ndarray]:
    """The MetaLoRA-TR linear contraction, forward + backward."""
    rng = np.random.default_rng(0)
    n, t, r, o = sizes["batch"], sizes["tokens"], sizes["rank"], sizes["features"]
    t1 = rng.standard_normal((n, t, r, r))
    core_b = rng.standard_normal((r, o, r))
    seed = rng.standard_normal((n, r, r))

    def fn() -> np.ndarray:
        a = Tensor(t1, requires_grad=True)
        b = Tensor(core_b, requires_grad=True)
        c = Tensor(seed, requires_grad=True)
        out = ops.einsum("ntpr,roq,nqp->nto", a, b, c)
        out.sum().backward()
        return np.concatenate([out.data.ravel(), b.grad.ravel()])

    return fn


def _cp_conv_case(sizes: dict) -> Callable[[], np.ndarray]:
    """The MetaLoRA-CP conv mixing contraction, forward + backward."""
    rng = np.random.default_rng(1)
    n, r, o, hw = sizes["batch"], sizes["rank"], sizes["features"], sizes["image"]
    mid = rng.standard_normal((n, r, hw, hw))
    seed = rng.standard_normal((n, r))
    factor_b = rng.standard_normal((r, o))

    def fn() -> np.ndarray:
        m = Tensor(mid, requires_grad=True)
        s = Tensor(seed, requires_grad=True)
        b = Tensor(factor_b, requires_grad=True)
        out = ops.einsum("nrhw,nr,ro->nohw", m, s, b)
        out.sum().backward()
        return np.concatenate([out.data.ravel(), s.grad.ravel()])

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
    entries = [
        _entry("einsum.tr_linear_fwd_bwd", _tr_linear_case(sizes), repeats),
        _entry("einsum.cp_conv_fwd_bwd", _cp_conv_case(sizes), repeats),
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


def run_table1_bench(scale: str = "tiny", repeats: int = 3, jobs: int = 1) -> dict:
    """Reference-vs-optimized timing of the Table I protocol training step.

    With ``jobs > 1`` the record also gains a ``parallel`` section from
    :func:`run_table1_parallel_bench` — the grid-runtime wall-clock
    comparison, with the serial/parallel equality check asserted
    in-process.
    """
    sizes = _SCALES[scale]
    entries = [_entry("table1.meta_tr_train_step", _meta_step_case(sizes), repeats)]
    record = _finish_record("table1", scale, repeats, entries)
    if jobs > 1:
        record["parallel"] = run_table1_parallel_bench(scale=scale, jobs=jobs)
        validate_bench_record(record)
    return record


# -- Table I grid parallel bench ----------------------------------------------

#: seeds for the parallel grid bench per scale (methods come from the config).
_PARALLEL_SEEDS = {"tiny": (0, 1), "small": (0, 1, 2)}


def _parallel_bench_config():
    """The seeded Table I grid the parallel bench runs: the quick protocol
    config with the *full* protocol's pretraining workload (samples and
    epochs), so the per-seed context cost the runtime shares across cells
    is represented at its real proportion."""
    from dataclasses import replace as dc_replace

    from repro.eval.protocol import Table1Config

    full = Table1Config()
    return dc_replace(
        full.quick(),
        pretrain_samples=full.pretrain_samples,
        pretrain_epochs=full.pretrain_epochs,
    )


def _rows_equal(a: dict, b: dict) -> bool:
    """Exact (bit-level) equality of two method->Table1Row mappings."""
    if set(a) != set(b):
        return False
    return all(a[m].accuracy_by_k == b[m].accuracy_by_k for m in a)


def run_table1_parallel_bench(
    scale: str = "tiny",
    jobs: int = 4,
    seeds: tuple[int, ...] | None = None,
    config=None,
) -> dict:
    """Serial-vs-parallel wall-clock of the Table I ``(method, seed)`` grid.

    Three executions of the *same* grid, all required to produce
    bit-identical rows (asserted in-process; the record only exists if the
    check passed):

    - ``per_cell_serial_seconds`` — every cell run independently, one at a
      time, each rebuilding its seed context (what naive cell sharding
      would do: pretraining redone per cell);
    - ``seed_loop_serial_seconds`` — the pre-runtime serial baseline,
      ``[run_table1(config, seed) for seed in seeds]`` (context shared
      within a seed, one process);
    - ``parallel_seconds`` — :func:`repro.runtime.run_table1_grid` at
      ``jobs`` workers: contexts prepared once per seed in the pool, cells
      sharded across workers with the autograd memory diet enabled.

    ``speedup`` is ``per_cell_serial / parallel`` — what the runtime saves
    over naive sharding.  ``speedup_vs_seed_loop`` is
    ``seed_loop_serial / parallel``; on a single-CPU host (see
    ``host_cpus``) it hovers near 1 and the win comes from context
    sharing, while on a multicore host both multiply with the pool.
    Timings are single-pass (the grid is too large for best-of-repeats).
    """
    from repro.eval.protocol import (
        prepare_table1_seed,
        run_table1,
        run_table1_cell,
    )
    from repro.runtime import run_table1_grid

    if config is None:
        config = _parallel_bench_config()
    if seeds is None:
        seeds = _PARALLEL_SEEDS.get(scale, _PARALLEL_SEEDS["tiny"])

    start = time.perf_counter()
    per_cell_rows = []
    for seed in seeds:
        rows = {}
        for method in config.methods:
            context = prepare_table1_seed(config, seed)  # rebuilt per cell
            rows[method] = run_table1_cell(config, context, method)
        per_cell_rows.append(rows)
    per_cell_seconds = time.perf_counter() - start

    start = time.perf_counter()
    seed_loop_rows = [run_table1(config, seed) for seed in seeds]
    seed_loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    grid = run_table1_grid(config, seeds, jobs=jobs)
    parallel_seconds = time.perf_counter() - start

    for serial, pooled in zip(per_cell_rows, grid.rows_by_seed):
        if not _rows_equal(serial, pooled):
            raise ValueError(
                "parallel Table I rows diverged from the per-cell serial rows"
            )
    for serial, pooled in zip(seed_loop_rows, grid.rows_by_seed):
        if not _rows_equal(serial, pooled):
            raise ValueError(
                "parallel Table I rows diverged from the seed-loop serial rows"
            )

    return {
        "jobs": int(jobs),
        "host_cpus": int(os.cpu_count() or 1),
        "seeds": [int(s) for s in seeds],
        "cells": len(seeds) * len(config.methods),
        "per_cell_serial_seconds": float(per_cell_seconds),
        "seed_loop_serial_seconds": float(seed_loop_seconds),
        "parallel_seconds": float(parallel_seconds),
        "speedup": float(per_cell_seconds / max(parallel_seconds, 1e-12)),
        "speedup_vs_seed_loop": float(
            seed_loop_seconds / max(parallel_seconds, 1e-12)
        ),
        "rows_equal": True,
    }


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
        stream_methods = tuple(
            m for m in config.stream_methods if m in methods
        ) or (methods[0],)
        overrides["stream_methods"] = stream_methods
    if corruptions is not None:
        overrides["corruptions"] = tuple(corruptions)
    if severities is not None:
        overrides["severities"] = tuple(severities)
    return dc_replace(config, **overrides) if overrides else config


def _cells_equal(a: dict, b: dict) -> bool:
    """Exact (bit-level) equality of two key->RobustnessCell mappings."""
    if set(a) != set(b):
        return False
    return all(a[key].accuracy_by_k == b[key].accuracy_by_k for key in a)


def run_robustness_bench(
    scale: str = "tiny",
    repeats: int = 1,
    jobs: int = 2,
    seeds: tuple[int, ...] | None = None,
    methods: tuple[str, ...] | None = None,
    corruptions: tuple[str, ...] | None = None,
    severities: tuple[int, ...] | None = None,
) -> dict:
    """The robustness-under-shift benchmark matrix (``BENCH_robustness.json``).

    Runs the ``seeds × methods × corruptions × severities`` grid
    (:func:`repro.runtime.run_robustness_grid`) and asserts its three
    bit-identity pins **in-process** — the record only exists if every
    check passed:

    - **severity-0** cells equal the clean Table I evaluation
      (``run_table1``) exactly;
    - the **parallel** grid (``jobs`` workers) equals the serial one;
    - a **resumed** grid (two checkpoints deleted, then ``resume=``)
      equals the serial one.

    On top of the per-cell accuracies the record carries per-method
    degradation slopes (accuracy lost per severity rung, least squares),
    the MetaLoRA-vs-static-LoRA delta on corrupted cells (the headline
    number), and the streaming-drift section
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
    if seeds is None:
        seeds = _ROBUSTNESS_SEEDS.get(scale, _ROBUSTNESS_SEEDS["tiny"])
    seeds = tuple(int(s) for s in seeds)
    if 0 not in config.severities:
        raise ConfigError("the robustness bench needs severity 0 (the clean pin)")

    # Serial grid, checkpointing into a scratch run dir (reused by the
    # resume pin below).  Timing includes checkpoint writes.
    scratch = tempfile.mkdtemp(prefix="robustness_bench_")
    try:
        start = time.perf_counter()
        serial = run_robustness_grid(config, seeds, jobs=1, out_dir=scratch)
        serial_seconds = time.perf_counter() - start

        # Pin 1: severity-0 cells == the clean Table I evaluation.
        for seed in seeds:
            clean = run_table1(table1, seed)
            for method in table1.methods:
                for corruption in config.corruptions:
                    cell = serial.cells[(seed, method, corruption, 0)]
                    if cell.accuracy_by_k != clean[method].accuracy_by_k:
                        raise ValueError(
                            f"severity-0 cell {(seed, method, corruption)} "
                            f"diverged from the clean Table I evaluation"
                        )

        # Pin 2: parallel == serial.
        start = time.perf_counter()
        parallel = run_robustness_grid(config, seeds, jobs=jobs)
        parallel_seconds = time.perf_counter() - start
        if not _cells_equal(serial.cells, parallel.cells):
            raise ValueError("parallel robustness cells diverged from serial")

        # Pin 3: resumed == serial.  Drop two checkpoints (first and last
        # in filename order, typically different (seed, method) groups so
        # the resume also rebuilds contexts) and resume the run dir.
        cells_dir = os.path.join(scratch, "cells")
        files = sorted(
            name for name in os.listdir(cells_dir) if name.endswith(".npz")
        )
        removed = [files[0], files[-1]]
        for name in removed:
            os.unlink(os.path.join(cells_dir, name))
        resumed = run_robustness_grid(config, seeds, jobs=1, resume=scratch)
        if not _cells_equal(serial.cells, resumed.cells):
            raise ValueError("resumed robustness cells diverged from serial")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Mean accuracy over seeds and ks per (method, corruption, severity).
    def mean_accuracy(method: str, corruption: str, severity: int) -> float:
        values = []
        for seed in seeds:
            cell = serial.cells[(seed, method, corruption, severity)]
            values.extend(cell.accuracy_by_k[k] for k in table1.ks)
        return float(np.mean(values))

    severities_sorted = sorted(config.severities)
    slopes: dict[str, dict] = {}
    for method in table1.methods:
        per_corruption = {}
        for corruption in config.corruptions:
            per_corruption[corruption] = degradation_slope(
                severities_sorted,
                [mean_accuracy(method, corruption, s) for s in severities_sorted],
            )
        slopes[method] = {
            "per_corruption": per_corruption,
            "mean": float(np.mean(list(per_corruption.values()))),
        }

    # Headline: MetaLoRA-vs-static-LoRA accuracy delta, on corrupted cells.
    baseline = "lora"
    meta_methods = [
        m for m in table1.methods if m in ("meta_lora_cp", "meta_lora_tr")
    ]
    if baseline not in table1.methods or not meta_methods:
        raise ConfigError(
            "the robustness bench needs 'lora' plus a meta method "
            "for the headline delta"
        )

    def delta_at(severity_filter) -> float:
        deltas = []
        for corruption in config.corruptions:
            for severity in config.severities:
                if not severity_filter(severity):
                    continue
                meta = np.mean(
                    [mean_accuracy(m, corruption, severity) for m in meta_methods]
                )
                deltas.append(meta - mean_accuracy(baseline, corruption, severity))
        return float(np.mean(deltas))

    headline = {
        "baseline": baseline,
        "meta_methods": meta_methods,
        "corrupted_delta": delta_at(lambda s: s > 0),
        "clean_delta": delta_at(lambda s: s == 0),
    }

    stream = run_robustness_stream(config, seeds[0])

    cells = [
        {
            "seed": int(seed),
            "method": method,
            "corruption": corruption,
            "severity": int(severity),
            "accuracy_by_k": {
                str(k): float(v) for k, v in cell.accuracy_by_k.items()
            },
        }
        for (seed, method, corruption, severity), cell in sorted(
            serial.cells.items()
        )
    ]

    record = {
        "schema": SCHEMA,
        "kind": "robustness",
        "scale": scale,
        "repeats": int(repeats),
        "grid": {
            "backbone": table1.backbone,
            "seeds": [int(s) for s in seeds],
            "methods": list(table1.methods),
            "corruptions": list(config.corruptions),
            "severities": [int(s) for s in config.severities],
            "ks": [int(k) for k in table1.ks],
        },
        "cells": cells,
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
        "stream": stream,
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

#: request-mix sizes for the multi-tenant serve bench per scale.
_MULTI_TENANT_SCALES = {
    "tiny": {"rounds": 4, "per_tenant": 1},
    "small": {"rounds": 8, "per_tenant": 2},
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
            param.data[...] = (
                param_rng.normal(size=param.data.shape) * 0.2
            ).astype(param.data.dtype)
    models.append(("resnet+meta_tr", meta))
    return models


def _time_per_sample(fn: Callable[[int], object], count: int, repeats: int) -> tuple[float, list[float]]:
    """Best-of-``repeats`` total seconds for ``count`` single-sample calls,
    plus the per-call latencies of the best pass."""
    best_total, best_latencies = float("inf"), [0.0]
    for __ in range(repeats):
        latencies = []
        for index in range(count):
            start = time.perf_counter()
            fn(index)
            latencies.append(time.perf_counter() - start)
        total = sum(latencies)
        if total < best_total:
            best_total, best_latencies = total, latencies
    return best_total, best_latencies


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
    """Rebuild one load-bench tenant *architecture* in a shard process.

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
    """Bulk embeddings through the typed API.

    Chunk boundaries match ``extract_embeddings``, so rows stay
    bit-identical to the reference path.
    """
    from repro.serve import ServeRequest

    requests = [
        ServeRequest(sample=images[start : start + batch_size])
        for start in range(0, images.shape[0], batch_size)
    ]
    return np.concatenate(
        [result.require() for result in engine.serve(requests)], axis=0
    )


def run_multi_tenant_bench(
    scale: str = "tiny", repeats: int = 3, tenants: int = 4, swaps: int = 1
) -> dict:
    """Cross-tenant stacking vs per-tenant serial dispatch, plus churn.

    Serves ``rounds`` rounds of a heterogeneous request mix (every tenant
    contributes ``per_tenant`` samples per round) two ways through the
    *same* :class:`~repro.serve.registry.MultiTenantEngine`:

    - **serial**: one ``dispatch()`` call per request — no cross-tenant
      batching, the per-tenant-deployment baseline;
    - **grouped**: one ``dispatch()`` call per round — seed-slot tenants
      sharing extractor/body programs get stacked into shared runs.

    Both paths are asserted bit-identical to per-tenant single-engine
    references in-process, so a record with ``bit_identical: false``
    cannot be produced.  ``swaps`` hot-swaps are applied afterwards and
    asserted to change the swapped tenant's output.
    """
    from repro.serve import MultiTenantEngine, ServeRequest, build_engine

    def serve_pairs(engine: MultiTenantEngine, pairs: list) -> list[np.ndarray]:
        requests = [ServeRequest(sample=sample, adapter=name) for name, sample in pairs]
        return [result.require() for result in engine.serve(requests)]

    if tenants < 3:
        raise ValueError(
            f"multi-tenant bench needs >= 3 tenants "
            f"(>= 2 seed-slot tenants to stack), got {tenants}"
        )
    sizes = _SERVE_SCALES[scale]
    mix = _MULTI_TENANT_SCALES[scale]
    rounds, per_tenant = mix["rounds"], mix["per_tenant"]
    static, metas = _multi_tenant_models(tenants)
    names = ["static"] + [f"meta_{index}" for index in range(len(metas))]
    sources = dict(zip(names, [static, *metas]))

    data_rng = np.random.default_rng(8)
    images = {
        name: data_rng.normal(
            size=(rounds * per_tenant, 3, sizes["image"], sizes["image"])
        ).astype(np.float32)
        for name in names
    }

    # Per-tenant single-engine references (also merges the static LoRA).
    # Two chunkings, because the meta mapping net is *not* batch-composition
    # invariant (that's why grouped dispatch runs it per-tenant): the serial
    # path serves one row at a time, the grouped path ``per_tenant`` rows.
    reference_serial, reference_grouped = {}, {}
    for name in names:
        with build_engine(sources[name]) as single:
            reference_serial[name] = _embed_chunked(single, images[name], 1)
            reference_grouped[name] = _embed_chunked(single, images[name], per_tenant)

    engine = MultiTenantEngine()
    try:
        for name in names:
            engine.register(name, sources[name])
        meta_entries = [engine.registry.get(name) for name in names[1:]]
        if any(entry.body is not meta_entries[0].body for entry in meta_entries):
            raise ValueError(
                "multi-tenant bench: seed-slot tenants failed to share a body "
                "program; cross-tenant stacking would be meaningless"
            )

        round_batches = [
            [
                (name, images[name][round_index * per_tenant + offset])
                for name in names
                for offset in range(per_tenant)
            ]
            for round_index in range(rounds)
        ]
        requests = sum(len(batch) for batch in round_batches)

        def check_rows(
            rows_by_round: list[list[np.ndarray]],
            reference: dict[str, np.ndarray],
            label: str,
        ) -> None:
            for round_index, rows in enumerate(rows_by_round):
                for position, ((name, __), row) in enumerate(
                    zip(round_batches[round_index], rows)
                ):
                    offset = position % per_tenant
                    expected = reference[name][round_index * per_tenant + offset]
                    if not np.array_equal(row, expected):
                        raise ValueError(
                            f"multi-tenant bench: {label} row for tenant "
                            f"{name!r} diverged from its single-tenant engine"
                        )

        def serve_serial() -> list[list[np.ndarray]]:
            return [
                [serve_pairs(engine, [pair])[0] for pair in batch]
                for batch in round_batches
            ]

        def serve_grouped() -> list[list[np.ndarray]]:
            return [serve_pairs(engine, batch) for batch in round_batches]

        check_rows(serve_serial(), reference_serial, "serial")
        check_rows(serve_grouped(), reference_grouped, "grouped")

        serial_seconds, __ = time_calls(serve_serial, repeats=repeats)
        grouped_seconds, __ = time_calls(serve_grouped, repeats=repeats)

        # Seed-slot tenants only: the stacking claim in isolation.
        seed_batches = [
            [pair for pair in batch if pair[0] != "static"]
            for batch in round_batches
        ]
        seed_serial_seconds, __ = time_calls(
            lambda: [
                [serve_pairs(engine, [pair]) for pair in batch]
                for batch in seed_batches
            ],
            repeats=repeats,
        )
        seed_grouped_seconds, __ = time_calls(
            lambda: [serve_pairs(engine, batch) for batch in seed_batches],
            repeats=repeats,
        )

        # Churn: hot-swap the last seed-slot tenant with freshly perturbed
        # mapping weights; the swapped tenant must serve new rows.
        swapped = names[-1]
        probe = images[swapped][0]
        before = serve_pairs(engine, [(swapped, probe)])[0]
        for swap_index in range(swaps):
            __, fresh_metas = _multi_tenant_models(tenants)
            donor = fresh_metas[-1]
            churn_rng = np.random.default_rng(100 + swap_index)
            donor.trunk.weight.data[...] += (
                churn_rng.normal(size=donor.trunk.weight.data.shape) * 0.05
            )
            engine.swap(swapped, donor)
        if swaps:
            after = serve_pairs(engine, [(swapped, probe)])[0]
            if np.array_equal(before, after):
                raise ValueError(
                    f"multi-tenant bench: hot-swapping {swapped!r} did not "
                    f"change its served output"
                )

        cache_stats = engine.registry.stats()

        def cache_calls(name: str) -> int:
            return int(cache_stats.get(name, {}).get("calls", 0))

        hit = cache_calls("serve.program_cache.hit")
        miss = cache_calls("serve.program_cache.miss")
        evict = cache_calls("serve.program_cache.evict")
    finally:
        engine.close()

    return {
        "tenants": tenants,
        "seed_slot_tenants": len(metas),
        "static_tenants": 1,
        "rounds": rounds,
        "per_tenant": per_tenant,
        "requests": requests,
        "swaps": swaps,
        "serial_seconds": float(serial_seconds),
        "grouped_seconds": float(grouped_seconds),
        "speedup": float(serial_seconds / max(grouped_seconds, 1e-12)),
        "seed_slot": {
            "serial_seconds": float(seed_serial_seconds),
            "grouped_seconds": float(seed_grouped_seconds),
            "speedup": float(seed_serial_seconds / max(seed_grouped_seconds, 1e-12)),
        },
        "throughput": {
            "serial": float(requests / max(serial_seconds, 1e-12)),
            "grouped": float(requests / max(grouped_seconds, 1e-12)),
        },
        "program_cache": {
            "hit": hit,
            "miss": miss,
            "evict": evict,
            "hit_rate": float(hit / max(hit + miss, 1)),
        },
        "bit_identical": True,
    }


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
    "tiny": {
        "resnet": {"image": 32, "batch": 64, "samples": 64},
        "mixer": {"image": 16, "batch": 64, "samples": 64},
    },
    "small": {
        "resnet": {"image": 32, "batch": 64, "samples": 128},
        "mixer": {"image": 16, "batch": 64, "samples": 128},
    },
}


def _knn_accuracy(
    support: np.ndarray,
    support_labels: np.ndarray,
    query: np.ndarray,
    query_labels: np.ndarray,
    k: int,
) -> float:
    from repro.eval.knn import KNNClassifier

    knn = KNNClassifier(metric="cosine").fit(support, support_labels)
    return float(np.mean(knn.predict(query, k) == query_labels))


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
    from repro.models import mixer_small, resnet_small
    from repro.serve import compile_features
    from repro.utils.rng import new_rng

    knn_sizes = _PRECISION_KNN_SCALES[scale]
    workloads = _PRECISION_WORKLOADS[scale]

    #: (label, precision, fuse)
    configs = [
        ("f64", "f64", False),
        ("f64+fuse", "f64", True),
        ("f32+fuse", "f32", True),
        ("int8+fuse", "int8", True),
    ]

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
        support_data = generate_task_data(
            tasks[1], knn_sizes["support"], knn_sizes["classes"], image, knn_rng
        )
        query_data = generate_task_data(
            tasks[1], knn_sizes["query"], knn_sizes["classes"], image, knn_rng
        )
        reference = extract_embeddings(model, images, batch_size=batch)

        def run_chunked(program) -> np.ndarray:
            chunks = [
                program.run(images[start : start + batch])
                for start in range(0, samples, batch)
            ]
            return np.concatenate(chunks, axis=0)

        def embed_knn(program, data) -> np.ndarray:
            chunks = [
                program.run(data.images[start : start + batch])
                for start in range(0, data.images.shape[0], batch)
            ]
            return np.concatenate(chunks, axis=0)

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
                tier_support = embed_knn(program, support_data)
                tier_query = embed_knn(program, query_data)
                accuracy[precision] = _knn_accuracy(
                    tier_support,
                    support_data.labels,
                    tier_query,
                    query_data.labels,
                    knn_sizes["k"],
                )

            seconds, __ = time_calls(lambda: run_chunked(program), repeats=repeats)
            __, latencies = _time_per_sample(
                lambda i: program.run(images[i : i + 1]), samples, 1
            )
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
                    "latency_ms": _percentiles_ms(
                        np.multiply(latencies, 1e3), (50, 99)
                    ),
                    "max_abs_err_vs_f64": err,
                    "speedup_vs_f64": speedup,
                    "fusion_steps_eliminated": int(counters["fusion_eliminated"]),
                    "quantized_weights": int(counters["quantized"]),
                }
            )
            if precision == "f32" and fuse:
                best_speedup = max(best_speedup, speedup)

        drops = {
            tier: max(0.0, accuracy["f64"] - accuracy[tier])
            for tier in accuracy
            if tier != "f64"
        }
        for tier, drop in drops.items():
            budget = PRECISION_ACCURACY_BUDGETS[tier]
            if drop > budget:
                raise ValueError(
                    f"precision bench: {tier} KNN accuracy on {name!r} dropped "
                    f"{drop:.3f} vs f64 (budget {budget})"
                )
        backbones.append(
            {
                "name": name,
                "samples": int(samples),
                "batch_size": int(batch),
                "f64_bit_identical": True,
                "knn": {
                    "support": int(knn_sizes["support"]),
                    "query": int(knn_sizes["query"]),
                    "k": int(knn_sizes["k"]),
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


def run_serve_bench(scale: str = "tiny", repeats: int = 3, tenants: int = 4) -> dict:
    """Naive / batched-autograd / compiled-engine serving comparison.

    Unlike :func:`_measure`, every path here runs under the *same*
    (default) perf flags: the serving claim is that the compiled engine is
    bit-identical to the reference ``extract_embeddings`` under identical
    flags — that check is asserted in-process, so a record with a nonzero
    ``max_abs_diff`` cannot be produced.

    ``tenants >= 3`` additionally runs :func:`run_multi_tenant_bench` and
    attaches its result as the record's ``multi_tenant`` section
    (``tenants=0`` disables it).  The record always carries a
    ``precision`` section from :func:`run_precision_bench` — the
    precision × fusion matrix.  The baseline entries pin
    ``precision="f64"`` explicitly so their bit-exactness contract holds
    regardless of ``REPRO_SERVE_PRECISION``.
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

        _clear_caches()
        OBS.reset()
        OBS.enable()
        try:
            compiled = _embed_chunked(engine, images, batch)
        finally:
            OBS.disable()
        counters = OBS.snapshot()
        diff = float(np.max(np.abs(reference - compiled)))
        if diff != 0.0:
            raise ValueError(
                f"serve bench: compiled embeddings for {name!r} diverged from "
                f"extract_embeddings (max_abs_diff={diff})"
            )

        naive_seconds, naive_latencies = _time_per_sample(
            lambda i: extract_embeddings(model, images[i : i + 1], batch_size=1),
            samples,
            repeats,
        )
        compiled_single_seconds, compiled_latencies = _time_per_sample(
            lambda i: _embed_chunked(engine, images[i : i + 1], 1), samples, repeats
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
                "latency_ms": {
                    **_percentiles_ms(
                        np.multiply(naive_latencies, 1e3), (50, 99), "naive_"
                    ),
                    **_percentiles_ms(
                        np.multiply(compiled_latencies, 1e3), (50, 99), "compiled_"
                    ),
                },
                "counters": counters,
            }
        )
    record = _finish_record("serve", scale, repeats, entries)
    record["precision"] = run_precision_bench(scale=scale, repeats=repeats)
    validate_bench_record(record)
    if tenants:
        record["multi_tenant"] = run_multi_tenant_bench(
            scale=scale, repeats=repeats, tenants=tenants
        )
        validate_bench_record(record)
    return record


def _percentiles_ms(
    latencies_ms, quantiles: tuple[float, ...] = (50, 99, 99.9), prefix: str = ""
) -> dict[str, float]:
    """``{prefix}p50``-style keys (99.9 -> ``p999``) over millisecond values."""
    values = np.asarray(latencies_ms, dtype=float)
    return {
        f"{prefix}p{q:g}".replace(".", ""): float(np.percentile(values, q))
        for q in quantiles
    }


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(
        (after.get(name) or {}).get("calls", 0)
        - (before.get(name) or {}).get("calls", 0)
    )


def _bucket_delta(before: dict, after: dict, name: str) -> dict[str, int]:
    old = (before.get(name) or {}).get("buckets") or {}
    new = (after.get(name) or {}).get("buckets") or {}
    delta = {
        bucket: int(count) - int(old.get(bucket, 0)) for bucket, count in new.items()
    }
    return {bucket: count for bucket, count in delta.items() if count > 0}


def run_load_bench(
    scale: str = "tiny",
    repeats: int = 1,
    tenants: int = 3,
    duration: float = 1.0,
    load_factors: tuple[float, ...] = (0.25, 0.75, 1.5),
    deadline: float = 0.5,
    queue_limit: int = 64,
    seed: int = 0,
    shards: int = 4,
) -> dict:
    """End-to-end load test of the asyncio serving frontend.

    Starts a real :class:`~repro.serve.frontend.ServingFrontend` (TCP,
    continuous batching) over a multi-tenant engine, estimates the
    server's single-stream capacity, then offers ``load_factors`` ×
    capacity of open-loop Poisson traffic (``duration`` seconds per
    level) through :func:`repro.serve.loadgen.run_load` — the
    throughput-vs-offered-load curve, with client-side p50/p99/p999
    latency and the server's queue-depth / batch-size histograms per
    level.

    With ``shards >= 2`` the record also carries a ``scaling`` section:
    the same tenants served by a
    :class:`~repro.serve.shard.ShardedEngine` at each power-of-two
    shard count up to ``shards``, with per-shard isolated capacity
    probes (their sum is the fleet-sizing ``capacity_estimate_rps`` —
    ``host_cpus`` is recorded so single-core hosts read honestly), an
    offered-load curve through the sharded frontend, and a per-shard
    recorded-batch replay asserting server-vs-direct bit-identity.

    Bit-identity is asserted in-process: the scheduler records its first
    dispatched micro-batches, and each fully-``ok`` recorded batch is
    replayed through ``engine.serve`` directly — the server's rows must
    match the direct dispatch *exactly* (the mapping net is batch-
    composition sensitive, so identity is contracted per dispatched
    batch, not per isolated request).  A record with ``bit_identical:
    false`` cannot be produced.  ``repeats`` is accepted for suite-
    runner symmetry (arrival schedules are seeded, not repeated).
    """
    from repro.serve import MultiTenantEngine, ServeRequest, ServingFrontend
    from repro.serve.loadgen import run_load

    if len(load_factors) < 3:
        raise ValueError(
            f"load bench needs >= 3 offered-load levels, got {load_factors}"
        )
    if sorted(load_factors) != list(load_factors):
        raise ValueError(f"load factors must be increasing, got {load_factors}")
    sizes = _SERVE_SCALES[scale]
    static, metas = _multi_tenant_models(tenants)
    names = ["static"] + [f"meta_{index}" for index in range(len(metas))]

    data_rng = np.random.default_rng(seed + 70)
    pools = {
        name: data_rng.normal(
            size=(16, 3, sizes["image"], sizes["image"])
        ).astype(np.float32)
        for name in names
    }

    engine = MultiTenantEngine()
    frontend = None
    try:
        for name, source in zip(names, [static, *metas]):
            engine.register(name, source)

        # Warm the compiled programs, then estimate single-stream capacity
        # from a timed mixed batch — load levels scale off the measurement,
        # so the curve brackets saturation on fast and slow hosts alike.
        probe = [
            ServeRequest(sample=pools[name][index], adapter=name)
            for index in range(4)
            for name in names
        ]
        for result in engine.serve(probe):
            result.require()
        start = time.perf_counter()
        for result in engine.serve(probe):
            result.require()
        per_sample = (time.perf_counter() - start) / len(probe)
        capacity = 1.0 / max(per_sample, 1e-6)

        frontend = ServingFrontend(
            engine,
            queue_limit=queue_limit,
            record_batches=8,
            target_batch_seconds=0.05,
        )
        host, port = frontend.start_in_thread()
        max_batch = frontend.scheduler.max_batch

        levels = []
        for index, factor in enumerate(load_factors):
            rate = max(5.0, capacity * factor)
            before = frontend.scheduler.stats()
            report = run_load(
                host,
                port,
                pools,
                adapters=names,
                rate=rate,
                duration=duration,
                deadline=deadline,
                seed=seed + index,
            )
            after = frontend.scheduler.stats()
            statuses = report["statuses"]
            if not report["latencies_ms"]:
                raise ValueError(
                    f"load bench: level {factor}x ({rate:.0f}/s) completed no "
                    f"requests; statuses: {statuses}"
                )
            levels.append(
                {
                    "load_factor": float(factor),
                    "offered_rate": float(report["offered_rate"]),
                    "duration_seconds": float(report["duration_seconds"]),
                    "sent": int(report["sent"]),
                    "completed": int(report["completed"]),
                    "ok": int(statuses.get("ok", 0)),
                    "rejected": int(statuses.get("rejected", 0)),
                    "deadline_missed": int(statuses.get("deadline_missed", 0)),
                    "achieved_rate": float(report["achieved_rate"]),
                    "max_lateness_seconds": float(report["max_lateness_seconds"]),
                    "latency_ms": _percentiles_ms(report["latencies_ms"]),
                    "queue_depth": _bucket_delta(before, after, "serve.queue.depth"),
                    "batch_size": _bucket_delta(before, after, "serve.batch.size"),
                    "counters": {
                        "serve.request.rejected": _counter_delta(
                            before, after, "serve.request.rejected"
                        ),
                        "serve.request.deadline_missed": _counter_delta(
                            before, after, "serve.request.deadline_missed"
                        ),
                    },
                }
            )

        recorded = list(frontend.scheduler.recorded)
        frontend.stop_in_thread()
        frontend = None

        # Replay every fully-ok recorded micro-batch through the engine
        # directly; the server's rows must match exactly.
        replayed = 0
        for requests, results in recorded:
            if not all(result.ok for result in results):
                continue
            replay = engine.serve(
                [
                    ServeRequest(sample=request.sample, adapter=request.adapter)
                    for request in requests
                ]
            )
            for served, direct in zip(results, replay):
                if not np.array_equal(served.embedding, direct.require()):
                    raise ValueError(
                        "load bench: served batch diverged from direct "
                        "engine dispatch of the same micro-batch"
                    )
            replayed += 1
        if replayed < 1:
            raise ValueError(
                "load bench: no fully-served micro-batch was recorded; "
                "cannot assert server-vs-direct bit-identity"
            )
    finally:
        if frontend is not None:
            frontend.stop_in_thread()
        engine.close()

    scaling = None
    if shards >= 2:
        scaling = _run_scaling_sweep(
            [static, *metas],
            names,
            pools,
            duration=duration,
            deadline=deadline,
            queue_limit=queue_limit,
            seed=seed,
            shard_counts=_shard_counts(shards),
            load_factors=tuple(load_factors)[:2],
        )

    record = {
        "schema": SCHEMA,
        "kind": "load",
        "scale": scale,
        "repeats": int(repeats),
        "tenants": int(tenants),
        "capacity_estimate_rps": float(capacity),
        "server": {
            "queue_limit": int(queue_limit),
            "max_batch": int(max_batch),
            "target_batch_seconds": 0.05,
            "deadline_seconds": float(deadline),
        },
        "load": {"levels": levels},
        "bit_identical": True,
        "replayed_batches": int(replayed),
        "summary": {
            "peak_achieved_rate": float(
                max(level["achieved_rate"] for level in levels)
            ),
            "levels": len(levels),
        },
    }
    if scaling is not None:
        record["scaling"] = scaling
    validate_bench_record(record)
    return record


def _shard_counts(shards: int) -> list[int]:
    """Power-of-two shard counts up to ``shards`` (4 -> [1, 2, 4])."""
    counts = []
    count = 1
    while count <= shards:
        counts.append(count)
        count *= 2
    return counts


#: Timed probe batches per shard in the scaling sweep; the shard's
#: capacity is read from their median.
SCALING_PROBE_BATCHES = 9


def _run_scaling_sweep(
    models: list,
    names: list[str],
    pools: dict,
    *,
    duration: float,
    deadline: float,
    queue_limit: int,
    seed: int,
    shard_counts: list[int],
    load_factors: tuple[float, ...],
) -> dict:
    """The ``scaling`` section: the load tenants on 1/2/.../N shards.

    For each shard count: register every tenant on a
    :class:`~repro.serve.shard.ShardedEngine`, probe each shard's
    capacity in isolation (the median of :data:`SCALING_PROBE_BATCHES`
    timed batches after a warm one; the sum is the fleet-sizing
    estimate — on a single-core host the shards time-slice, which is why
    ``host_cpus`` is part of the record), drive the offered-load curve through the
    real sharded frontend, then pull every shard's recorded
    micro-batches and replay them through a direct single-process
    engine — each shard must serve bit-identically to direct dispatch,
    so a section with ``bit_identical: false`` cannot be produced.
    """
    from repro.runtime.pool import resolve_start_method
    from repro.serve import (
        MultiTenantEngine,
        ServeRequest,
        ServingFrontend,
        ShardedEngine,
    )
    from repro.serve.loadgen import run_load

    def tenant_builder_args(name: str) -> tuple[str, int]:
        if name == "static":
            return ("static", 0)
        return ("meta", int(name.rsplit("_", 1)[1]))

    reference = MultiTenantEngine()
    entries = []
    try:
        for name, model in zip(names, models):
            reference.register(name, model)
        for count in shard_counts:
            sharded = ShardedEngine(
                count,
                queue_limit=queue_limit,
                record_batches=4,
                target_batch_seconds=0.05,
            )
            frontend = None
            try:
                for name, model in zip(names, models):
                    kind, index = tenant_builder_args(name)
                    sharded.register(
                        name, model, builder=build_shard_tenant, args=(kind, index)
                    )

                def probe_requests() -> list:
                    return [
                        ServeRequest(sample=pools[name][index], adapter=name)
                        for index in range(4)
                        for name in names
                    ]

                per_shard = []
                for shard_id in range(count):
                    for result in sharded.serve_on(shard_id, probe_requests()):
                        result.require()  # warm the shard's compiled programs
                    # One batch takes ~20 ms, so a single timing is at the
                    # mercy of the host scheduler; the median of nine is not.
                    timings = []
                    for __ in range(SCALING_PROBE_BATCHES):
                        requests = probe_requests()
                        start = time.perf_counter()
                        served = sharded.serve_on(shard_id, requests)
                        timings.append(time.perf_counter() - start)
                        for result in served:
                            result.require()
                    elapsed = float(np.median(timings))
                    per_shard.append(len(requests) / max(elapsed, 1e-6))

                frontend = ServingFrontend(scheduler=sharded)
                host, port = frontend.start_in_thread()
                base_rate = entries[0]["capacity_estimate_rps"] if entries else sum(per_shard)
                levels = []
                for index, factor in enumerate(load_factors):
                    rate = max(5.0, base_rate * factor)
                    report = run_load(
                        host,
                        port,
                        pools,
                        adapters=names,
                        rate=rate,
                        duration=duration,
                        deadline=deadline,
                        seed=seed + 100 * count + index,
                    )
                    statuses = report["statuses"]
                    levels.append(
                        {
                            "load_factor": float(factor),
                            "offered_rate": float(report["offered_rate"]),
                            "achieved_rate": float(report["achieved_rate"]),
                            "sent": int(report["sent"]),
                            "completed": int(report["completed"]),
                            "ok": int(statuses.get("ok", 0)),
                            "rejected": int(statuses.get("rejected", 0)),
                            "deadline_missed": int(
                                statuses.get("deadline_missed", 0)
                            ),
                        }
                    )

                recorded = sharded.recorded_batches()
                replayed = 0
                for batches in recorded.values():
                    for batch in batches:
                        if not all(status == "ok" for status in batch["statuses"]):
                            continue
                        replay = reference.serve(
                            [
                                ServeRequest(sample=sample, adapter=adapter)
                                for sample, adapter in zip(
                                    batch["samples"], batch["adapters"]
                                )
                            ]
                        )
                        for embedding, direct in zip(batch["embeddings"], replay):
                            if not np.array_equal(embedding, direct.require()):
                                raise ValueError(
                                    f"scaling sweep: a {count}-shard recorded "
                                    f"batch diverged from direct dispatch"
                                )
                        replayed += 1
                if replayed < 1:
                    raise ValueError(
                        f"scaling sweep: no fully-served batch recorded at "
                        f"{count} shard(s); cannot assert bit-identity"
                    )
                entries.append(
                    {
                        "shards": int(count),
                        "capacity_estimate_rps": float(sum(per_shard)),
                        "per_shard_capacity_rps": [
                            float(value) for value in per_shard
                        ],
                        "levels": levels,
                        "bit_identical": True,
                        "replayed_batches": int(replayed),
                    }
                )
            finally:
                if frontend is not None:
                    frontend.stop_in_thread()  # drains + closes the ShardedEngine
                else:
                    sharded.close()
    finally:
        reference.close()

    base = entries[0]["capacity_estimate_rps"]
    top = entries[-1]
    return {
        "host_cpus": int(os.cpu_count() or 1),
        "start_method": resolve_start_method(),
        "shard_counts": [int(count) for count in shard_counts],
        "entries": entries,
        "summary": {
            "capacity_ratio": float(top["capacity_estimate_rps"] / base),
            "top_shards": int(top["shards"]),
        },
    }


# -- record assembly / validation / io ----------------------------------------


def _finish_record(kind: str, scale: str, repeats: int, entries: list[dict]) -> dict:
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
    }
    validate_bench_record(record)
    return record


def _validate_load_record(record: dict, expect: Callable[[bool, str], None]) -> None:
    """The ``kind == "load"`` branch of :func:`validate_bench_record`."""
    expect(isinstance(record.get("tenants"), int) and record["tenants"] >= 1,
           "tenants must be a positive int")
    value = record.get("capacity_estimate_rps")
    expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
           "capacity_estimate_rps must be a finite float > 0")
    server = record.get("server")
    expect(isinstance(server, dict), "server must be a dict")
    for key in ("queue_limit", "max_batch"):
        expect(isinstance(server.get(key), int) and server[key] >= 1,
               f"server.{key} must be a positive int")
    for key in ("target_batch_seconds", "deadline_seconds"):
        value = server.get(key)
        expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
               f"server.{key} must be a finite float > 0")
    load = record.get("load")
    expect(isinstance(load, dict), "load must be a dict")
    levels = load.get("levels")
    expect(isinstance(levels, list) and len(levels) >= 3,
           "load.levels must list >= 3 offered-load levels")
    previous = 0.0
    for level in levels:
        rate = level.get("offered_rate")
        expect(
            isinstance(rate, (int, float)) and np.isfinite(rate) and rate > previous,
            "load.levels must carry strictly increasing finite offered_rate values",
        )
        previous = float(rate)
        for key in ("duration_seconds", "achieved_rate"):
            value = level.get(key)
            expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                   f"load level {rate}: {key} must be a finite float > 0")
        for key in ("sent", "completed", "ok", "rejected", "deadline_missed"):
            value = level.get(key)
            expect(isinstance(value, int) and value >= 0,
                   f"load level {rate}: {key} must be an int >= 0")
        expect(level.get("sent", 0) >= 1, f"load level {rate}: sent must be >= 1")
        latency = level.get("latency_ms")
        expect(isinstance(latency, dict), f"load level {rate}: latency_ms must be a dict")
        for key in ("p50", "p99", "p999"):
            value = latency.get(key)
            expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                   f"load level {rate}: latency_ms.{key} must be a finite float > 0")
        expect(latency["p50"] <= latency["p99"] <= latency["p999"],
               f"load level {rate}: latency percentiles must be non-decreasing")
        for key in ("queue_depth", "batch_size"):
            buckets = level.get(key)
            expect(
                isinstance(buckets, dict) and buckets
                and all(isinstance(count, int) and count >= 1
                        for count in buckets.values()),
                f"load level {rate}: {key} must be a non-empty bucket histogram",
            )
        counters = level.get("counters")
        expect(
            isinstance(counters, dict)
            and {"serve.request.rejected", "serve.request.deadline_missed"}
            <= set(counters),
            f"load level {rate}: counters must carry the serve.request.* series",
        )
    expect(record.get("bit_identical") is True,
           "bit_identical must be True (server-vs-direct identity is asserted "
           "in-process)")
    expect(isinstance(record.get("replayed_batches"), int)
           and record["replayed_batches"] >= 1,
           "replayed_batches must be an int >= 1")
    summary = record.get("summary")
    expect(isinstance(summary, dict), "summary must be a dict")
    value = summary.get("peak_achieved_rate")
    expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
           "summary.peak_achieved_rate must be a finite float > 0")
    if "scaling" in record:
        _validate_scaling_section(record["scaling"], expect)


def _validate_scaling_section(
    scaling: dict, expect: Callable[[bool, str], None]
) -> None:
    """The optional ``scaling`` section of a ``load`` record."""
    expect(isinstance(scaling, dict), "scaling must be a dict")
    expect(isinstance(scaling.get("host_cpus"), int) and scaling["host_cpus"] >= 1,
           "scaling.host_cpus must be a positive int")
    expect(scaling.get("start_method") in ("fork", "spawn", "forkserver"),
           "scaling.start_method must be a multiprocessing start method")
    counts = scaling.get("shard_counts")
    expect(
        isinstance(counts, list) and len(counts) >= 2 and counts[0] == 1
        and all(isinstance(count, int) for count in counts)
        and counts == sorted(set(counts)),
        "scaling.shard_counts must be strictly increasing ints starting at 1",
    )
    entries = scaling.get("entries")
    expect(isinstance(entries, list) and len(entries) == len(counts),
           "scaling.entries must carry one entry per shard count")
    for count, entry in zip(counts, entries):
        expect(isinstance(entry, dict) and entry.get("shards") == count,
               f"scaling entry for {count} shard(s) is missing or misordered")
        value = entry.get("capacity_estimate_rps")
        expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
               f"scaling[{count}]: capacity_estimate_rps must be a finite float > 0")
        per_shard = entry.get("per_shard_capacity_rps")
        expect(
            isinstance(per_shard, list) and len(per_shard) == count
            and all(isinstance(value, (int, float)) and np.isfinite(value)
                    and value > 0 for value in per_shard),
            f"scaling[{count}]: per_shard_capacity_rps must list {count} "
            f"finite floats > 0",
        )
        levels = entry.get("levels")
        expect(isinstance(levels, list) and len(levels) >= 1,
               f"scaling[{count}]: levels must list >= 1 offered-load levels")
        previous = 0.0
        for level in levels:
            rate = level.get("offered_rate")
            expect(
                isinstance(rate, (int, float)) and np.isfinite(rate)
                and rate > previous,
                f"scaling[{count}]: offered_rate values must strictly increase",
            )
            previous = float(rate)
            value = level.get("achieved_rate")
            expect(isinstance(value, (int, float)) and np.isfinite(value)
                   and value > 0,
                   f"scaling[{count}]: achieved_rate must be a finite float > 0")
            for key in ("sent", "completed", "ok", "rejected", "deadline_missed"):
                value = level.get(key)
                expect(isinstance(value, int) and value >= 0,
                       f"scaling[{count}]: {key} must be an int >= 0")
        expect(entry.get("bit_identical") is True,
               f"scaling[{count}]: bit_identical must be True (per-shard replay "
               f"is asserted in-process)")
        expect(isinstance(entry.get("replayed_batches"), int)
               and entry["replayed_batches"] >= 1,
               f"scaling[{count}]: replayed_batches must be an int >= 1")
    summary = scaling.get("summary")
    expect(isinstance(summary, dict), "scaling.summary must be a dict")
    expect(summary.get("top_shards") == counts[-1],
           "scaling.summary.top_shards must match the largest shard count")
    ratio = summary.get("capacity_ratio")
    expect(isinstance(ratio, (int, float)) and np.isfinite(ratio),
           "scaling.summary.capacity_ratio must be a finite float")
    expect(
        abs(ratio - entries[-1]["capacity_estimate_rps"]
            / entries[0]["capacity_estimate_rps"]) < 1e-9,
        "scaling.summary.capacity_ratio must equal top/base capacity",
    )
    # The headline contract is >= 1.7x at 4 shards.  A 2-shard smoke
    # sweep ideally doubles, but single-core probe jitter can eat most
    # of a shard's margin — hold it to a looser floor that still proves
    # the fleet scales at all.
    floor = 1.7 if counts[-1] >= 4 else 1.3
    expect(ratio >= floor,
           f"scaling.summary.capacity_ratio must be >= {floor} at "
           f"{counts[-1]} shards vs 1, got {ratio}")


def _validate_robustness_record(
    record: dict, expect: Callable[[bool, str], None]
) -> None:
    """The ``kind == "robustness"`` branch of :func:`validate_bench_record`."""

    def finite(value) -> bool:
        return isinstance(value, (int, float)) and np.isfinite(value)

    grid = record.get("grid")
    expect(isinstance(grid, dict), "grid must be a dict")
    seeds = grid.get("seeds")
    expect(isinstance(seeds, list) and seeds
           and all(isinstance(s, int) for s in seeds),
           "grid.seeds must be a non-empty list of ints")
    methods = grid.get("methods")
    expect(isinstance(methods, list) and len(methods) >= 2
           and all(isinstance(m, str) and m for m in methods),
           "grid.methods must list >= 2 methods")
    corruptions = grid.get("corruptions")
    expect(isinstance(corruptions, list) and corruptions
           and all(isinstance(c, str) and c for c in corruptions),
           "grid.corruptions must be a non-empty list of names")
    severities = grid.get("severities")
    expect(isinstance(severities, list) and len(severities) >= 2
           and all(isinstance(s, int) and 0 <= s <= 5 for s in severities)
           and len(set(severities)) == len(severities),
           "grid.severities must list >= 2 distinct severities in 0..5")
    expect(0 in (severities or []),
           "grid.severities must include 0 (the clean pin)")
    ks = grid.get("ks")
    expect(isinstance(ks, list) and ks and all(isinstance(k, int) and k >= 1 for k in ks),
           "grid.ks must be a non-empty list of positive ints")

    cells = record.get("cells")
    expect(isinstance(cells, list) and cells, "cells must be a non-empty list")
    wanted = {
        (seed, method, corruption, severity)
        for seed in seeds for method in methods
        for corruption in corruptions for severity in severities
    }
    seen = set()
    for cell in cells:
        expect(isinstance(cell, dict), "every cell must be a dict")
        key = (cell.get("seed"), cell.get("method"),
               cell.get("corruption"), cell.get("severity"))
        expect(key in wanted, f"cell {key} is outside the declared grid")
        expect(key not in seen, f"duplicate cell {key}")
        seen.add(key)
        accuracy = cell.get("accuracy_by_k")
        expect(isinstance(accuracy, dict) and accuracy,
               f"cell {key}: accuracy_by_k must be a non-empty dict")
        expect({int(k) for k in accuracy} == set(ks),
               f"cell {key}: accuracy_by_k must cover grid.ks exactly")
        for k, value in accuracy.items():
            expect(finite(value) and 0.0 <= value <= 1.0,
                   f"cell {key}: accuracy_by_k[{k}] must be a float in [0, 1]")
    expect(seen == wanted,
           f"cells must cover the full grid ({len(seen)}/{len(wanted)} present)")

    expect(record.get("severity0_bit_identical") is True,
           "severity0_bit_identical must be True (the clean Table I pin is "
           "asserted in-process)")
    parallel = record.get("parallel")
    expect(isinstance(parallel, dict), "parallel must be a dict")
    expect(isinstance(parallel.get("jobs"), int) and parallel["jobs"] >= 2,
           "parallel.jobs must be an int >= 2")
    expect(isinstance(parallel.get("host_cpus"), int) and parallel["host_cpus"] >= 1,
           "parallel.host_cpus must be a positive int")
    for key in ("serial_seconds", "parallel_seconds"):
        value = parallel.get(key)
        expect(finite(value) and value > 0,
               f"parallel.{key} must be a finite float > 0")
    expect(parallel.get("cells_equal") is True,
           "parallel.cells_equal must be True (equality is asserted in-process)")
    resume = record.get("resume")
    expect(isinstance(resume, dict), "resume must be a dict")
    for key in ("removed_cells", "restored_cells"):
        expect(isinstance(resume.get(key), int) and resume[key] >= 1,
               f"resume.{key} must be an int >= 1")
    expect(resume.get("cells_equal") is True,
           "resume.cells_equal must be True (equality is asserted in-process)")

    slopes = record.get("slopes")
    expect(isinstance(slopes, dict) and set(slopes) == set(methods),
           "slopes must carry one entry per method")
    for method, entry in slopes.items():
        expect(isinstance(entry, dict), f"slopes[{method}] must be a dict")
        per_corruption = entry.get("per_corruption")
        expect(isinstance(per_corruption, dict)
               and set(per_corruption) == set(corruptions),
               f"slopes[{method}].per_corruption must cover every corruption")
        for corruption, slope in per_corruption.items():
            expect(finite(slope),
                   f"slopes[{method}].per_corruption[{corruption}] must be finite")
        expect(finite(entry.get("mean")), f"slopes[{method}].mean must be finite")

    headline = record.get("headline")
    expect(isinstance(headline, dict), "headline must be a dict")
    expect(headline.get("baseline") in methods,
           "headline.baseline must be one of grid.methods")
    meta_methods = headline.get("meta_methods")
    expect(isinstance(meta_methods, list) and meta_methods
           and all(m in methods for m in meta_methods),
           "headline.meta_methods must be a non-empty subset of grid.methods")
    for key in ("corrupted_delta", "clean_delta"):
        expect(finite(headline.get(key)), f"headline.{key} must be finite")

    stream = record.get("stream")
    expect(isinstance(stream, dict), "stream must be a dict")
    expect(isinstance(stream.get("steps"), int) and stream["steps"] >= 2,
           "stream.steps must be an int >= 2")
    stream_methods = stream.get("methods")
    expect(isinstance(stream_methods, dict) and stream_methods,
           "stream.methods must be a non-empty dict")
    for method, entry in stream_methods.items():
        steps = entry.get("steps") if isinstance(entry, dict) else None
        expect(isinstance(steps, list) and len(steps) == stream["steps"],
               f"stream.methods[{method}].steps must list every step")
        for step in steps:
            expect(isinstance(step, dict)
                   and isinstance(step.get("corruption"), str)
                   and isinstance(step.get("severity"), int)
                   and 0 <= step["severity"] <= 5,
                   f"stream.methods[{method}]: every step needs "
                   f"corruption/severity")
            accuracy = step.get("accuracy")
            expect(finite(accuracy) and 0.0 <= accuracy <= 1.0,
                   f"stream.methods[{method}]: step accuracy must be in [0, 1]")
            latency = step.get("refit_latency_s")
            expect(finite(latency) and latency >= 0,
                   f"stream.methods[{method}]: refit_latency_s must be >= 0")
        expect(finite(entry.get("mean_accuracy")),
               f"stream.methods[{method}].mean_accuracy must be finite")
        expect(finite(entry.get("mean_refit_latency_s")),
               f"stream.methods[{method}].mean_refit_latency_s must be finite")

    summary = record.get("summary")
    expect(isinstance(summary, dict), "summary must be a dict")
    expect(summary.get("headline_delta") == headline.get("corrupted_delta"),
           "summary.headline_delta must equal headline.corrupted_delta")


def validate_bench_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the repro.bench/v1 schema."""

    def expect(condition: bool, message: str) -> None:
        if not condition:
            raise ValueError(f"invalid bench record: {message}")

    expect(isinstance(record, dict), "not a mapping")
    expect(record.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    expect(
        record.get("kind") in ("autograd", "table1", "serve", "load", "robustness"),
        "kind must be autograd|table1|serve|load|robustness",
    )
    expect(record.get("scale") in _SCALES, f"scale must be one of {sorted(_SCALES)}")
    expect(isinstance(record.get("repeats"), int) and record["repeats"] >= 1,
           "repeats must be a positive int")
    if record.get("kind") == "load":
        _validate_load_record(record, expect)
        return
    if record.get("kind") == "robustness":
        _validate_robustness_record(record, expect)
        return
    entries = record.get("entries")
    expect(isinstance(entries, list) and entries, "entries must be a non-empty list")
    for entry in entries:
        expect(isinstance(entry.get("name"), str) and entry["name"], "entry needs a name")
        for key in ("reference_seconds", "optimized_seconds", "speedup", "max_abs_diff"):
            value = entry.get(key)
            expect(isinstance(value, (int, float)) and np.isfinite(value) and value >= 0,
                   f"entry {entry.get('name')!r}: {key} must be a finite float >= 0")
        counters = entry.get("counters")
        expect(isinstance(counters, dict), f"entry {entry.get('name')!r}: counters must be a dict")
        for cname, stats in counters.items():
            expect(
                isinstance(stats, dict)
                and {"kind", "calls", "seconds", "bytes"} <= set(stats),
                f"counter {cname!r} must have kind/calls/seconds/bytes "
                f"(the unified metrics-snapshot schema)",
            )
            expect(
                stats.get("kind") in KINDS,
                f"counter {cname!r} kind must be one of {list(KINDS)}",
            )
        if record.get("kind") == "serve":
            name = entry.get("name")
            expect(entry.get("max_abs_diff") == 0.0,
                   f"entry {name!r}: serve entries must be bit-exact (max_abs_diff == 0.0)")
            for key in ("samples", "batch_size"):
                expect(isinstance(entry.get(key), int) and entry[key] >= 1,
                       f"entry {name!r}: {key} must be a positive int")
            value = entry.get("batched_autograd_seconds")
            expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                   f"entry {name!r}: batched_autograd_seconds must be a finite float > 0")
            for section, keys in (
                ("throughput", ("naive_per_sample", "batched_autograd", "compiled")),
                ("latency_ms", ("naive_p50", "naive_p99", "compiled_p50", "compiled_p99")),
            ):
                table = entry.get(section)
                expect(isinstance(table, dict), f"entry {name!r}: {section} must be a dict")
                for key in keys:
                    value = table.get(key)
                    expect(
                        isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                        f"entry {name!r}: {section}.{key} must be a finite float > 0",
                    )
    summary = record.get("summary")
    expect(isinstance(summary, dict), "summary must be a dict")
    for key in ("min_speedup", "geomean_speedup"):
        value = summary.get(key)
        expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
               f"summary.{key} must be a finite float > 0")
    parallel = record.get("parallel")
    if parallel is not None:
        expect(record.get("kind") == "table1", "parallel section is table1-only")
        expect(isinstance(parallel, dict), "parallel must be a dict")
        expect(isinstance(parallel.get("jobs"), int) and parallel["jobs"] >= 2,
               "parallel.jobs must be an int >= 2")
        expect(isinstance(parallel.get("host_cpus"), int) and parallel["host_cpus"] >= 1,
               "parallel.host_cpus must be a positive int")
        expect(
            isinstance(parallel.get("seeds"), list) and parallel["seeds"]
            and all(isinstance(s, int) for s in parallel["seeds"]),
            "parallel.seeds must be a non-empty list of ints",
        )
        expect(isinstance(parallel.get("cells"), int) and parallel["cells"] >= 1,
               "parallel.cells must be a positive int")
        for key in (
            "per_cell_serial_seconds",
            "seed_loop_serial_seconds",
            "parallel_seconds",
            "speedup",
            "speedup_vs_seed_loop",
        ):
            value = parallel.get(key)
            expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                   f"parallel.{key} must be a finite float > 0")
        expect(parallel.get("rows_equal") is True,
               "parallel.rows_equal must be True (equality is asserted in-process)")
    precision = record.get("precision")
    if precision is not None:
        expect(record.get("kind") == "serve", "precision section is serve-only")
        expect(isinstance(precision, dict), "precision must be a dict")
        budgets = precision.get("budgets")
        expect(isinstance(budgets, dict) and {"f32", "int8"} <= set(budgets),
               "precision.budgets must cover f32 and int8")
        backbones = precision.get("backbones")
        expect(isinstance(backbones, list) and backbones,
               "precision.backbones must be a non-empty list")
        for backbone in backbones:
            bname = backbone.get("name")
            expect(isinstance(bname, str) and bname, "precision backbone needs a name")
            for key in ("samples", "batch_size"):
                expect(isinstance(backbone.get(key), int) and backbone[key] >= 1,
                       f"precision backbone {bname!r}: {key} must be a positive int")
            expect(backbone.get("f64_bit_identical") is True,
                   f"precision backbone {bname!r}: f64_bit_identical must be True "
                   f"(identity is asserted in-process)")
            knn = backbone.get("knn")
            expect(isinstance(knn, dict), f"precision backbone {bname!r}: knn must be a dict")
            accuracy = knn.get("accuracy")
            expect(
                isinstance(accuracy, dict) and {"f64", "f32", "int8"} <= set(accuracy),
                f"precision backbone {bname!r}: knn.accuracy must cover every tier",
            )
            drops = knn.get("max_drop")
            expect(isinstance(drops, dict), f"precision backbone {bname!r}: knn.max_drop must be a dict")
            for tier, drop in drops.items():
                budget = budgets.get(tier)
                expect(
                    isinstance(drop, (int, float)) and np.isfinite(drop)
                    and isinstance(budget, (int, float)) and drop <= budget,
                    f"precision backbone {bname!r}: {tier} KNN drop {drop} "
                    f"exceeds its budget {budget}",
                )
            rows = backbone.get("rows")
            expect(isinstance(rows, list) and len(rows) >= 4,
                   f"precision backbone {bname!r}: rows must list >= 4 configurations")
            tiers = {row.get("precision") for row in rows}
            expect({"f64", "f32", "int8"} <= tiers,
                   f"precision backbone {bname!r}: rows must cover every tier")
            for row in rows:
                label = row.get("label")
                expect(isinstance(label, str) and label,
                       f"precision backbone {bname!r}: every row needs a label")
                for key in ("seconds", "throughput", "speedup_vs_f64"):
                    value = row.get(key)
                    expect(
                        isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                        f"precision row {label!r}: {key} must be a finite float > 0",
                    )
                err = row.get("max_abs_err_vs_f64")
                expect(isinstance(err, (int, float)) and np.isfinite(err) and err >= 0,
                       f"precision row {label!r}: max_abs_err_vs_f64 must be >= 0")
                if row.get("precision") == "f64":
                    expect(err == 0.0,
                           f"precision row {label!r}: f64 rows must be bit-exact")
                latency = row.get("latency_ms")
                expect(
                    isinstance(latency, dict)
                    and all(
                        isinstance(latency.get(key), (int, float))
                        and np.isfinite(latency[key]) and latency[key] > 0
                        for key in ("p50", "p99")
                    ),
                    f"precision row {label!r}: latency_ms needs finite p50/p99 > 0",
                )
        best = precision.get("best_speedup_vs_f64")
        expect(isinstance(best, (int, float)) and np.isfinite(best) and best > 0,
               "precision.best_speedup_vs_f64 must be a finite float > 0")
    multi = record.get("multi_tenant")
    if multi is not None:
        expect(record.get("kind") == "serve", "multi_tenant section is serve-only")
        expect(isinstance(multi, dict), "multi_tenant must be a dict")
        for key, floor in (
            ("tenants", 3),
            ("seed_slot_tenants", 2),
            ("static_tenants", 1),
            ("rounds", 1),
            ("per_tenant", 1),
            ("requests", 1),
            ("swaps", 0),
        ):
            value = multi.get(key)
            expect(isinstance(value, int) and value >= floor,
                   f"multi_tenant.{key} must be an int >= {floor}")
        for table, prefix in ((multi, "multi_tenant"), (multi.get("seed_slot"), "multi_tenant.seed_slot")):
            expect(isinstance(table, dict), f"{prefix} must be a dict")
            for key in ("serial_seconds", "grouped_seconds", "speedup"):
                value = table.get(key)
                expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                       f"{prefix}.{key} must be a finite float > 0")
        throughput = multi.get("throughput")
        expect(isinstance(throughput, dict), "multi_tenant.throughput must be a dict")
        for key in ("serial", "grouped"):
            value = throughput.get(key)
            expect(isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
                   f"multi_tenant.throughput.{key} must be a finite float > 0")
        cache = multi.get("program_cache")
        expect(isinstance(cache, dict), "multi_tenant.program_cache must be a dict")
        for key in ("hit", "miss", "evict"):
            value = cache.get(key)
            expect(isinstance(value, int) and value >= 0,
                   f"multi_tenant.program_cache.{key} must be an int >= 0")
        expect(cache.get("hit", 0) >= 1,
               "multi_tenant.program_cache.hit must be >= 1 "
               "(seed-slot tenants must share programs)")
        rate = cache.get("hit_rate")
        expect(
            isinstance(rate, (int, float)) and np.isfinite(rate) and 0.0 <= rate <= 1.0,
            "multi_tenant.program_cache.hit_rate must be in [0, 1]",
        )
        expect(multi.get("bit_identical") is True,
               "multi_tenant.bit_identical must be True (identity is asserted in-process)")


#: Suite name -> bench runner, in emission order.  ``load`` is opt-in
#: (not part of the default sweep): it binds a TCP port and runs
#: ``>= 3 * load_duration`` seconds of wall-clock traffic.
_BENCH_SUITES = {
    "autograd": run_autograd_bench,
    "table1": run_table1_bench,
    "serve": run_serve_bench,
    "load": run_load_bench,
    "robustness": run_robustness_bench,
}

#: Suites the no-``--suite`` default runs (everything but the opt-in
#: ``load`` and ``robustness`` suites, which run whole grids).
_DEFAULT_SUITES = ("autograd", "table1", "serve")


def write_bench_records(
    out_dir: str = ".",
    scale: str = "tiny",
    repeats: int = 3,
    jobs: int = 1,
    suites: tuple[str, ...] | None = None,
    tenants: int = 4,
    load_duration: float = 1.0,
    shards: int = 4,
) -> list[str]:
    """Run the selected benches and write one ``BENCH_<kind>.json`` each.

    ``suites`` selects a subset of :data:`_BENCH_SUITES` (default:
    :data:`_DEFAULT_SUITES` — everything but the opt-in ``load`` suite).
    ``jobs > 1`` adds the grid-runtime ``parallel`` section to the Table I
    record (markedly slower: it runs the quick Table I grid three times).
    ``tenants`` sizes the serve record's ``multi_tenant`` section
    (``0`` disables it; otherwise >= 3).  ``load_duration`` is the
    seconds of traffic per offered-load level in the ``load`` suite;
    ``shards`` caps its ``scaling`` sweep (``< 2`` skips the section).
    """
    if suites is None:
        suites = _DEFAULT_SUITES
    unknown = [kind for kind in suites if kind not in _BENCH_SUITES]
    if unknown:
        raise ValueError(f"unknown bench suite(s): {unknown}; known: {sorted(_BENCH_SUITES)}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for kind in suites:
        runner = _BENCH_SUITES[kind]
        kwargs: dict[str, object] = {}
        if kind == "table1":
            kwargs["jobs"] = jobs
        elif kind == "serve":
            kwargs["tenants"] = tenants
        elif kind == "load":
            kwargs["duration"] = load_duration
            kwargs["shards"] = shards
        elif kind == "robustness":
            kwargs["jobs"] = max(jobs, 2)  # the parallel pin needs >= 2
        record = runner(scale=scale, repeats=repeats, **kwargs)
        path = os.path.join(out_dir, f"BENCH_{kind}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def _format_load_record(record: dict) -> str:
    """Human-readable table for the ``load`` record."""
    server = record["server"]
    lines = [
        f"load bench  (scale={record['scale']}, {record['tenants']} tenants, "
        f"capacity est. {record['capacity_estimate_rps']:.1f} req/s)",
        f"server: queue_limit={server['queue_limit']}  max_batch={server['max_batch']}  "
        f"target_batch={server['target_batch_seconds'] * 1e3:.0f}ms  "
        f"deadline={server['deadline_seconds'] * 1e3:.0f}ms",
        f"{'offered':>9} {'achieved':>9} {'ok':>6} {'rej':>5} {'miss':>5}  "
        f"{'p50':>8} {'p99':>8} {'p999':>8}",
    ]
    for level in record["load"]["levels"]:
        latency = level["latency_ms"]
        lines.append(
            f"{level['offered_rate']:>7.1f}/s {level['achieved_rate']:>7.1f}/s "
            f"{level['ok']:>6} {level['rejected']:>5} {level['deadline_missed']:>5}  "
            f"{latency['p50']:>6.2f}ms {latency['p99']:>6.2f}ms "
            f"{latency['p999']:>6.2f}ms"
        )
        depth = ", ".join(
            f"{bucket}:{count}"
            for bucket, count in sorted(
                level["queue_depth"].items(), key=lambda kv: int(kv[0])
            )
        )
        size = ", ".join(
            f"{bucket}:{count}"
            for bucket, count in sorted(
                level["batch_size"].items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(f"{'':>9} queue depth {{{depth}}}  batch size {{{size}}}")
    summary = record["summary"]
    lines.append(
        f"summary: peak achieved {summary['peak_achieved_rate']:.1f} req/s  "
        f"(replayed {record['replayed_batches']} batch(es) bit-identical: "
        f"{record['bit_identical']})"
    )
    scaling = record.get("scaling")
    if scaling:
        lines.append(
            f"scaling ({scaling['start_method']}, host_cpus="
            f"{scaling['host_cpus']}):"
        )
        for entry in scaling["entries"]:
            peak = max(level["achieved_rate"] for level in entry["levels"])
            lines.append(
                f"  {entry['shards']} shard(s): capacity est. "
                f"{entry['capacity_estimate_rps']:>7.1f}/s  peak achieved "
                f"{peak:>7.1f}/s  (replayed {entry['replayed_batches']} "
                f"batch(es) bit-identical: {entry['bit_identical']})"
            )
        ratio = scaling["summary"]["capacity_ratio"]
        lines.append(
            f"  capacity ratio {scaling['summary']['top_shards']} vs 1 shard: "
            f"{ratio:.2f}x"
        )
    return "\n".join(lines)


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
    if record.get("kind") == "load":
        return _format_load_record(record)
    if record.get("kind") == "robustness":
        return _format_robustness_record(record)
    lines = [
        f"{record['kind']} bench  (scale={record['scale']}, "
        f"best of {record['repeats']})",
        f"{'case':<28} {'reference':>11} {'optimized':>11} {'speedup':>9}  {'max|diff|':>10}",
    ]
    for entry in record["entries"]:
        lines.append(
            f"{entry['name']:<28} {entry['reference_seconds'] * 1e3:>9.2f}ms "
            f"{entry['optimized_seconds'] * 1e3:>9.2f}ms "
            f"{entry['speedup']:>8.2f}x  {entry['max_abs_diff']:>10.2e}"
        )
    summary = record["summary"]
    lines.append(
        f"{'summary':<28} min {summary['min_speedup']:.2f}x   "
        f"geomean {summary['geomean_speedup']:.2f}x"
    )
    if record["kind"] == "serve":
        for entry in record["entries"]:
            throughput, latency = entry["throughput"], entry["latency_ms"]
            lines.append(
                f"{entry['name']:<28} throughput (samples/s): "
                f"naive {throughput['naive_per_sample']:.1f}   "
                f"batched {throughput['batched_autograd']:.1f}   "
                f"compiled {throughput['compiled']:.1f}"
            )
            lines.append(
                f"{'':<28} latency p50/p99 (ms): "
                f"naive {latency['naive_p50']:.2f}/{latency['naive_p99']:.2f}   "
                f"compiled {latency['compiled_p50']:.2f}/{latency['compiled_p99']:.2f}"
            )
    precision = record.get("precision")
    if precision:
        lines.append(
            f"precision matrix (budgets f32<={precision['budgets']['f32']}, "
            f"int8<={precision['budgets']['int8']}):"
        )
        for backbone in precision["backbones"]:
            knn = backbone["knn"]
            accuracy = "  ".join(
                f"{tier} {knn['accuracy'][tier]:.3f}"
                for tier in ("f64", "f32", "int8")
            )
            lines.append(
                f"  {backbone['name']}: knn accuracy {accuracy}  "
                f"(f64 bit-identical: {backbone['f64_bit_identical']})"
            )
            for row in backbone["rows"]:
                lines.append(
                    f"    {row['label']:<16} {row['seconds'] * 1e3:>8.2f}ms  "
                    f"{row['throughput']:>7.1f}/s  "
                    f"x{row['speedup_vs_f64']:<5.2f} "
                    f"p50/p99 {row['latency_ms']['p50']:.2f}/"
                    f"{row['latency_ms']['p99']:.2f}ms  "
                    f"err {row['max_abs_err_vs_f64']:.1e}"
                )
        lines.append(
            f"  best f32+fusion speedup vs f64 record: "
            f"{precision['best_speedup_vs_f64']:.2f}x"
        )
    multi = record.get("multi_tenant")
    if multi:
        cache = multi["program_cache"]
        lines.append(
            f"multi-tenant ({multi['tenants']} tenants: "
            f"{multi['seed_slot_tenants']} seed-slot + {multi['static_tenants']} static, "
            f"{multi['requests']} requests, {multi['swaps']} swap(s)):"
        )
        lines.append(
            f"  serial {multi['serial_seconds'] * 1e3:.2f}ms   "
            f"grouped {multi['grouped_seconds'] * 1e3:.2f}ms   "
            f"speedup {multi['speedup']:.2f}x  "
            f"(bit-identical: {multi['bit_identical']})"
        )
        seed_slot = multi["seed_slot"]
        lines.append(
            f"  seed-slot only: serial {seed_slot['serial_seconds'] * 1e3:.2f}ms   "
            f"grouped {seed_slot['grouped_seconds'] * 1e3:.2f}ms   "
            f"speedup {seed_slot['speedup']:.2f}x"
        )
        lines.append(
            f"  program cache: {cache['hit']} hit / {cache['miss']} miss / "
            f"{cache['evict']} evict  (hit rate {cache['hit_rate']:.2f})"
        )
    parallel = record.get("parallel")
    if parallel:
        lines.append(
            f"parallel grid ({parallel['cells']} cells, {parallel['jobs']} workers, "
            f"{parallel['host_cpus']} host cpu(s)):"
        )
        lines.append(
            f"  per-cell serial {parallel['per_cell_serial_seconds']:.2f}s   "
            f"seed-loop serial {parallel['seed_loop_serial_seconds']:.2f}s   "
            f"parallel {parallel['parallel_seconds']:.2f}s"
        )
        lines.append(
            f"  speedup {parallel['speedup']:.2f}x vs per-cell serial, "
            f"{parallel['speedup_vs_seed_loop']:.2f}x vs seed loop  "
            f"(rows bit-identical: {parallel['rows_equal']})"
        )
    return "\n".join(lines)
