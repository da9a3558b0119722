"""Robustness-under-shift evaluation protocol.

Extends the Table I claim to a new axis: how gracefully does each
adaptation method degrade when the *inputs* shift — blur, noise,
occlusion, photometric drift, retina-warp — rather than the task?  The
protocol reuses the Table I pipeline end to end:

1. **Train** exactly as Table I does: per ``(seed, method)``, pretrain
   the backbone (:func:`~repro.eval.protocol.prepare_table1_seed`) and
   episodically adapt the method's model
   (:func:`~repro.eval.protocol.train_table1_model`) on *clean* data.
   All randomness is key-derived, so the trained weights are
   bit-identical to the Table I cell's.
2. **Evaluate under shift**: per ``(corruption, severity)`` cell, corrupt
   the *query* split of every evaluation task (support stays clean — the
   deployment regime where references were collected before the shift)
   with the cell's child generator
   (:func:`repro.data.corruptions.corruption_rng`) and score the same
   KNN protocol.  Severity 0 applies no corruption at all (the corruption
   layer returns the untouched arrays), so severity-0 cells are
   bit-identical to the clean Table I evaluation — the pin the benchmark
   asserts.
3. **Summarize**: per-method degradation slope (least squares of accuracy
   against severity) and the MetaLoRA-vs-static-LoRA delta on corrupted
   cells, the headline number.

The streaming variant (:func:`run_robustness_stream`) drives a
:class:`~repro.data.stream.TaskStream` through a drifting corruption
schedule and measures per-step re-fit latency and accuracy — the
"dynamic task requirements" regime of the paper's abstract with input
shift layered on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.corruptions import (
    CORRUPTIONS,
    DEFAULT_CORRUPTIONS,
    SEVERITIES,
    corruption_rng,
    get_corruption,
)
from repro.data.stream import TaskStream
from repro.data.synthetic import SyntheticTaskData
from repro.data.tasks import TaskDistribution
from repro.errors import ConfigError
from repro.eval.embeddings import extract_embeddings
from repro.eval.knn import KNNClassifier
from repro.eval.protocol import (
    Table1Config,
    Table1SeedContext,
    build_adapted_model,
    knn_accuracy_by_k,
    method_rng,
    prepare_table1_seed,
    train_table1_model,
)
from repro.nn.module import Module


@dataclass
class RobustnessConfig:
    """Knobs of the robustness grid; wraps a full :class:`Table1Config`.

    The nested ``table1`` config pins the training half bit-identically to
    the clean protocol; this layer only adds the shift axes and the
    streaming-drift schedule.
    """

    table1: Table1Config = field(default_factory=Table1Config)
    #: Shift-type axis (names from :data:`repro.data.corruptions.CORRUPTIONS`).
    corruptions: tuple[str, ...] = DEFAULT_CORRUPTIONS
    #: Severity axis; keep 0 first so every run carries its clean pin.
    severities: tuple[int, ...] = (0, 1, 3, 5)
    #: Steps of the streaming-drift variant.
    stream_steps: int = 12
    #: Methods the streaming variant compares (subset of table1.methods).
    stream_methods: tuple[str, ...] = ("lora", "meta_lora_cp")

    def __post_init__(self) -> None:
        unknown = set(self.corruptions) - set(CORRUPTIONS)
        if unknown:
            raise ConfigError(f"unknown corruptions: {sorted(unknown)}")
        if not self.corruptions:
            raise ConfigError("need at least one corruption")
        bad = [s for s in self.severities if s not in SEVERITIES]
        if bad:
            raise ConfigError(
                f"severities must be drawn from {SEVERITIES}, got {bad}"
            )
        if len(set(self.severities)) != len(self.severities):
            raise ConfigError(f"duplicate severities: {self.severities}")
        if not self.severities:
            raise ConfigError("need at least one severity")
        if self.stream_steps < 2:
            raise ConfigError("stream_steps must be at least 2")
        missing = set(self.stream_methods) - set(self.table1.methods)
        if missing:
            raise ConfigError(
                f"stream_methods not in table1.methods: {sorted(missing)}"
            )

    def quick(self) -> "RobustnessConfig":
        """A miniature copy for integration tests."""
        return replace(self, table1=self.table1.quick())


@dataclass
class RobustnessCell:
    """One grid cell: a method's accuracies under one shift."""

    method: str
    corruption: str
    severity: int
    accuracy_by_k: dict[int, float] = field(default_factory=dict)


@dataclass
class RobustnessSeedContext:
    """Shared state of every corruption cell of one ``(seed, method)``.

    Carries the trained adapter weights (``trained_state``) next to the
    Table I seed context they were trained in; cells rebuild the model
    from both and only pay for evaluation.  ``table1.train_sets`` is
    emptied before shipping — corruption cells never train.
    """

    seed: int
    method: str
    table1: Table1SeedContext
    trained_state: dict[str, np.ndarray]


def prepare_robustness_context(
    config: RobustnessConfig, seed: int, method: str
) -> RobustnessSeedContext:
    """Pretrain, adapt, and freeze everything one ``(seed, method)`` needs.

    The training path is byte-for-byte the Table I one, so
    ``trained_state`` is exactly the weights the clean protocol would
    evaluate.
    """
    context = prepare_table1_seed(config.table1, seed)
    model = train_table1_model(config.table1, context, method)
    slim = Table1SeedContext(
        seed=context.seed,
        state=context.state,
        extractor_state=context.extractor_state,
        train_sets=[],
        eval_sets=context.eval_sets,
    )
    return RobustnessSeedContext(
        seed=seed, method=method, table1=slim, trained_state=model.state_dict()
    )


def _rebuild_model(config: RobustnessConfig, context: RobustnessSeedContext) -> Module:
    """The trained model, reconstructed exactly from the context.

    ``build_adapted_model`` with the cell-keyed RNG recreates the module
    tree (including adapter wiring); loading ``trained_state`` then
    overwrites every parameter and buffer with the trained values, so the
    rebuilt model is bit-identical to the one training returned.
    """
    rng = method_rng(config.table1, context.seed, context.method)
    model = build_adapted_model(
        context.method,
        config.table1,
        context.table1.state,
        rng,
        extractor_state=context.table1.extractor_state,
    )
    model.load_state_dict(context.trained_state)
    model.eval()
    return model


def corrupt_eval_sets(
    eval_sets: list[tuple[SyntheticTaskData, SyntheticTaskData]],
    corruption: str,
    severity: int,
    rng: np.random.Generator,
) -> list[tuple[SyntheticTaskData, SyntheticTaskData]]:
    """Corrupt every query split; support splits stay clean.

    At severity 0 the corruption layer returns the untouched arrays, so
    the result is structurally identical to the input — the severity-0
    bit-identity pin.
    """
    transform = get_corruption(corruption, severity)
    corrupted = []
    for support, query in eval_sets:
        images = transform.apply(query.images, rng)
        corrupted.append((support, replace(query, images=images)))
    return corrupted


def run_robustness_cell(
    config: RobustnessConfig,
    context: RobustnessSeedContext,
    corruption: str,
    severity: int,
) -> RobustnessCell:
    """One grid cell: score the trained adapter under one shift.

    All cell randomness comes from
    ``corruption_rng(seed, corruption, severity)`` — independent of every
    training stream and of execution order, so cells are bit-identical
    across processes, resumes, and interleavings.
    """
    model = _rebuild_model(config, context)
    rng = corruption_rng(context.seed, corruption, severity)
    eval_sets = corrupt_eval_sets(
        context.table1.eval_sets, corruption, severity, rng
    )
    return RobustnessCell(
        method=context.method,
        corruption=corruption,
        severity=int(severity),
        accuracy_by_k=knn_accuracy_by_k(
            model, eval_sets, config.table1.ks, config.table1.knn_metric
        ),
    )


def degradation_slope(severities: list[int], accuracies: list[float]) -> float:
    """Least-squares slope of accuracy against severity.

    The per-method degradation rate: accuracy lost per severity rung
    (negative = degrades).  Needs at least two distinct severities.
    """
    if len(severities) != len(accuracies) or len(severities) < 2:
        raise ConfigError(
            "degradation_slope needs matching lists of at least two points"
        )
    xs = np.asarray(severities, dtype=np.float64)
    ys = np.asarray(accuracies, dtype=np.float64)
    if np.ptp(xs) == 0:
        raise ConfigError("degradation_slope needs at least two severities")
    xc = xs - xs.mean()
    return float((xc @ (ys - ys.mean())) / (xc @ xc))


def format_robustness_grid(
    config: RobustnessConfig, seeds: tuple[int, ...], cells: dict
) -> str:
    """Render mean accuracies per (method, corruption, severity).

    ``cells`` maps ``(seed, method, corruption, severity)`` to
    :class:`RobustnessCell`.  Tolerates partial grids (the
    graceful-degradation path of ``repro robustness``): missing cells
    render as ``--``, and a per-method degradation slope is shown when
    every severity has data.
    """
    table1 = config.table1
    severities = list(config.severities)
    lines = [
        f"Backbone: {table1.backbone}   (mean over {len(seeds)} seed(s), "
        f"K={list(table1.ks)})"
    ]
    for corruption in config.corruptions:
        lines.append(f"\n{corruption}:")
        lines.append(
            f"{'method':<14}" + "".join(f"  sev {s:<5}" for s in severities)
            + "  slope"
        )
        for method in table1.methods:
            row = [f"{method:<14}"]
            means = []
            for severity in severities:
                values = [
                    cells[(seed, method, corruption, severity)].accuracy_by_k[k]
                    for seed in seeds
                    for k in table1.ks
                    if (seed, method, corruption, severity) in cells
                ]
                if values:
                    mean = float(np.mean(values))
                    means.append(mean)
                    row.append(f"  {100 * mean:6.2f}%")
                else:
                    means.append(None)
                    row.append(f"  {'--':>7}")
            if None not in means and len(set(severities)) >= 2:
                slope = degradation_slope(severities, means)
                row.append(f"  {slope:+.4f}")
            lines.append("".join(row))
    return "\n".join(lines)


def run_robustness_stream(config: RobustnessConfig, seed: int) -> dict:
    """The streaming-drift variant: per-step re-fit latency and accuracy.

    Drives a :class:`~repro.data.stream.TaskStream` (task styles drift
    between anchors) through a corruption schedule that drifts with it —
    severity cycles through ``config.severities`` within each corruption,
    corruptions rotate as the stream progresses.  At every step the
    method *re-fits* its KNN references on the step's (corrupted) support
    split — the adaptation act — and is scored on the (corrupted) query
    split; the re-fit wall-clock (embed support + fit) is measured.

    Accuracies are deterministic functions of ``(config, seed)``;
    latencies are wall-clock measurements and vary run to run.
    """
    table1 = config.table1
    context = prepare_table1_seed(table1, seed)

    stream_rng = corruption_rng(seed, "__stream__", 0)
    tasks = TaskDistribution(
        table1.num_tasks,
        image_size=table1.image_size,
        seed=int(stream_rng.integers(2**31)),
        noise_level=table1.noise_level,
    )
    samples = table1.support_per_task + table1.query_per_task
    stream = TaskStream(
        tasks, table1.num_classes, samples, segment_length=4, rng=stream_rng
    )
    steps = list(stream.steps(config.stream_steps))

    severities = tuple(config.severities)
    corruptions = tuple(config.corruptions)
    schedule = []
    for step in steps:
        corruption = corruptions[(step.step // len(severities)) % len(corruptions)]
        severity = severities[step.step % len(severities)]
        schedule.append((corruption, int(severity)))

    k = table1.ks[0]
    methods: dict[str, dict] = {}
    for method in config.stream_methods:
        model = train_table1_model(table1, context, method)
        step_records = []
        for step, (corruption, severity) in zip(steps, schedule):
            transform = get_corruption(corruption, severity)
            rng = corruption_rng(seed, f"stream{step.step}:{corruption}", severity)
            support, query = step.data.split(table1.support_per_task)
            support_images = transform.apply(support.images, rng)
            query_images = transform.apply(query.images, rng)
            start = time.perf_counter()
            knn = KNNClassifier(metric=table1.knn_metric).fit(
                extract_embeddings(model, support_images), support.labels
            )
            refit_latency = time.perf_counter() - start
            accuracy = knn.score(
                extract_embeddings(model, query_images), query.labels, k
            )
            step_records.append(
                {
                    "step": step.step,
                    "corruption": corruption,
                    "severity": severity,
                    "accuracy": float(accuracy),
                    "refit_latency_s": float(refit_latency),
                }
            )
        methods[method] = {
            "steps": step_records,
            "mean_accuracy": float(
                np.mean([r["accuracy"] for r in step_records])
            ),
            "mean_refit_latency_s": float(
                np.mean([r["refit_latency_s"] for r in step_records])
            ),
        }
    return {
        "seed": int(seed),
        "steps": int(config.stream_steps),
        "k": int(k),
        "methods": methods,
    }
