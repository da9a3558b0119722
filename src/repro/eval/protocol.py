"""The Table I experiment protocol.

Pipeline (mirroring the paper's preliminary study):

1. **Pre-train** a backbone (ResNet or MLP-Mixer) on the base task — the
   stand-in for the upstream pre-trained model.
2. **Adapt** one copy per method on an episodic mixture of shifted tasks:
   Original (no adaptation), LoRA, Multi-LoRA, Meta-LoRA CP, Meta-LoRA TR.
   Only adapter parameters train; the backbone stays frozen.
3. **Evaluate** by KNN over embeddings: per shifted task, fit a KNN on a
   support split and classify a query split, at K=5 and K=10; report the
   mean accuracy over tasks.

``run_table1`` executes one seed; the Table I bench repeats it over seeds
and applies the two-sided t-test, reproducing the table's ``*`` markers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.synthetic import SyntheticTaskData, generate_task_data
from repro.data.tasks import TaskDistribution
from repro.errors import ConfigError
from repro.eval.embeddings import extract_embeddings
from repro.eval.knn import KNNClassifier
from repro.models.feature_extractor import FeatureExtractor
from repro.nn.module import Module
from repro.peft.api import PEFT_METHODS, attach
from repro.peft.meta_model import MetaLoRAModel
from repro.train.optim import Adam
from repro.train.meta_trainer import MetaTrainer
from repro.train.trainer import Trainer
from repro.utils.rng import spawn_rngs

METHODS = ("original", "lora", "multi_lora", "meta_lora_cp", "meta_lora_tr")

#: Pretty names matching the rows of Table I.
METHOD_LABELS = {
    "original": "Original",
    "lora": "LoRA",
    "multi_lora": "Multi-LoRA",
    "meta_lora_cp": "Meta-LoRA CP",
    "meta_lora_tr": "Meta-LoRA TR",
}


@dataclass
class Table1Config:
    """All knobs of the Table I experiment; defaults are CPU-quick."""

    backbone: str = "resnet"  # "resnet" | "mixer"
    num_tasks: int = 21  # base task + (num_tasks - 1) shifted tasks
    num_classes: int = 8
    image_size: int = 16
    rank: int = 4
    branches: int = 3  # Multi-LoRA branch count
    mapping_hidden: int = 32
    resnet_channels: tuple[int, ...] = (4, 8, 16)
    mixer_hidden: int = 16
    pretrain_samples: int = 512
    pretrain_epochs: int = 6
    pretrain_batch: int = 32
    pretrain_lr: float = 3e-3
    adapt_samples_per_task: int = 64
    adapt_episodes: int = 600
    adapt_batch: int = 16
    adapt_lr: float = 3e-3
    support_per_task: int = 64
    query_per_task: int = 64
    ks: tuple[int, ...] = (5, 10)
    noise_level: float = 0.5
    knn_metric: str = "cosine"
    methods: tuple[str, ...] = METHODS

    def __post_init__(self) -> None:
        if self.backbone not in ("resnet", "mixer"):
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.num_tasks < 2:
            raise ConfigError("need the base task plus at least one shifted task")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")

    def quick(self) -> "Table1Config":
        """A miniature copy for integration tests."""
        return replace(
            self,
            num_tasks=3,
            num_classes=4,
            pretrain_samples=128,
            pretrain_epochs=2,
            adapt_samples_per_task=48,
            adapt_episodes=20,
            support_per_task=20,
            query_per_task=20,
        )


@dataclass
class Table1Row:
    """One method's accuracies, keyed by K."""

    method: str
    accuracy_by_k: dict[int, float] = field(default_factory=dict)


def build_backbone(config: Table1Config, rng: np.random.Generator) -> Module:
    """Fresh, randomly initialized backbone of the configured architecture.

    Widths are deliberately small (see DESIGN.md): beyond CPU economy, a
    narrow backbone prevents static adapters from doing task inference
    internally, which is the regime where the paper's comparison is
    meaningful.
    """
    if config.backbone == "resnet":
        from repro.models.resnet import ResNet

        return ResNet(
            in_channels=3,
            stage_channels=config.resnet_channels,
            blocks_per_stage=1,
            num_classes=config.num_classes,
            rng=rng,
        )
    from repro.models.mlp_mixer import MLPMixer

    return MLPMixer(
        image_size=config.image_size,
        patch_size=4,
        in_channels=3,
        hidden_dim=config.mixer_hidden,
        token_mlp_dim=config.mixer_hidden,
        channel_mlp_dim=config.mixer_hidden * 2,
        depth=2,
        num_classes=config.num_classes,
        rng=rng,
    )


def pretrain_backbone(
    config: Table1Config, rng: np.random.Generator
) -> tuple[Module, dict[str, np.ndarray]]:
    """Train a backbone on the base task; returns it plus its state dict."""
    tasks = TaskDistribution(
        config.num_tasks,
        image_size=config.image_size,
        seed=int(rng.integers(2**31)),
        noise_level=config.noise_level,
    )
    data = generate_task_data(
        tasks.base_task, config.pretrain_samples, config.num_classes, config.image_size, rng
    )
    backbone = build_backbone(config, rng)
    trainer = Trainer(backbone, Adam(backbone.parameters(), lr=config.pretrain_lr))
    trainer.fit(
        data.images,
        data.labels,
        epochs=config.pretrain_epochs,
        batch_size=config.pretrain_batch,
        rng=rng,
    )
    backbone.eval()
    return backbone, backbone.state_dict()


def build_adapted_model(
    method: str,
    config: Table1Config,
    pretrained_state: dict[str, np.ndarray],
    rng: np.random.Generator,
    extractor_state: dict[str, np.ndarray] | None = None,
) -> Module:
    """A fresh copy of the pretrained backbone wearing ``method``'s adapters.

    For meta methods the returned module is a :class:`MetaLoRAModel`.  The
    feature extractor follows the paper (Sec. III-B.1): a frozen
    *pre-trained ResNet*, regardless of the adapted backbone's
    architecture.  ``extractor_state`` supplies that ResNet's weights;
    when omitted (and the backbone is a ResNet) the backbone's own
    pretrained state is reused.
    """
    backbone = build_backbone(config, rng)
    backbone.load_state_dict(pretrained_state)

    if method == "original":
        backbone.freeze()
        return backbone

    if method not in PEFT_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    options = {"branches": config.branches} if method == "multi_lora" else {}
    result = attach(backbone, method, rank=config.rank, rng=rng, **options)
    if result.is_meta:
        resnet_config = replace(config, backbone="resnet")
        extractor_backbone = build_backbone(resnet_config, rng)
        if extractor_state is not None:
            extractor_backbone.load_state_dict(extractor_state)
        elif config.backbone == "resnet":
            extractor_backbone.load_state_dict(pretrained_state)
        else:
            raise ConfigError(
                "meta methods on a non-ResNet backbone need extractor_state "
                "(the pretrained ResNet feature source, per Sec. III-B.1)"
            )
        extractor = FeatureExtractor(extractor_backbone)
        return MetaLoRAModel(
            backbone,
            extractor,
            mapping_hidden=config.mapping_hidden,
            rng=rng,
            adapters=result,
        )
    return backbone


def _adapt(
    model: Module,
    task_datasets: list[SyntheticTaskData],
    config: Table1Config,
    rng: np.random.Generator,
) -> None:
    """Episodic adapter training; 'original' (nothing trainable) is a no-op."""
    trainable = list(model.trainable_parameters())
    if not trainable:
        return
    trainer = Trainer(model, Adam(trainable, lr=config.adapt_lr), grad_clip=5.0)
    MetaTrainer(trainer, task_datasets).run(
        episodes=config.adapt_episodes, batch_size=config.adapt_batch, rng=rng
    )
    model.eval()


def knn_accuracy_by_k(
    model: Module,
    eval_sets: list[tuple[SyntheticTaskData, SyntheticTaskData]],
    ks: tuple[int, ...],
    metric: str,
) -> dict[int, float]:
    """Mean per-task KNN accuracy at each ``k``: fit on support, score on query.

    Each eval set's support and query are embedded, and the classifier
    fit, once; every ``k`` scores those same embeddings.
    """
    scores: dict[int, list[float]] = {k: [] for k in ks}
    for support, query in eval_sets:
        knn = KNNClassifier(metric=metric).fit(
            extract_embeddings(model, support.images), support.labels
        )
        queries = extract_embeddings(model, query.images)
        for k in ks:
            scores[k].append(knn.score(queries, query.labels, k))
    return {k: float(np.mean(per_task)) for k, per_task in scores.items()}


@dataclass
class Table1SeedContext:
    """Everything a ``(method, seed)`` cell shares within one seed.

    Produced once per seed by :func:`prepare_table1_seed` — the pretrained
    backbone state, the (pretrained-ResNet) feature-extractor state and
    the frozen task splits — then consumed by any number of
    :func:`run_table1_cell` calls.  The fields are plain numpy containers,
    so a context pickles cleanly to process-pool workers
    (:mod:`repro.runtime`), which deserialize the shared frozen backbone
    instead of redoing pretraining per cell.
    """

    seed: int
    state: dict[str, np.ndarray]
    extractor_state: dict[str, np.ndarray]
    train_sets: list[SyntheticTaskData]
    eval_sets: list[tuple[SyntheticTaskData, SyntheticTaskData]]


def _protocol_rngs(config: Table1Config, seed: int) -> list[np.random.Generator]:
    """The seed's RNG fan-out: pretrain, tasks, eval, then one per method.

    Spawned in one call so every consumer — serial loop or pool worker —
    derives bit-identical streams from ``(seed, position)`` alone.  (The
    historical count of ``4 + len(methods)`` leaves one spare stream; it
    is kept so existing seeds keep reproducing bit-identically.)
    """
    return spawn_rngs(seed, 4 + len(config.methods))


def method_rng(config: Table1Config, seed: int, method: str) -> np.random.Generator:
    """The cell-keyed RNG for ``(method, seed)`` — position 3 + method index."""
    if method not in config.methods:
        raise ConfigError(f"method {method!r} not in config.methods")
    return _protocol_rngs(config, seed)[3 + config.methods.index(method)]


def prepare_table1_seed(config: Table1Config, seed: int) -> Table1SeedContext:
    """Pretrain the backbone and freeze the task splits for one seed."""
    rng_pretrain, rng_tasks, rng_eval = _protocol_rngs(config, seed)[:3]

    __, state = pretrain_backbone(config, rng_pretrain)
    if config.backbone == "resnet":
        extractor_state = state
    else:
        # The paper's feature extractor is a pre-trained ResNet regardless
        # of the adapted architecture (Sec. III-B.1).
        __, extractor_state = pretrain_backbone(
            replace(config, backbone="resnet"), rng_pretrain
        )

    tasks = TaskDistribution(
        config.num_tasks,
        image_size=config.image_size,
        seed=int(rng_tasks.integers(2**31)),
        noise_level=config.noise_level,
    )
    train_sets = [
        generate_task_data(
            task, config.adapt_samples_per_task, config.num_classes, config.image_size, rng_tasks
        )
        for task in tasks.shifted_tasks()
    ]
    eval_sets = []
    for task in tasks.shifted_tasks():
        support = generate_task_data(
            task, config.support_per_task, config.num_classes, config.image_size, rng_eval
        )
        query = generate_task_data(
            task, config.query_per_task, config.num_classes, config.image_size, rng_eval
        )
        eval_sets.append((support, query))
    return Table1SeedContext(
        seed=seed,
        state=state,
        extractor_state=extractor_state,
        train_sets=train_sets,
        eval_sets=eval_sets,
    )


def train_table1_model(
    config: Table1Config, context: Table1SeedContext, method: str
) -> Module:
    """Build and episodically adapt ``method``'s model on the seed's splits.

    The training half of :func:`run_table1_cell`, shared with the
    robustness grid (which trains once per ``(seed, method)`` and
    evaluates the resulting weights across every corruption cell).  All
    randomness derives from ``(context.seed, method)`` via
    :func:`method_rng`, so the trained weights are bit-identical wherever
    and whenever this runs.
    """
    rng = method_rng(config, context.seed, method)
    model = build_adapted_model(
        method, config, context.state, rng, extractor_state=context.extractor_state
    )
    _adapt(model, context.train_sets, config, rng)
    return model


def run_table1_cell(
    config: Table1Config, context: Table1SeedContext, method: str
) -> Table1Row:
    """One independent Table I cell: adapt ``method`` on the seed's splits.

    The cell's RNG is derived from ``(context.seed, method)`` alone, so
    executing cells in any order — or in separate processes — yields
    results bit-identical to the serial :func:`run_table1` loop.
    """
    model = train_table1_model(config, context, method)
    return Table1Row(
        method=method,
        accuracy_by_k=knn_accuracy_by_k(
            model, context.eval_sets, config.ks, config.knn_metric
        ),
    )


def run_table1(config: Table1Config, seed: int) -> dict[str, Table1Row]:
    """One full Table I run (all methods) at ``seed``.

    Every method sees the same pretrained weights, the same task
    distribution, the same adaptation stream order (per-method RNGs are
    spawned from the same root) and the same evaluation splits.  The
    parallel grid runner (:func:`repro.runtime.run_table1_grid`) executes
    the same :func:`prepare_table1_seed` + :func:`run_table1_cell`
    pipeline across processes, bit-identically.
    """
    context = prepare_table1_seed(config, seed)
    return {
        method: run_table1_cell(config, context, method)
        for method in config.methods
    }


def format_table1(rows_by_seed: list[dict[str, Table1Row]], config: Table1Config) -> str:
    """Render mean accuracies over seeds in the paper's row/column layout.

    Tolerates **partial** grids (the graceful-degradation path of
    ``repro table1``): a method with no completed cell renders as
    ``FAILED``, and a method missing from some seeds gets a ``*`` marker
    plus a footnote saying how many seeds its mean covers.
    """
    lines = [
        f"Backbone: {config.backbone}   (mean over {len(rows_by_seed)} seed(s))",
        "Method        " + "".join(f"  K={k:<6}" for k in config.ks),
    ]
    partial: list[str] = []
    for method in config.methods:
        present = [rows[method] for rows in rows_by_seed if method in rows]
        if not present:
            cells = [f"  {'FAILED':>7}" for __ in config.ks]
        else:
            marker = "*" if len(present) < len(rows_by_seed) else ""
            cells = [
                f"  {100 * float(np.mean([row.accuracy_by_k[k] for row in present])):6.2f}%{marker}"
                for k in config.ks
            ]
            if marker:
                partial.append(
                    f"  * {METHOD_LABELS[method]}: mean over "
                    f"{len(present)}/{len(rows_by_seed)} seeds "
                    f"({len(rows_by_seed) - len(present)} cell(s) failed)"
                )
        lines.append(f"{METHOD_LABELS[method]:<14}" + "".join(cells))
    lines.extend(partial)
    return "\n".join(lines)
