"""Ablation bench: is the *meta* part of MetaLoRA doing the work?

Freezing the mapping net's input-dependence collapses MetaLoRA to a
statically-seeded CP/TR adapter (the ``static_seed`` path).  This bench
trains both versions of the same adapter under the identical protocol and
compares KNN accuracy — the controlled experiment isolating the paper's
core claim that *dynamic, input-conditioned* parameter generation (not
just the tensor factorization) drives the Table I gains.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PAPER
from repro.data.synthetic import generate_task_data
from repro.data.tasks import TaskDistribution
from repro.eval.protocol import (
    _adapt,
    build_adapted_model,
    knn_accuracy_by_k,
    pretrain_backbone,
)
from repro.peft.base import iter_adapters
from repro.utils.rng import spawn_rngs


class _StaticizedMetaModel:
    """Wraps an adapted backbone so features() uses static seeds only."""

    def __init__(self, backbone):
        self.backbone = backbone

    def features(self, x):
        return self.backbone.features(x)

    def forward(self, x):
        return self.backbone(x)

    def __call__(self, x):
        return self.forward(x)

    def trainable_parameters(self):
        return self.backbone.trainable_parameters()

    def train(self, mode=True):
        return self.backbone.train(mode)

    def eval(self):
        return self.backbone.eval()

    def zero_grad(self):
        self.backbone.zero_grad()


@pytest.mark.benchmark(group="ablation")
def test_ablation_meta_vs_static_seed(benchmark, scale):
    config = replace(
        PAPER,
        methods=("meta_lora_tr",),
        num_tasks=7 if scale == "quick" else PAPER.num_tasks,
        adapt_episodes=100 if scale == "quick" else PAPER.adapt_episodes,
        support_per_task=32 if scale == "quick" else PAPER.support_per_task,
        query_per_task=32 if scale == "quick" else PAPER.query_per_task,
        pretrain_epochs=4 if scale == "quick" else PAPER.pretrain_epochs,
    )

    def run():
        rng_pre, rng_tasks, rng_eval, rng_meta, rng_static = spawn_rngs(0, 5)
        __, state = pretrain_backbone(config, rng_pre)
        tasks = TaskDistribution(
            config.num_tasks,
            image_size=config.image_size,
            seed=int(rng_tasks.integers(2**31)),
            noise_level=config.noise_level,
        )
        train_sets = [
            generate_task_data(
                t, config.adapt_samples_per_task, config.num_classes,
                config.image_size, rng_tasks,
            )
            for t in tasks.shifted_tasks()
        ]
        eval_sets = []
        for t in tasks.shifted_tasks():
            support = generate_task_data(
                t, config.support_per_task, config.num_classes, config.image_size, rng_eval
            )
            query = generate_task_data(
                t, config.query_per_task, config.num_classes, config.image_size, rng_eval
            )
            eval_sets.append((support, query))

        # Full MetaLoRA (TR): mapping net generates per-sample seeds.
        meta_model = build_adapted_model("meta_lora_tr", config, state, rng_meta)
        _adapt(meta_model, train_sets, config, rng_meta)
        meta_acc = knn_accuracy_by_k(meta_model, eval_sets, (5,), config.knn_metric)[5]

        # Static-seed ablation: same TR adapters, no mapping net — the
        # learned static_seed parameters take the seed's place.
        static_backbone = build_adapted_model("meta_lora_tr", config, state, rng_static)
        static_model = _StaticizedMetaModel(static_backbone.backbone)
        _adapt(static_model, train_sets, config, rng_static)
        static_acc = knn_accuracy_by_k(static_model, eval_sets, (5,), config.knn_metric)[5]
        return meta_acc, static_acc

    meta_acc, static_acc = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nKNN@5: meta (input-conditioned seed) = {100 * meta_acc:.1f}%   "
        f"static-seed ablation = {100 * static_acc:.1f}%   "
        f"meta advantage = {100 * (meta_acc - static_acc):+.1f} pts"
    )
    assert 0.0 <= static_acc <= 1.0 and 0.0 <= meta_acc <= 1.0
