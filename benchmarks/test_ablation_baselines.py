"""Ablation bench: the wider static-PEFT landscape at matched budgets.

The related-work section situates MetaLoRA against the broader adapter
family.  This bench trains every *static* adapter the library ships —
LoRA, TT-LoRA (the LoRETTA family), DoRA and bottleneck adapter tuning —
on the same mixer-style task mixture over linear layers, and reports KNN
accuracy next to each adapter's trainable budget.  The point the table
makes: the static variants cluster together, because no amount of static
parameterization confers input-conditioned adaptation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PAPER_MIXER
from repro.data.synthetic import generate_task_data
from repro.data.tasks import TaskDistribution
from repro.eval.protocol import _adapt, build_backbone, knn_accuracy_by_k, pretrain_backbone
from repro.nn.linear import Linear
from repro.peft import attach
from repro.utils.rng import spawn_rngs

#: registry method names, all at rank 4 (bottleneck width 4)
ADAPTERS = ("lora", "tt_lora", "dora", "bottleneck")


@pytest.mark.benchmark(group="ablation")
def test_ablation_static_baselines(benchmark, scale):
    config = replace(
        PAPER_MIXER,
        num_tasks=7 if scale == "quick" else PAPER_MIXER.num_tasks,
        adapt_episodes=100 if scale == "quick" else PAPER_MIXER.adapt_episodes,
        support_per_task=32 if scale == "quick" else PAPER_MIXER.support_per_task,
        query_per_task=32 if scale == "quick" else PAPER_MIXER.query_per_task,
        pretrain_epochs=4 if scale == "quick" else PAPER_MIXER.pretrain_epochs,
    )

    def run():
        rng_pre, rng_tasks, rng_eval, *adapter_rngs = spawn_rngs(0, 3 + len(ADAPTERS))
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

        results = {}
        for name, rng in zip(ADAPTERS, adapter_rngs):
            model = build_backbone(config, rng)
            model.load_state_dict(state)
            attach(model, name, rank=4, targets=(Linear,), rng=rng)
            _adapt(model, train_sets, config, rng)
            accuracy = knn_accuracy_by_k(model, eval_sets, (5,), config.knn_metric)[5]
            budget = model.parameter_count(trainable_only=True)
            results[name] = (accuracy, budget)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{'adapter':<12} {'KNN@5':>7}  {'trainable':>10}")
    for name, (accuracy, budget) in results.items():
        print(f"{name:<12} {100 * accuracy:>6.1f}%  {budget:>10,}")
    accuracies = [accuracy for accuracy, __ in results.values()]
    assert all(a > 1.0 / config.num_classes for a in accuracies)
    # Static variants cluster: max spread far below the meta-vs-original gap.
    spread = max(accuracies) - min(accuracies)
    print(f"static-family spread: {100 * spread:.1f} pts")
