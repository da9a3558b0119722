"""Bench: generalization to **unseen task variations** (Sec. I's claim).

The introduction motivates MetaLoRA with static adapters' "limited
dynamic adaptability ... particularly when handling previously unseen
task variations".  This bench tests that claim directly:

- adapters train on one family of shifted tasks;
- evaluation uses a *disjoint* family drawn from the same distribution
  (new color directions, tints, shifts — styles never seen in training);
- KNN accuracy on the unseen tasks measures zero-shot task transfer.

A static adapter can only reuse its one learned compromise; MetaLoRA
infers each unseen task's style from the input and generates a fresh
ΔW — so the meta variants should degrade less from seen → unseen.
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
from repro.utils.rng import spawn_rngs

METHODS = ("lora", "multi_lora", "meta_lora_tr")


@pytest.mark.benchmark(group="unseen")
def test_unseen_task_generalization(benchmark, scale):
    config = replace(
        PAPER,
        methods=METHODS,
        num_tasks=7 if scale == "quick" else PAPER.num_tasks,
        adapt_episodes=100 if scale == "quick" else PAPER.adapt_episodes,
        support_per_task=32 if scale == "quick" else PAPER.support_per_task,
        query_per_task=32 if scale == "quick" else PAPER.query_per_task,
        pretrain_epochs=4 if scale == "quick" else PAPER.pretrain_epochs,
    )

    def make_eval_sets(tasks, rng):
        sets = []
        for task in tasks.shifted_tasks():
            support = generate_task_data(
                task, config.support_per_task, config.num_classes, config.image_size, rng
            )
            query = generate_task_data(
                task, config.query_per_task, config.num_classes, config.image_size, rng
            )
            sets.append((support, query))
        return sets

    def run():
        rng_pre, rng_tasks, rng_eval, *method_rngs = spawn_rngs(0, 3 + len(METHODS))
        __, state = pretrain_backbone(config, rng_pre)

        seen = TaskDistribution(
            config.num_tasks, image_size=config.image_size,
            seed=11, noise_level=config.noise_level,
        )
        unseen = TaskDistribution(
            config.num_tasks, image_size=config.image_size,
            seed=99, noise_level=config.noise_level,
        )
        train_sets = [
            generate_task_data(
                t, config.adapt_samples_per_task, config.num_classes,
                config.image_size, rng_tasks,
            )
            for t in seen.shifted_tasks()
        ]
        seen_eval = make_eval_sets(seen, rng_eval)
        unseen_eval = make_eval_sets(unseen, rng_eval)

        results = {}
        for method, rng in zip(METHODS, method_rngs):
            model = build_adapted_model(method, config, state, rng)
            _adapt(model, train_sets, config, rng)
            seen_acc = knn_accuracy_by_k(model, seen_eval, (5,), config.knn_metric)[5]
            unseen_acc = knn_accuracy_by_k(model, unseen_eval, (5,), config.knn_metric)[5]
            results[method] = (seen_acc, unseen_acc)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{'method':<14} {'seen':>7}  {'unseen':>7}  {'drop':>6}")
    for method, (seen_acc, unseen_acc) in results.items():
        print(
            f"{method:<14} {100 * seen_acc:>6.1f}%  {100 * unseen_acc:>6.1f}%  "
            f"{100 * (seen_acc - unseen_acc):>5.1f}"
        )
    for seen_acc, unseen_acc in results.values():
        assert 0.0 <= unseen_acc <= 1.0
        assert unseen_acc > 1.0 / config.num_classes  # above chance zero-shot
