"""Extension bench: MetaLoRA on a transformer (Sec. III-E future work).

The paper's discussion points at transformer architectures as the natural
next target.  This bench quantifies the extension: the same Table-1-style
protocol on a TinyViT, comparing static LoRA, prefix tuning (the classic
transformer PEFT), and MetaLoRA (TR) on attention + MLP projections.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PAPER
from repro.data.synthetic import generate_task_data
from repro.data.tasks import TaskDistribution
from repro.eval.protocol import _adapt, knn_accuracy_by_k
from repro.models import FeatureExtractor, MultiHeadSelfAttention, vit_small
from repro.nn.linear import Linear
from repro.peft import MetaLoRAModel, PrefixTuningAttention, attach
from repro.train import Adam, Trainer
from repro.utils.rng import spawn_rngs


@pytest.mark.benchmark(group="extension")
def test_extension_metalora_on_vit(benchmark, scale):
    config = replace(
        PAPER,
        num_tasks=7 if scale == "quick" else 11,
        adapt_episodes=100 if scale == "quick" else 300,
        support_per_task=32 if scale == "quick" else PAPER.support_per_task,
        query_per_task=32 if scale == "quick" else PAPER.query_per_task,
    )

    def run():
        rng_pre, rng_tasks, rng_eval, rng_lora, rng_prefix, rng_meta = spawn_rngs(0, 6)
        tasks = TaskDistribution(
            config.num_tasks, image_size=config.image_size,
            seed=3, noise_level=config.noise_level,
        )
        base_data = generate_task_data(
            tasks.base_task, config.pretrain_samples, config.num_classes,
            config.image_size, rng_pre,
        )
        vit = vit_small(config.num_classes, rng_pre)
        Trainer(vit, Adam(vit.parameters(), lr=config.pretrain_lr)).fit(
            base_data.images, base_data.labels,
            epochs=config.pretrain_epochs, batch_size=config.pretrain_batch,
            rng=rng_pre,
        )
        state = vit.state_dict()

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

        def fresh():
            model = vit_small(config.num_classes, rng_pre)
            model.load_state_dict(state)
            return model

        results = {}

        frozen = fresh()
        frozen.freeze()
        results["frozen"] = knn_accuracy_by_k(frozen, eval_sets, (5,), config.knn_metric)[5]

        lora = fresh()
        attach(lora, "lora", rank=config.rank, targets=(Linear,), rng=rng_lora)
        _adapt(lora, train_sets, config, rng_lora)
        results["lora"] = knn_accuracy_by_k(lora, eval_sets, (5,), config.knn_metric)[5]

        prefix = fresh()
        # Prefix tuning has no rank: attach with an explicit factory.
        attach(
            prefix,
            lambda m: PrefixTuningAttention(m, prefix_length=4, rng=rng_prefix),
            targets=(MultiHeadSelfAttention,),
        )
        _adapt(prefix, train_sets, config, rng_prefix)
        results["prefix"] = knn_accuracy_by_k(prefix, eval_sets, (5,), config.knn_metric)[5]

        meta_backbone = fresh()
        meta_result = attach(
            meta_backbone, "meta_tr", rank=config.rank, targets=(Linear,), rng=rng_meta
        )
        extractor_backbone = fresh()
        meta = MetaLoRAModel(
            meta_backbone, FeatureExtractor(extractor_backbone),
            mapping_hidden=config.mapping_hidden, rng=rng_meta, adapters=meta_result,
        )
        _adapt(meta, train_sets, config, rng_meta)
        results["meta_lora_tr"] = knn_accuracy_by_k(meta, eval_sets, (5,), config.knn_metric)[5]
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{'method':<14} {'KNN@5':>7}")
    for name, accuracy in results.items():
        print(f"{name:<14} {100 * accuracy:>6.1f}%")
    assert results["meta_lora_tr"] > results["frozen"]
    assert results["lora"] > results["frozen"]
