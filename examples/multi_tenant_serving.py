"""Multi-tenant adapter serving: one engine, many named adapters.

Three tenants share one ``MultiTenantEngine``: a merged static-LoRA
tenant and two MetaLoRA seed-slot tenants that share a backbone but
carry tenant-specific mapping networks.  The walkthrough covers the
full lifecycle — register, heterogeneous ``serve`` (seed-slot tenants
stack into shared extractor/body runs), the queued path through a
``BatchScheduler``, hot-swapping a retrained tenant, checkpoint-based registration, and
the per-tenant metrics the engine exports.  Everything speaks the typed
``ServeRequest``/``ServeResult`` surface (see docs/serving.md).

Run:  python examples/multi_tenant_serving.py   (a few seconds)
"""

import tempfile

import numpy as np

from repro.models import FeatureExtractor, resnet_small
from repro.peft import MetaLoRAModel, attach, save_adapter
from repro.serve import (
    BatchScheduler,
    MultiTenantEngine,
    ServeRequest,
    build_engine,
)
from repro.utils.rng import new_rng

NUM_CLASSES = 4


def randomize_zeros(model, rng):
    """B-side factors start at zero (identity adapters); give them life."""
    for param in model.parameters():
        if not np.any(param.data):
            param.data[...] = (rng.normal(size=param.data.shape) * 0.2).astype(
                param.data.dtype
            )


def static_tenant():
    """A merged-LoRA tenant: the adapter bakes into the base weights."""
    backbone = resnet_small(NUM_CLASSES, new_rng(0))
    result = attach(backbone, "lora", rank=2, rng=new_rng(1))
    randomize_zeros(backbone, np.random.default_rng(2))
    return result


def seed_slot_tenant(mapping_seed=None):
    """A MetaLoRA tenant.  Identical construction seeds mean identical
    backbone/extractor weights, so tenants built this way share compiled
    extractor and body programs; ``mapping_seed`` perturbs only the
    mapping net — what a tenant-specific fine-tune produces."""
    backbone = resnet_small(NUM_CLASSES, new_rng(10))
    result = attach(backbone, "meta_tr", rank=2, rng=new_rng(11))
    extractor = FeatureExtractor(resnet_small(NUM_CLASSES, new_rng(12)))
    model = MetaLoRAModel(backbone, extractor, rng=new_rng(13), adapters=result)
    randomize_zeros(model, np.random.default_rng(14))
    if mapping_seed is not None:
        rng = np.random.default_rng(mapping_seed)
        model.trunk.weight.data[...] += rng.normal(
            size=model.trunk.weight.data.shape
        ) * 0.05
        for head in model.heads:
            head.weight.data[...] += rng.normal(size=head.weight.data.shape) * 0.05
    return model


def main() -> None:
    static = static_tenant()
    meta_a = seed_slot_tenant()
    meta_b = seed_slot_tenant(mapping_seed=7)
    images = np.random.default_rng(3).normal(size=(4, 3, 16, 16)).astype(np.float32)

    # Per-tenant single engines: the bit-identity reference, one bulk
    # request each.  A row's bits depend only on its own request, not on
    # the batch it rides in, so these rows are what every grouped or
    # queued dispatch below must reproduce.
    reference = {}
    for name, source in (("acme", static), ("globex", meta_a), ("initech", meta_b)):
        with build_engine(source) as single:
            reference[name] = single.serve(ServeRequest(sample=images)).require()

    engine = MultiTenantEngine()
    engine.register("acme", static)  # static LoRA: merged, adapter-free program
    engine.register("globex", meta_a)  # seed-slot tenant
    engine.register("initech", meta_b)  # shares globex's extractor/body programs
    print(f"registered tenants: {engine.adapters()}")

    globex, initech = engine.registry.get("globex"), engine.registry.get("initech")
    print(f"seed-slot tenants share a body program: {globex.body is initech.body}")

    # Heterogeneous dispatch: one call, three tenants.  Seed-slot rows
    # stack into shared extractor/body runs; outputs stay bit-identical
    # to the per-tenant engines.
    tenants = ("acme", "globex", "initech")
    requests = [
        ServeRequest(sample=images[index], adapter=name)
        for index, name in enumerate(tenants)
    ]
    results = engine.serve(requests)
    for index, (name, result) in enumerate(zip(tenants, results)):
        assert result.ok and np.array_equal(result.require(), reference[name][index])
    print("serve: grouped rows bit-identical to per-tenant engines")

    # The queued path: a BatchScheduler admits each request, resolves it
    # to a future ServeResult, and hands the heterogeneous micro-batches
    # it forms to engine.serve(); rows match whatever the batch boundaries.
    with BatchScheduler(engine) as scheduler:
        futures = [
            scheduler.submit(ServeRequest(sample=images[index], adapter=name))
            for index, name in enumerate(tenants)
        ]
        for index, (name, future) in enumerate(zip(tenants, futures)):
            result = future.result(timeout=10.0)
            assert np.array_equal(result.require(), reference[name][index])
    print("scheduler: queued rows bit-identical too")

    # Hot swap: retrain globex (new mapping weights), swap it in live.
    probe = ServeRequest(sample=images[0], adapter="globex")
    before = engine.serve(probe).require()
    engine.swap("globex", seed_slot_tenant(mapping_seed=99))
    after = engine.serve(probe).require()
    print(f"hot swap changed globex's output: {not np.array_equal(before, after)} "
          f"(entry version {engine.registry.get('globex').version})")

    # Checkpoint-based registration: adapter file -> serving tenant.
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/initech.npz"
        save_adapter(meta_b, path)
        target = seed_slot_tenant()  # same shapes, pre-restore weights
        engine.registry.register_checkpoint("initech", target, path, replace=True)
    print("re-registered initech from its checkpoint file")

    stats = engine.stats()
    cache_hits = stats.get("serve.program_cache.hit", {}).get("calls", 0)
    print(f"program cache hits from cross-tenant sharing: {cache_hits}")
    for name in ("serve.requests", "serve.requests{tenant=globex}",
                 "serve.registry.swap"):
        if name in stats:
            print(f"  {name}: {stats[name]['calls']}")
    engine.close()


if __name__ == "__main__":
    main()
