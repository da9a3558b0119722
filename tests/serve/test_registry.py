"""AdapterRegistry + MultiTenantEngine: naming, sharing, churn, identity.

The acceptance contract: a multi-tenant engine serving N named adapters
produces rows bit-identical to N separate single-tenant engines, even
though seed-slot tenants are stacked *across* tenants into shared
extractor/body runs.
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.eval.embeddings import extract_embeddings
from repro.models import FeatureExtractor, mixer_small, resnet_small
from repro.nn import Linear
from repro.peft import (
    MetaLoRAModel,
    attach,
    load_adapter,
    save_adapter,
    state_digest,
)
from repro.serve import (
    AdapterRegistry,
    MultiTenantEngine,
    ServeRequest,
    build_engine,
    compile_features,
    program_key,
)
from repro.utils.rng import new_rng
from tests.serve.conftest import assert_serving_match, serve_bulk


def images_for(rng, n=6):
    return rng.normal(size=(n, 3, 16, 16)).astype(np.float32)


def randomize_zero_params(model, rng):
    for param in model.parameters():
        if not np.any(param.data):
            param.data[...] = (rng.normal(size=param.data.shape) * 0.2).astype(
                param.data.dtype
            )


def static_lora_result(seed=0):
    backbone = resnet_small(4, new_rng(seed))
    result = attach(backbone, "lora", rank=2, rng=new_rng(seed + 1))
    randomize_zero_params(backbone, np.random.default_rng(seed + 2))
    return result


def meta_model(fmt="meta_tr", seed=10, extractor_seed=99):
    """A MetaLoRA model; same ``extractor_seed`` ⇒ shared extractor weights."""
    backbone = resnet_small(4, new_rng(seed))
    result = attach(backbone, fmt, rank=2, rng=new_rng(seed + 1))
    extractor = FeatureExtractor(resnet_small(4, new_rng(extractor_seed)))
    model = MetaLoRAModel(backbone, extractor, rng=new_rng(seed + 2), adapters=result)
    randomize_zero_params(model, np.random.default_rng(seed + 3))
    return model


def perturb_mapping(model, rng):
    """New mapping weights in place: what a tenant's fine-tune produces."""
    model.trunk.weight.data[...] += (
        rng.normal(size=model.trunk.weight.data.shape) * 0.05
    )
    for head in model.heads:
        head.weight.data[...] += rng.normal(size=head.weight.data.shape) * 0.05


class TestRegistry:
    def test_register_get_evict(self):
        registry = AdapterRegistry()
        entry = registry.register("a", static_lora_result(0))
        assert registry.names() == ["a"]
        assert "a" in registry and len(registry) == 1
        assert registry.get("a") is entry
        assert entry.kind == "static" and entry.version == 1
        evicted = registry.evict("a")
        assert evicted is entry
        assert "a" not in registry

    def test_unknown_names_raise(self):
        registry = AdapterRegistry()
        with pytest.raises(ServeError, match="unknown adapter"):
            registry.get("ghost")
        with pytest.raises(ServeError, match="swap unknown"):
            registry.swap("ghost", static_lora_result(0))
        with pytest.raises(ServeError, match="evict unknown"):
            registry.evict("ghost")

    def test_duplicate_register_requires_replace(self):
        registry = AdapterRegistry()
        registry.register("a", static_lora_result(0))
        with pytest.raises(ServeError, match="already registered"):
            registry.register("a", static_lora_result(1))
        entry = registry.register("a", static_lora_result(1), replace=True)
        assert entry.version == 2

    def test_rejects_non_models(self):
        registry = AdapterRegistry()
        with pytest.raises(ServeError, match="Module or AttachResult"):
            registry.register("a", object())

    def test_identical_static_tenants_share_one_program(self):
        registry = AdapterRegistry()
        # Two names over byte-identical merged weights ⇒ one compile.
        a = registry.register("a", static_lora_result(0))
        b = registry.register("b", static_lora_result(0))
        assert a.program is b.program
        stats = registry.stats()
        assert stats["serve.program_cache.hit"]["calls"] == 1
        assert stats["serve.program_cache.miss"]["calls"] == 1

    def test_seeded_tenants_share_extractor_and_body(self):
        registry = AdapterRegistry()
        first = meta_model(seed=10)
        second = meta_model(seed=10)
        perturb_mapping(second, np.random.default_rng(7))
        a = registry.register("a", first)
        b = registry.register("b", second)
        assert a.kind == b.kind == "seeded"
        assert a.extractor is b.extractor  # shared backbone/extractor...
        assert a.body is b.body
        assert a.mapping is not b.mapping  # ...but tenant-specific mapping
        stats = registry.stats()
        assert stats["serve.program_cache.hit"]["calls"] == 2
        assert stats["serve.program_cache.miss"]["calls"] == 4

    def test_shared_program_snapshots_weights(self, rng):
        """Tenants sharing a program keep their own rows when one of their
        models is updated in place: programs fold copies, not the live
        weights."""
        models = [mixer_small(4, new_rng(5)) for __ in range(2)]
        images = images_for(rng, 3)
        with MultiTenantEngine() as engine:
            a = engine.register("a", models[0])
            b = engine.register("b", models[1])
            assert a.program is b.program
            before = serve_bulk(engine, images, adapter="b")
            models[0].embed.weight.data += 1.0
            assert np.array_equal(serve_bulk(engine, images, adapter="b"), before)

    def test_program_cache_evicts_lru(self):
        registry = AdapterRegistry(program_cache_size=1)
        registry.register("a", static_lora_result(0))
        registry.register("b", static_lora_result(1))
        stats = registry.stats()
        assert stats["serve.program_cache.evict"]["calls"] >= 1

    def test_register_checkpoint(self, tmp_path):
        donor = meta_model(seed=10)
        perturb_mapping(donor, np.random.default_rng(3))
        path = tmp_path / "adapter.npz"
        save_adapter(donor, path)
        target = meta_model(seed=10)  # same shapes, different mapping state
        registry = AdapterRegistry()
        entry = registry.register_checkpoint("tenant", target, path)
        assert entry.kind == "seeded"
        # The restored tenant serves the donor's weights.
        images = images_for(np.random.default_rng(0), 3)
        assert np.array_equal(entry.run(images), compile_features(donor).run(images))


class TestDigest:
    def test_attach_result_digest_tracks_weights(self):
        result = static_lora_result(0)
        before = result.digest()
        assert before == result.digest()  # deterministic
        next(iter(result.adapters.values())).lora_a.data[...] += 1.0
        assert result.digest() != before

    def test_checkpoint_manifest_shares_the_digest_function(self, tmp_path):
        from repro.peft.checkpoint import adapter_state_dict, _adapter_meta

        model = meta_model(seed=10)
        path = tmp_path / "adapter.npz"
        save_adapter(model, path)
        manifest_meta = load_adapter(model, path)
        meta = _adapter_meta(model)
        expected = state_digest(
            adapter_state_dict(model),
            extra={"families": meta["families"], "ranks": meta["ranks"]},
        )
        assert manifest_meta["digest"] == expected

    def test_program_keys_reuse_state_digest(self):
        result = static_lora_result(0)
        model = result.serving_model(merge=True)
        key = program_key(model)
        # The key's weight component is the shared state_digest over the
        # model's full state, tagged with families/ranks.
        from repro.peft.checkpoint import model_digest

        assert key.weights == model_digest(model)

    def test_program_keys_split_by_precision(self):
        model = static_lora_result(0).serving_model(merge=True)
        f64 = program_key(model, precision="f64")
        f32 = program_key(model, precision="f32")
        assert f64.precision == "f64" and f32.precision == "f32"
        assert f64 != f32  # tiers never collide in the program cache
        assert program_key(model, precision="f32") == f32

    def test_program_cache_keeps_tiers_apart_and_labels_counters(self):
        from repro.serve import ProgramCache

        model = static_lora_result(0).serving_model(merge=True)
        cache = ProgramCache(capacity=4)
        compiled = []
        for precision in ("f64", "f32", "f32"):
            program = cache.get(
                program_key(model, precision=precision),
                lambda p=precision: compile_features(model, precision=p),
            )
            compiled.append(program)
        assert compiled[0] is not compiled[1]  # different tier → recompile
        assert compiled[1] is compiled[2]  # same tier → shared program
        stats = cache.stats()
        assert stats["serve.program_cache.miss"]["calls"] == 2
        assert stats["serve.program_cache.miss{precision=f64}"]["calls"] == 1
        assert stats["serve.program_cache.miss{precision=f32}"]["calls"] == 1
        assert stats["serve.program_cache.hit{precision=f32}"]["calls"] == 1


class TestMultiTenantServing:
    def test_single_tenant_engine_matches_build_engine(self, rng):
        """Acceptance: a registered tenant ≡ ``build_engine``'s program."""
        model = meta_model(seed=10)
        images = images_for(rng, 5)
        with build_engine(model) as single:
            reference = serve_bulk(single, images)
        engine = MultiTenantEngine()
        engine.register("only", model)
        try:
            assert np.array_equal(serve_bulk(engine, images, adapter="only"), reference)
            # Five singles in one call: each row is the bulk reference's.
            results = engine.serve(
                [ServeRequest(sample=sample, adapter="only") for sample in images]
            )
            for index, result in enumerate(results):
                assert np.array_equal(result.require(), reference[index])
        finally:
            engine.close()

    def test_three_tenants_bit_identical_to_three_engines(self, rng):
        """Acceptance: N=3 (one merged LoRA, two MetaLoRA seed-slot
        tenants) — grouped cross-tenant dispatch reproduces three
        separate single-tenant engines bit for bit."""
        static = static_lora_result(0)
        meta_a = meta_model(seed=10)
        meta_b = meta_model(seed=10)
        perturb_mapping(meta_b, np.random.default_rng(7))
        images = {name: images_for(rng, 2) for name in ("static", "meta_a", "meta_b")}

        reference = {}
        for name, source in (("static", static), ("meta_a", meta_a), ("meta_b", meta_b)):
            with build_engine(source) as engine:
                reference[name] = serve_bulk(engine, images[name])

        engine = MultiTenantEngine()
        engine.register("static", static)  # already merged by build_engine
        engine.register("meta_a", meta_a)
        engine.register("meta_b", meta_b)
        try:
            # Seed-slot tenants share extractor+body: their requests stack.
            entries = [engine.registry.get(n) for n in ("meta_a", "meta_b")]
            assert entries[0].body is entries[1].body
            batch_names = ("static", "meta_a", "meta_b")
            batch = [
                (name, images[name][index])
                for index in range(2)
                for name in batch_names
            ]
            results = engine.serve(
                [ServeRequest(sample=sample, adapter=name) for name, sample in batch]
            )
            for position, (name, __) in enumerate(batch):
                index = position // 3
                assert np.array_equal(
                    results[position].require(), reference[name][index]
                )
            # The same identity holds for the batch in tenant-major order
            # (each meta tenant's mapping net still sees its 2 rows).
            grouped = [(name, index) for name in batch_names for index in range(2)]
            results = engine.serve(
                [
                    ServeRequest(sample=images[name][index], adapter=name)
                    for name, index in grouped
                ]
            )
            for (name, index), result in zip(grouped, results):
                assert np.array_equal(result.require(), reference[name][index])
            stats = engine.stats()
            assert stats["serve.requests"]["calls"] == 12
            assert "serve.requests{tenant=meta_a}" in stats
            assert sum(stats["serve.batch.tenants"]["buckets"].values()) >= 1
        finally:
            engine.close()

    def test_one_request_per_call_matches_single_tenant_engines(self, rng):
        """Mixed tenants served one request per ``serve`` call reproduce
        each tenant's own engine serving the same rows one at a time."""
        meta_b = meta_model(seed=10)
        perturb_mapping(meta_b, np.random.default_rng(7))
        sources = {
            "static": static_lora_result(0),
            "meta_a": meta_model(seed=10),
            "meta_b": meta_b,
        }
        images = {name: images_for(rng, 2) for name in sources}
        reference = {}
        for name, source in sources.items():
            with build_engine(source) as engine:
                reference[name] = serve_bulk(engine, images[name], batch_size=1)
        engine = MultiTenantEngine()
        try:
            for name, source in sources.items():
                engine.register(name, source)
            for index in range(2):
                for name in sources:
                    request = ServeRequest(sample=images[name][index], adapter=name)
                    row = engine.serve(request).require()
                    assert np.array_equal(row, reference[name][index])
        finally:
            engine.close()

    def test_adapter_churn_swap_serves_new_weights(self, rng):
        """register → serve → swap → serve: new outputs and correct
        program cache traffic."""
        engine = MultiTenantEngine()
        model = meta_model(seed=10)
        engine.register("tenant", model)
        sample = images_for(rng, 1)[0]

        def embed_one(sample):
            return engine.serve(ServeRequest(sample=sample, adapter="tenant")).require()

        try:
            before = embed_one(sample)
            baseline = engine.stats()
            # Swap in new mapping weights (same extractor/backbone).
            perturb_mapping(model, np.random.default_rng(3))
            entry = engine.swap("tenant", model)
            assert entry.version == 2
            after = embed_one(sample)
            assert not np.array_equal(before, after)  # new weights serve
            stats = engine.stats()
            # The swap recompiled only the mapping program (miss) and
            # cache-hit the unchanged extractor + body.
            hits_before = baseline.get("serve.program_cache.hit", {}).get("calls", 0)
            assert stats["serve.program_cache.hit"]["calls"] - hits_before == 2
            assert (
                stats["serve.program_cache.miss"]["calls"]
                - baseline["serve.program_cache.miss"]["calls"]
            ) == 1
            assert stats["serve.registry.swap"]["calls"] == 1
            assert np.array_equal(embed_one(sample), after)
        finally:
            engine.close()

    @pytest.mark.parametrize("kind", ("static", "meta"))
    def test_mixed_image_sizes_in_one_batch(self, kind, rng):
        """A request whose image size differs from the rest of its batch
        is served on its own run, not failed with the whole group."""
        engine = MultiTenantEngine()
        engine.register("t", static_lora_result(0) if kind == "static" else meta_model())
        samples = [
            rng.normal(size=(3, size, size)).astype(np.float32) for size in (12, 16)
        ]
        try:
            results = engine.serve(
                [ServeRequest(sample=sample, adapter="t") for sample in samples]
            )
            for sample, result in zip(samples, results):
                assert result.ok, result.error
                solo = engine.serve(ServeRequest(sample=sample, adapter="t"))
                assert np.array_equal(result.require(), solo.require())
        finally:
            engine.close()

    def test_moe_lora_meta_tenant(self, rng):
        """MoE-LoRA in a MetaLoRAModel serves unmerged, through both
        ``build_engine`` and ``register``, as the autograd path computes."""
        base = mixer_small(4, new_rng(40))
        result = attach(base, "moe_lora", rank=2, rng=new_rng(41), targets=(Linear,))
        extractor = FeatureExtractor(resnet_small(4, new_rng(42)))
        model = MetaLoRAModel(base, extractor, rng=new_rng(43), adapters=result)
        randomize_zero_params(model, np.random.default_rng(44))
        images = images_for(rng, 5)
        reference = extract_embeddings(model, images, batch_size=images.shape[0])
        with build_engine(model) as single:
            assert_serving_match(serve_bulk(single, images), reference)
        with MultiTenantEngine() as engine:
            engine.register("moe", model)
            assert_serving_match(serve_bulk(engine, images, adapter="moe"), reference)

    def test_unknown_adapter_raises_everywhere(self, rng):
        engine = MultiTenantEngine()
        sample = images_for(rng, 1)
        try:
            # An unknown tenant is that request's typed error result.
            with pytest.raises(ServeError, match="unknown adapter"):
                engine.serve(ServeRequest(sample=sample, adapter="ghost")).require()
            with pytest.raises(ServeError, match="unknown adapter"):
                engine.serve(
                    [ServeRequest(sample=sample[0], adapter="ghost")]
                )[0].require()
        finally:
            engine.close()

    def test_closed_engine_rejects_calls(self, rng):
        engine = MultiTenantEngine()
        engine.register("a", static_lora_result(0))
        engine.close()
        with pytest.raises(ServeError, match="closed"):
            engine.serve(ServeRequest(sample=images_for(rng, 1), adapter="a"))
        engine.close()  # idempotent

    def test_invalid_limits_rejected(self):
        with pytest.raises(ServeError, match="program cache capacity"):
            MultiTenantEngine(program_cache_size=0)


class TestBuildEngineValidation:
    def test_rejects_objects_without_serving_model(self):
        with pytest.raises(ServeError, match="Module or AttachResult"):
            build_engine(object())

    def test_rejects_non_callable_serving_model(self):
        class Impostor:
            serving_model = "not-a-method"

        with pytest.raises(ServeError, match="not callable"):
            build_engine(Impostor())

    def test_rejects_serving_model_returning_non_module(self):
        class Impostor:
            def serving_model(self, merge=True):
                return {"weights": 1}

        with pytest.raises(ServeError, match="not a Module"):
            build_engine(Impostor())


class TestEnginesHandle:
    def test_module_level_shims_removed(self):
        """The deprecated engine-cache globals are gone."""
        import repro.serve
        import repro.serve.engine

        for mod in (repro.serve, repro.serve.engine):
            assert not hasattr(mod, "shared_engine")
            assert not hasattr(mod, "clear_shared_engines")
            assert "shared_engine" not in mod.__all__
            assert "clear_shared_engines" not in mod.__all__

    def test_fusion_pass_removed(self, rng):
        """Programs run the steps their lowering emitted: no fusion pass
        export, no ``fuse`` keyword, no fusion series in ``stats()``."""
        import repro.serve

        assert not [name for name in dir(repro.serve) if "fuse" in name]
        model = resnet_small(4, rng)
        with pytest.raises(TypeError):
            compile_features(model, **{"fuse": True})
        with build_engine(model) as engine:
            serve_bulk(engine, images_for(rng, 2))
            stats = engine.stats()
        assert not [name for name in stats if name.startswith("serve.fusion.")]


class TestMultiInputPrograms:
    def test_run_arity_checked(self, rng):
        program = compile_features(resnet_small(4, rng))
        with pytest.raises(ServeError, match="1 input"):
            program.run(images_for(rng, 1), images_for(rng, 1))

    def test_external_seed_split_is_bit_identical(self, rng):
        from repro.serve import compile_forward, compile_seed_mapping

        model = meta_model(seed=10)
        images = images_for(rng, 4)
        fused = compile_features(model)
        extractor = compile_forward(model.extractor)
        mapping = compile_seed_mapping(model)
        body = compile_features(model, external_seeds=True)
        assert len(body.input_slots) == 2
        seeds = mapping.run(extractor.run(images))
        assert np.array_equal(body.run(images, seeds), fused.run(images))
