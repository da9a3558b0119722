"""Multi-process engine shards: routing, replication, crash isolation.

Workers are real processes (fork by default; CI re-runs this directory
under ``REPRO_SHARD_START=spawn``), so every test asserts through the
public surface: typed results, merged stats, digest-verified registry
sync, and bit-identity against a direct in-process engine.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.serve.shard
from repro.bench import _multi_tenant_models, build_shard_tenant
from repro.errors import ServeError
from repro.serve import (
    ERROR,
    OK,
    REJECTED,
    MultiTenantEngine,
    ServeClient,
    ServeRequest,
    ServingFrontend,
    ShardedEngine,
)

NAMES = ["static", "meta_0", "meta_1"]


def builder_args(name: str) -> tuple[str, int]:
    if name == "static":
        return ("static", 0)
    return ("meta", int(name.rsplit("_", 1)[1]))


def register_all(engine: ShardedEngine, models: list) -> None:
    for name, model in zip(NAMES, models):
        engine.register(name, model, builder=build_shard_tenant, args=builder_args(name))


@pytest.fixture(scope="module")
def fleet():
    """The bench tenants plus a direct single-process reference engine."""
    static, metas = _multi_tenant_models(3)
    models = [static, *metas]
    reference = MultiTenantEngine()
    for name, model in zip(NAMES, models):
        reference.register(name, model)
    yield models, reference
    reference.close()


@pytest.fixture
def sharded(fleet):
    models, reference = fleet
    engine = ShardedEngine(2, record_batches=4, heartbeat_interval=0.1)
    register_all(engine, models)
    yield engine, reference
    engine.close(5.0)


def exit_before_hello(shard_id, host, port, token, config) -> None:
    """Stands in for the shard worker: dies before connecting back."""
    os._exit(3)


def mixed_requests(count: int, seed: int = 0) -> list[ServeRequest]:
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(count, 3, 16, 16)).astype(np.float32)
    return [
        ServeRequest(sample=samples[index], adapter=NAMES[index % len(NAMES)])
        for index in range(count)
    ]


def flood(engine: ShardedEngine, count: int, seed: int = 0):
    """Concurrent traffic; identity for these goes via recorded replay."""
    futures = [engine.submit(request) for request in mixed_requests(count, seed)]
    return [future.result(60.0) for future in futures]


def assert_serves_match_direct(
    engine: ShardedEngine, reference: MultiTenantEngine, count: int, seed: int = 0
) -> None:
    """Sequential round trips: each is a micro-batch of one, so identity
    against direct single-request dispatch is deterministic (embeddings
    are batch-composition sensitive; concurrent traffic is covered by
    the recorded-batch replay instead)."""
    for request, ref_request in zip(
        mixed_requests(count, seed), mixed_requests(count, seed)
    ):
        result = engine.submit(request).result(60.0)
        assert result.status == OK, result.error
        direct = reference.serve(ref_request).require()
        assert np.array_equal(result.require(), direct)


class TestShardedServing:
    def test_round_trip_bit_identical_to_direct(self, sharded):
        engine, reference = sharded
        assert_serves_match_direct(engine, reference, 9)

    def test_concurrent_traffic_serves_ok_everywhere(self, sharded):
        engine, __ = sharded
        results = flood(engine, 12)
        assert all(result.status == OK for result in results)

    def test_affinity_assigns_every_adapter_a_home_shard(self, sharded):
        engine, __ = sharded
        affinity = engine.affinity()
        assert sorted(affinity) == sorted(NAMES)
        assert set(affinity.values()) <= {0, 1}
        assert len(set(affinity.values())) == 2  # round-robin spreads tenants

    def test_unknown_adapter_answers_typed_error(self, sharded):
        engine, __ = sharded
        request = mixed_requests(1)[0]
        result = engine.submit(
            ServeRequest(sample=request.sample, adapter="nope")
        ).result(5.0)
        assert result.status == ERROR
        assert "unknown adapter" in result.error

    def test_closed_engine_rejects_typed(self, fleet):
        models, __ = fleet
        engine = ShardedEngine(2)
        register_all(engine, models)
        engine.close(5.0)
        result = engine.submit(mixed_requests(1)[0]).result(5.0)
        assert result.status == REJECTED

    def test_router_spills_off_a_dead_home_shard(self, fleet):
        models, reference = fleet
        # Long heartbeat: the monitor must not resurrect the shard we
        # marked down while the router decision is under test.
        engine = ShardedEngine(2, heartbeat_interval=60.0)
        try:
            register_all(engine, models)
            name = next(
                name for name, home in engine.affinity().items() if home == 0
            )
            engine._shards[0].ready = False
            request = mixed_requests(1)[0]
            result = engine.submit(
                ServeRequest(sample=request.sample, adapter=name)
            ).result(30.0)
            assert result.status == OK
            engine._shards[0].ready = True
            spills = engine.stats().get("serve.router.spill")
            assert spills and spills["calls"] >= 1
        finally:
            engine.close(5.0)


class TestShardStartup:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_dying_before_hello_fails_fast(self, monkeypatch, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable here")
        monkeypatch.setattr(repro.serve.shard, "_shard_worker_main", exit_before_hello)
        started = time.monotonic()
        with pytest.raises(ServeError, match="shard 0 exited with code 3"):
            ShardedEngine(2, start_method=start_method)
        assert time.monotonic() - started < 5.0


class TestShardCrash:
    def test_crash_mid_load_yields_typed_results_then_recovers(self, sharded):
        engine, reference = sharded
        requests = mixed_requests(24, seed=3)
        futures = [engine.submit(request) for request in requests]
        engine._shards[0].process.kill()
        results = [future.result(60.0) for future in futures]  # never hangs
        statuses = {result.status for result in results}
        assert statuses <= {OK, ERROR, REJECTED}  # typed outcomes only
        errored = [result for result in results if result.status == ERROR]
        for result in errored:
            assert result.error  # every failure says why

        deadline = time.perf_counter() + 30.0
        while engine.healthy_shards() < 2 and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert engine.healthy_shards() == 2  # the monitor restarted it

        # The restarted shard re-synced from the registry: requests serve
        # again, bit-identical to direct dispatch.
        assert_serves_match_direct(engine, reference, 9, seed=4)

        stats = engine.stats()
        assert stats["serve.shard.deaths"]["calls"] >= 1
        assert stats["serve.shard.restarts"]["calls"] >= 1


class TestShardRegistry:
    def test_swap_propagates_with_digest_verification(self):
        static, metas = _multi_tenant_models(2)
        reference = MultiTenantEngine()
        engine = ShardedEngine(2)
        try:
            reference.register("m", metas[0])
            first = engine.register(
                "m", metas[0], builder=build_shard_tenant, args=("meta", 0)
            )
            sample = mixed_requests(1, seed=9)[0].sample
            before = engine.submit(
                ServeRequest(sample=sample, adapter="m")
            ).result(60.0).require()

            # A tenant-level fine-tune: perturb the mapping net in place.
            metas[0].trunk.weight.data[...] += 0.05
            second = engine.swap("m", metas[0])
            assert second != first  # the digest tracks the new weights
            after = engine.submit(
                ServeRequest(sample=sample, adapter="m")
            ).result(60.0).require()
            assert not np.array_equal(before, after)

            reference.swap("m", metas[0])
            direct = reference.serve(
                ServeRequest(sample=sample, adapter="m")
            ).require()
            assert np.array_equal(after, direct)  # every shard swapped
        finally:
            engine.close(5.0)
            reference.close()

    def test_swap_unknown_tenant_rejected(self, sharded):
        engine, __ = sharded
        static, __metas = _multi_tenant_models(2)
        with pytest.raises(ServeError, match="unknown tenant"):
            engine.swap("nope", static)

    def test_evicted_tenant_answers_typed_error(self, fleet):
        models, __ = fleet
        engine = ShardedEngine(2)
        try:
            register_all(engine, models)
            engine.evict("meta_1")
            assert "meta_1" not in engine.adapters()
            request = mixed_requests(1)[0]
            result = engine.submit(
                ServeRequest(sample=request.sample, adapter="meta_1")
            ).result(5.0)
            assert result.status == ERROR
            with pytest.raises(ServeError, match="unknown tenant"):
                engine.evict("meta_1")
        finally:
            engine.close(5.0)

    def test_builder_must_be_an_importable_module_level_callable(self, fleet):
        models, __ = fleet
        engine = ShardedEngine(1)
        try:
            with pytest.raises(ServeError, match="module-level"):
                engine.register(
                    "bad", models[0], builder=lambda: None
                )
        finally:
            engine.close(5.0)


class TestShardStats:
    def test_merged_counters_sum_over_per_shard_twins(self, sharded):
        from repro.obs.metrics import parse_name, render_name

        engine, __ = sharded
        results = flood(engine, 12, seed=5)
        assert all(result.status == OK for result in results)
        merged = engine.stats()
        # Within one snapshot, every bare counter that has ``{shard=i}``
        # twins must equal their sum — the 2-shard deployment's series
        # are exactly its single-shard equivalents added together.
        sums: dict[tuple, int] = {}
        for rendered, series in merged.items():
            name, labels = parse_name(rendered)
            if series.get("kind") != "counter":
                continue
            if not any(key == "shard" for key, __ in labels):
                continue
            base = (name, tuple(pair for pair in labels if pair[0] != "shard"))
            sums[base] = sums.get(base, 0) + int(series.get("calls", 0))
        assert sums  # the shard-labeled twins exist at all
        checked = 0
        for (name, labels), total in sums.items():
            bare = merged.get(render_name(name, labels))
            if bare is None:
                continue
            assert bare["calls"] == total, name
            checked += 1
        assert checked >= 3  # several series carry the invariant

    def test_shard_spans_absorb_only_while_tracing(self, sharded):
        from repro.obs import TRACER

        engine, __ = sharded
        results = flood(engine, 6, seed=10)
        assert all(result.status == OK for result in results)
        engine.stats()
        # Tracing off: worker-shipped spans must not pile up in the
        # global tracer (a long-lived server would leak them).
        assert TRACER.drain() == []
        TRACER.enable()
        try:
            results = flood(engine, 6, seed=11)
            assert all(result.status == OK for result in results)
            engine.stats()
            spans = TRACER.drain()
        finally:
            TRACER.disable()
        assert spans  # tracing on: the same path absorbs them...
        for span in spans:
            assert span["attrs"]["shard"] in (0, 1)  # ...tagged per shard

    def test_both_shards_served_work(self, sharded):
        engine, __ = sharded
        results = flood(engine, 16, seed=6)
        assert all(result.status == OK for result in results)
        per_shard = engine.shard_stats()
        for shard, snapshot in per_shard.items():
            batches = snapshot.get("serve.batches")
            assert batches and batches["calls"] >= 1, f"shard {shard} idle"

    def test_frontend_stats_op_exposes_the_shard_breakdown(self, sharded):
        engine, reference = sharded
        frontend = ServingFrontend(scheduler=engine)
        host, port = frontend.start_in_thread()
        try:
            with ServeClient(host, port) as client:
                request = mixed_requests(1, seed=8)[0]
                wire = client.serve(request.sample, adapter=request.adapter)
                direct = reference.serve(
                    mixed_requests(1, seed=8)[0]
                ).require()
                assert np.array_equal(wire.require(), direct)
                both = client.stats(per_shard=True)
                assert sorted(both["shards"]) == ["0", "1"]
                merged = both["merged"]
                assert "serve.router.affinity" in merged or (
                    "serve.router.spill" in merged
                )
        finally:
            # The frontend owns the scheduler surface but the fixture owns
            # the engine: stop the server without draining the shards.
            frontend.scheduler = type(
                "Noop", (), {"close": staticmethod(lambda *a, **k: None)}
            )()
            frontend.stop_in_thread()

    def test_recorded_batches_replay_bit_identically(self, sharded):
        engine, reference = sharded
        results = flood(engine, 12, seed=7)
        assert all(result.status == OK for result in results)
        recorded = engine.recorded_batches()
        replayed = 0
        for batches in recorded.values():
            for batch in batches:
                if not all(status == "ok" for status in batch["statuses"]):
                    continue
                direct = reference.serve(
                    [
                        ServeRequest(sample=sample, adapter=adapter)
                        for sample, adapter in zip(
                            batch["samples"], batch["adapters"]
                        )
                    ]
                )
                for embedding, expected in zip(batch["embeddings"], direct):
                    assert np.array_equal(embedding, expected.require())
                replayed += 1
        assert replayed >= 1
