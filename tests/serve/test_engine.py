"""build_engine: bulk path, the queued path, lifecycle.

``build_engine`` returns a ``MultiTenantEngine`` whose default tenant
is the compiled model; the queued path is a ``BatchScheduler`` in front
of it.
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.eval.embeddings import extract_embeddings
from repro.models import resnet_small
from repro.obs import OBS, observed
from repro.serve import BatchScheduler, ServeRequest, build_engine


@pytest.fixture
def model(rng):
    return resnet_small(4, rng)


@pytest.fixture
def engine(model):
    with build_engine(model) as engine:
        yield engine


def samples_for(rng, n=6):
    return rng.normal(size=(n, 3, 16, 16)).astype(np.float32)


def resolve(futures, timeout=10.0):
    return [future.result(timeout=timeout).require() for future in futures]


class TestBulkPath:
    def test_serve_matches_reference_across_chunkings(self, engine, model, rng):
        from tests.serve.conftest import assert_serving_match, serve_bulk

        images = samples_for(rng, 7)
        for batch_size in (1, 3, 64):
            out = serve_bulk(engine, images, batch_size)
            assert_serving_match(
                out, extract_embeddings(model, images, batch_size=batch_size)
            )

    def test_serve_returns_fresh_buffers(self, engine, rng):
        from tests.serve.conftest import serve_bulk

        images = samples_for(rng, 2)
        first = serve_bulk(engine, images)
        first[...] = 0.0  # callers may scribble on their result
        assert np.any(serve_bulk(engine, images))

    def test_serve_accepts_integer_inputs(self, engine):
        # Mirrors Tensor.__init__: non-float payloads become float32.
        images = np.zeros((2, 3, 16, 16), dtype=np.int64)
        result = engine.serve(ServeRequest(sample=images))
        assert result.require().shape[0] == 2

    def test_serve_reports_timings(self, engine, rng):
        result = engine.serve(ServeRequest(sample=samples_for(rng, 2)))
        timings = result.timings
        assert timings.run_seconds > 0
        assert timings.total_seconds >= timings.run_seconds


class TestMicroBatcher:
    def test_enqueued_singles_match_bulk_rows(self, engine, rng):
        from tests.serve.conftest import serve_bulk

        images = samples_for(rng, 6)
        with BatchScheduler(engine, max_batch=4) as scheduler:
            rows = resolve(
                [scheduler.submit(ServeRequest(sample=sample)) for sample in images]
            )
            stats = scheduler.stats()
        bulk = serve_bulk(engine, images, batch_size=1)
        for index, row in enumerate(rows):
            assert np.array_equal(row, bulk[index])
        assert stats["serve.requests"]["calls"] == 6
        assert 1 <= stats["serve.batches"]["calls"] <= 6
        # stats() speaks the unified metrics-snapshot schema.
        assert all("kind" in entry for entry in stats.values())
        assert sum(stats["serve.batch.size"]["buckets"].values()) == (
            stats["serve.batches"]["calls"]
        )

    def test_batch_size_counters(self, engine, rng):
        images = samples_for(rng, 3)
        OBS.reset()
        try:
            with observed(trace=False), BatchScheduler(engine) as scheduler:
                resolve(
                    [scheduler.submit(ServeRequest(sample=sample)) for sample in images]
                )
            counters = OBS.snapshot()
        finally:
            OBS.reset()
        assert counters["serve.requests"]["calls"] == 3
        assert counters["serve.batch.size"]["kind"] == "histogram"
        assert counters["serve.batch.tenants"]["buckets"] == {
            "1": counters["serve.batch.tenants"]["calls"]
        }


class TestLifecycle:
    def test_closed_engine_rejects_calls(self, model, rng):
        engine = build_engine(model)
        engine.close()
        with pytest.raises(ServeError, match="closed"):
            engine.serve(ServeRequest(sample=samples_for(rng, 1)))
        engine.close()  # idempotent

    def test_close_drains_pending_work(self, engine, rng):
        images = samples_for(rng, 4)
        scheduler = BatchScheduler(engine, max_batch=4)
        futures = [scheduler.submit(ServeRequest(sample=sample)) for sample in images]
        scheduler.close()
        for future in futures:
            # Either served before shutdown or resolved to a typed error
            # result — never left hanging, never an exception on the future.
            result = future.result(timeout=10.0)
            if result.ok:
                assert result.embedding.ndim == 1
            else:
                assert result.status == "error"
                with pytest.raises(ServeError):
                    result.require()

    def test_build_engine_rejects_non_models(self):
        with pytest.raises(ServeError, match="Module or AttachResult"):
            build_engine(object())
