"""The unified ServeRequest/ServeResult surface.

Pins the contract: one typed request/response pair for the sync, queued
and wire paths; serving failures are typed results, never hangs.
"""

import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.models import resnet_small
from repro.serve import (
    DEADLINE_MISSED,
    ERROR,
    OK,
    REJECTED,
    STATUSES,
    BatchScheduler,
    ServeRequest,
    ServeResult,
    Timings,
    build_engine,
    ingest_sample,
)


def images_for(rng, n=4):
    return rng.normal(size=(n, 3, 16, 16)).astype(np.float32)


@pytest.fixture
def engine(rng):
    with build_engine(resnet_small(4, rng)) as engine:
        yield engine


class TestServeRequest:
    def test_single_and_batched_samples(self, rng):
        single = ServeRequest(sample=images_for(rng, 1)[0])
        batch = ServeRequest(sample=images_for(rng, 2))
        assert not single.batched and batch.batched

    def test_bad_rank_rejected(self):
        for shape in ((16, 16), (1, 1, 3, 16, 16)):
            with pytest.raises(ServeError, match="shape"):
                ServeRequest(sample=np.zeros(shape, dtype=np.float32))

    def test_non_float_samples_ingested_as_float32(self):
        request = ServeRequest(sample=np.zeros((3, 16, 16), dtype=np.int64))
        assert request.sample.dtype == np.float32
        assert ingest_sample([[[1]]]).dtype == np.float32

    def test_deadline_validation_and_expiry(self, rng):
        sample = images_for(rng, 1)[0]
        with pytest.raises(ServeError, match="deadline"):
            ServeRequest(sample=sample, deadline=0.0)
        no_slo = ServeRequest(sample=sample)
        assert no_slo.deadline_at() == float("inf") and not no_slo.expired()
        request = ServeRequest(sample=sample, deadline=1e-4)
        assert request.deadline_at() == request.created_at + 1e-4
        time.sleep(0.01)
        assert request.expired()
        # expired() also accepts an explicit clock for batch-formation use.
        assert not request.expired(now=request.created_at)


class TestServeResult:
    def test_require_returns_embedding(self):
        row = np.ones(3, dtype=np.float32)
        assert ServeResult(embedding=row).require() is row

    def test_require_raises_typed_error_on_failure(self):
        for status in (REJECTED, DEADLINE_MISSED, ERROR):
            result = ServeResult.failure(status, "nope")
            assert not result.ok and result.status in STATUSES
            with pytest.raises(ServeError, match=status):
                result.require()

    def test_unknown_status_rejected(self):
        with pytest.raises(ServeError, match="status"):
            ServeResult(status="maybe")

    def test_timings_round_trip(self):
        timings = Timings(queue_seconds=0.1, run_seconds=0.2, total_seconds=0.3)
        assert Timings.from_dict(timings.as_dict()) == timings
        assert Timings.from_dict({}) == Timings()


class TestDeadlineSemantics:
    def test_sync_serve_answers_expired_requests_without_running(self, engine, rng):
        request = ServeRequest(sample=images_for(rng, 1)[0], deadline=1e-6)
        time.sleep(0.01)
        result = engine.serve(request)
        assert result.status == DEADLINE_MISSED
        assert result.embedding is None and "SLO" in result.error
        assert engine.stats()["serve.request.deadline_missed"]["calls"] == 1

    def test_queue_path_answers_expired_requests(self, engine, rng):
        request = ServeRequest(sample=images_for(rng, 1)[0], deadline=1e-6)
        time.sleep(0.01)
        with BatchScheduler(engine) as scheduler:
            result = scheduler.submit(request).result(timeout=10.0)
            assert result.status == DEADLINE_MISSED
            assert scheduler.stats()["serve.request.deadline_missed"]["calls"] == 1

    def test_generous_deadline_serves_normally(self, engine, rng):
        result = engine.serve(
            ServeRequest(sample=images_for(rng, 1)[0], deadline=60.0)
        )
        assert result.ok and result.require().ndim == 1


class TestStatsSeries:
    def test_new_series_present_at_zero(self, engine):
        stats = engine.stats()
        assert stats["serve.request.rejected"]["calls"] == 0
        assert stats["serve.request.deadline_missed"]["calls"] == 0
        assert stats["serve.queue.depth"]["kind"] == "histogram"


class TestRequestValidation:
    def test_serve_rejects_non_requests(self, engine):
        with pytest.raises(ServeError, match="ServeRequest"):
            engine.serve([np.zeros((3, 16, 16), dtype=np.float32)])
        with BatchScheduler(engine) as scheduler:
            with pytest.raises(ServeError, match="ServeRequest"):
                scheduler.submit(np.zeros((3, 16, 16), dtype=np.float32))

    def test_submit_rejects_batched_samples(self, engine, rng):
        with BatchScheduler(engine) as scheduler:
            with pytest.raises(ServeError, match="single-sample"):
                scheduler.submit(ServeRequest(sample=images_for(rng, 2)))


class TestStatusConstant:
    def test_ok_constant_and_statuses(self):
        assert OK == "ok" and len(STATUSES) == 4
