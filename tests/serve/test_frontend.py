"""The asyncio TCP frontend, its scheduler, and the wire protocol.

Integration runs over real sockets: concurrent clients across tenants,
with every result asserted bit-identical to its request served alone
through the engine directly.  Tests that check batch order or
composition see each batch through a wrapped ``engine.serve``.  SLO
paths (queue-full rejection, deadline-miss while queued) are driven
deterministically with ``REPRO_FAULTS`` batch stalls.
"""

import socket
import threading
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
    BatchScheduler,
    MultiTenantEngine,
    ServeClient,
    ServeRequest,
    ServingFrontend,
)
from tests.serve.test_registry import (
    images_for,
    meta_model,
    perturb_mapping,
    static_lora_result,
)


@pytest.fixture
def engine(rng):
    engine = MultiTenantEngine()
    engine.register("solo", resnet_small(4, rng))
    yield engine
    engine.close()


def three_tenant_engine():
    """Static + two seed-slot MetaLoRA tenants (shared extractor/body)."""
    meta_b = meta_model(seed=10)
    perturb_mapping(meta_b, np.random.default_rng(7))
    engine = MultiTenantEngine()
    engine.register("static", static_lora_result(0))
    engine.register("meta_a", meta_model(seed=10))
    engine.register("meta_b", meta_b)
    return engine


class TestFraming:
    def test_payload_round_trip(self, rng):
        from repro.serve.frontend import decode_payload, encode_payload

        array = images_for(rng, 2)
        assert np.array_equal(decode_payload(encode_payload(array)), array)
        assert decode_payload(encode_payload(None)) is None

    def test_frame_round_trip_over_a_socketpair(self, rng):
        from repro.serve.frontend import _read_frame_sync, encode_frame, encode_payload

        left, right = socket.socketpair()
        try:
            payload = encode_payload(images_for(rng, 1))
            left.sendall(encode_frame({"op": "serve", "id": 7}, payload))
            header, data = _read_frame_sync(right)
            assert header == {"op": "serve", "id": 7}
            assert data == payload
        finally:
            left.close()
            right.close()

    def test_oversized_segments_rejected(self):
        from repro.serve.frontend import _LEN, _read_frame_sync, MAX_SEGMENT

        left, right = socket.socketpair()
        try:
            left.sendall(_LEN.pack(MAX_SEGMENT + 1))
            with pytest.raises(ServeError, match="exceeds"):
                _read_frame_sync(right)
        finally:
            left.close()
            right.close()


class TestBatchScheduler:
    def test_invalid_knobs_rejected(self, engine):
        for kwargs in (
            {"queue_limit": 0},
            {"max_batch": 0},
            {"target_batch_seconds": 0.0},
        ):
            with pytest.raises(ServeError):
                BatchScheduler(engine, **kwargs)

    def test_queue_full_rejects_immediately(self, engine, rng):
        release = threading.Event()
        original = engine.serve

        def blocked(requests):
            release.wait(timeout=30.0)
            return original(requests)

        engine.serve = blocked
        scheduler = BatchScheduler(engine, queue_limit=2, max_batch=1)
        try:
            samples = images_for(rng, 5)
            first = scheduler.submit(ServeRequest(sample=samples[0], adapter="solo"))
            # Wait for the worker to take the first request into a (blocked)
            # batch, so the admission queue is empty again.
            deadline = time.perf_counter() + 5.0
            while scheduler.depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
            queued = [
                scheduler.submit(ServeRequest(sample=sample, adapter="solo"))
                for sample in samples[1:3]
            ]
            overflow = scheduler.submit(ServeRequest(sample=samples[3], adapter="solo"))
            rejected = overflow.result(timeout=1.0)
            assert rejected.status == REJECTED
            assert "queue full" in rejected.error
            assert scheduler.stats()["serve.request.rejected"]["calls"] == 1
            release.set()
            assert first.result(timeout=10.0).ok
            assert all(f.result(timeout=10.0).ok for f in queued)
        finally:
            release.set()
            scheduler.close()

    def test_priority_orders_the_queue(self, engine, rng):
        release = threading.Event()
        original = engine.serve
        batches = []

        def blocked(requests):
            release.wait(timeout=30.0)
            batches.append(requests)
            return original(requests)

        engine.serve = blocked
        scheduler = BatchScheduler(engine, queue_limit=8, max_batch=1)
        try:
            samples = images_for(rng, 3)
            futures = [scheduler.submit(ServeRequest(sample=samples[0], adapter="solo"))]
            deadline = time.perf_counter() + 5.0
            while scheduler.depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
            # Queued while the worker is blocked: low priority first, then
            # high — the drain order must invert them.
            futures.append(
                scheduler.submit(ServeRequest(sample=samples[1], adapter="solo", priority=0))
            )
            futures.append(
                scheduler.submit(ServeRequest(sample=samples[2], adapter="solo", priority=5))
            )
            release.set()
            for future in futures:
                assert future.result(timeout=10.0).ok
            served = [requests[0].priority for requests in batches]
            assert served[:3] == [0, 5, 0]  # high-priority jumped the queue
        finally:
            release.set()
            scheduler.close()

    def test_close_fails_leftovers_and_rejects_late_submits(self, engine, rng):
        release = threading.Event()
        original = engine.serve

        def blocked(requests):
            release.wait(timeout=30.0)
            return original(requests)

        engine.serve = blocked
        scheduler = BatchScheduler(engine, queue_limit=8, max_batch=1)
        samples = images_for(rng, 3)
        futures = [
            scheduler.submit(ServeRequest(sample=s, adapter="solo"))
            for s in samples
        ]
        time.sleep(0.05)
        started = time.perf_counter()
        scheduler.close(drain_timeout=0.1)
        assert time.perf_counter() - started < 5.0
        late = scheduler.submit(ServeRequest(sample=samples[0], adapter="solo"))
        assert late.result(timeout=1.0).status == REJECTED
        release.set()
        statuses = {f.result(timeout=10.0).status for f in futures}
        assert statuses <= {OK, ERROR}  # typed outcomes, nothing hangs
        assert ERROR in statuses  # the blocked queue could not fully drain

    def test_cost_model_learns_per_adapter(self, engine, rng):
        scheduler = BatchScheduler(engine, queue_limit=8)
        try:
            done = scheduler.submit(
                ServeRequest(sample=images_for(rng, 1)[0], adapter="solo")
            )
            assert done.result(timeout=10.0).ok
            costs = scheduler.sample_costs()
            assert "solo" in costs and costs["solo"] > 0
        finally:
            scheduler.close()

    def test_cold_start_prior_seeds_from_the_first_measured_batch(self, engine, rng):
        from repro.serve.scheduler import DEFAULT_SAMPLE_SECONDS

        scheduler = BatchScheduler(engine, queue_limit=8)
        try:
            # Before any batch, the prior is the flat default.
            assert scheduler.default_sample_cost() == DEFAULT_SAMPLE_SECONDS
            done = scheduler.submit(
                ServeRequest(sample=images_for(rng, 1)[0], adapter="solo")
            )
            assert done.result(timeout=10.0).ok
            deadline = time.perf_counter() + 5.0
            while (
                scheduler.default_sample_cost() == DEFAULT_SAMPLE_SECONDS
                and time.perf_counter() < deadline
            ):
                time.sleep(0.005)
            seeded = scheduler.default_sample_cost()
            # A never-seen adapter now packs with measured reality, not
            # the flat 5 ms guess.
            assert seeded > 0 and seeded != DEFAULT_SAMPLE_SECONDS
        finally:
            scheduler.close()

    def test_warm_adapter_packing_ignores_the_cold_start_prior(self, engine, rng):
        release = threading.Event()
        original = engine.serve
        sizes = []

        def counted(requests):
            sizes.append(len(requests))
            return original(requests)

        def blocked(requests):
            release.wait(timeout=30.0)
            return counted(requests)

        engine.serve = counted
        scheduler = BatchScheduler(engine, queue_limit=8)
        try:
            samples = images_for(rng, 3)
            warm = scheduler.submit(ServeRequest(sample=samples[0], adapter="solo"))
            assert warm.result(timeout=10.0).ok  # "solo" now has an EMA entry
            engine.serve = blocked
            futures = [scheduler.submit(ServeRequest(sample=samples[0], adapter="solo"))]
            deadline = time.perf_counter() + 5.0
            while scheduler.depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
            # Queue two more while blocked, with an absurd cold-start prior:
            # a warm adapter's packing must use its own EMA, so both still
            # ride one batch.
            with scheduler._lock:
                scheduler._default_cost = 1e6
            futures += [
                scheduler.submit(ServeRequest(sample=sample, adapter="solo"))
                for sample in samples[1:3]
            ]
            release.set()
            assert all(future.result(timeout=10.0).ok for future in futures)
            assert sizes[:3] == [1, 1, 2]
        finally:
            release.set()
            engine.serve = original
            scheduler.close()


class TestFrontendIntegration:
    def test_ping_stats_and_single_round_trip(self, engine, rng):
        with ServingFrontend(engine) as frontend:
            host, port = frontend.address
            with ServeClient(host, port) as client:
                assert client.ping()
                sample = images_for(rng, 1)[0]
                result = client.serve(sample, adapter="solo")
                direct = engine.serve(ServeRequest(sample=sample, adapter="solo"))
                assert result.ok
                assert np.array_equal(result.require(), direct.require())
                assert result.timings.total_seconds > 0
                stats = client.stats()
                assert stats["serve.batches"]["calls"] >= 1
                assert "serve.request.rejected" in stats

    def test_wire_errors_are_responses_not_hangs(self, engine, rng):
        with ServingFrontend(engine) as frontend:
            host, port = frontend.address
            with ServeClient(host, port) as client:
                # Unknown adapter: typed error result.
                result = client.serve(images_for(rng, 1)[0], adapter="ghost")
                assert result.status == ERROR and "ghost" in result.error
                # Batched (rank-4) samples: batching is the scheduler's job.
                result = client.serve(images_for(rng, 2))
                assert result.status == ERROR and "single-sample" in result.error
                # Unknown op: error response with the id echoed.
                response, __ = client._roundtrip({"op": "shrug"})
                assert response["status"] == ERROR
                # The connection survived all three.
                assert client.ping()

    def test_garbage_frame_gets_an_error_frame(self, engine):
        from repro.serve.frontend import _LEN, _read_frame_sync

        with ServingFrontend(engine) as frontend:
            host, port = frontend.address
            sock = socket.create_connection((host, port), timeout=10.0)
            try:
                junk = b"not json"
                sock.sendall(_LEN.pack(len(junk)) + junk + _LEN.pack(0))
                header, __ = _read_frame_sync(sock)
                assert header["status"] == ERROR
                assert "header" in header["error"]
            finally:
                sock.close()

    def test_bind_failure_surfaces(self, engine):
        with ServingFrontend(engine) as frontend:
            host, port = frontend.address
            clash = ServingFrontend(engine, host=host, port=port)
            with pytest.raises(ServeError, match="failed to start"):
                clash.start_in_thread()

    def test_concurrent_clients_across_tenants_bit_identical(self, rng):
        """Acceptance: N clients x M tenants over a real socket; every
        result is bit-identical to its request served alone, whatever
        micro-batch it rode in."""
        engine = three_tenant_engine()
        names = ("static", "meta_a", "meta_b")
        pools = {name: images_for(rng, 4) for name in names}
        try:
            frontend = ServingFrontend(engine)
            with frontend:
                host, port = frontend.address
                outcomes: list[tuple[str, int, object]] = []
                errors: list[BaseException] = []
                lock = threading.Lock()

                def client_worker(worker: int) -> None:
                    try:
                        with ServeClient(host, port) as client:
                            for index in range(4):
                                name = names[(worker + index) % len(names)]
                                result = client.serve(
                                    pools[name][index], adapter=name
                                )
                                with lock:
                                    outcomes.append((name, index, result))
                    except BaseException as exc:
                        with lock:
                            errors.append(exc)

                threads = [
                    threading.Thread(target=client_worker, args=(worker,))
                    for worker in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not errors, errors
                assert len(outcomes) == 12
                assert all(result.ok for __, __, result in outcomes)
            for name, index, result in outcomes:
                direct = engine.serve(ServeRequest(sample=pools[name][index], adapter=name))
                assert np.array_equal(result.require(), direct.require())
        finally:
            engine.close()


class TestSLOPathsUnderStalls:
    def test_deadline_miss_and_queue_full_during_a_stalled_batch(
        self, engine, rng, monkeypatch
    ):
        """One injected batch stall (REPRO_FAULTS) makes the SLO paths
        deterministic: a queued request's budget lapses, and with
        ``queue_limit=1`` the next arrival is rejected."""
        monkeypatch.setenv("REPRO_FAULTS", "stall:serve.batch:1:0.6")
        samples = images_for(rng, 3)
        frontend = ServingFrontend(engine, queue_limit=1)
        with frontend:
            host, port = frontend.address
            slow_result: list[object] = []

            def slow_client() -> None:
                with ServeClient(host, port) as client:
                    slow_result.append(client.serve(samples[0], adapter="solo"))

            # Batch 0 forms around the first request and stalls 0.6 s.
            slow = threading.Thread(target=slow_client)
            slow.start()
            def batches_started() -> int:
                entry = frontend.scheduler.stats().get("serve.batches")
                return entry["calls"] if entry else 0

            deadline = time.perf_counter() + 5.0
            while batches_started() < 1 and time.perf_counter() < deadline:
                time.sleep(0.01)

            # Admitted during the stall with a 50 ms budget: by the time
            # batch 1 forms (~0.6 s later) the deadline has lapsed.
            missed_result: list[object] = []

            def missed_client() -> None:
                with ServeClient(host, port) as client:
                    missed_result.append(
                        client.serve(samples[1], adapter="solo", deadline=0.05)
                    )

            missed = threading.Thread(target=missed_client)
            missed.start()
            deadline = time.perf_counter() + 5.0
            while frontend.scheduler.depth() < 1 and time.perf_counter() < deadline:
                time.sleep(0.01)

            # The queue (limit 1) is now full: immediate 429-style answer.
            with ServeClient(host, port) as client:
                rejected = client.serve(samples[2], adapter="solo")
            assert rejected.status == REJECTED
            assert "queue full" in rejected.error

            slow.join(timeout=30.0)
            missed.join(timeout=30.0)
            assert slow_result and slow_result[0].ok
            assert missed_result and missed_result[0].status == DEADLINE_MISSED
            assert missed_result[0].timings.queue_seconds > 0.05

            stats = frontend.scheduler.stats()
            assert stats["serve.request.rejected"]["calls"] >= 1
            assert stats["serve.request.deadline_missed"]["calls"] >= 1
            assert sum(stats["serve.queue.depth"]["buckets"].values()) >= 1


class TestPerRequestTenantResolution:
    """An unknown or evicted tenant fails only its own requests, never the
    micro-batch it was co-batched with.  A ``REPRO_FAULTS`` stall on batch
    0 holds the worker while the mixed batch queues up behind it; a
    wrapped ``engine.serve`` keeps each batch the scheduler dispatches."""

    @staticmethod
    def stalled_scheduler(engine, rng, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall:serve.batch:1:0.3")
        original = engine.serve
        batches = []

        def kept(requests):
            batches.append(requests)
            return original(requests)

        engine.serve = kept
        # A generous cost budget: the stalled batch 0 teaches the cost
        # model ~0.3 s per sample, which must not split the next batch.
        scheduler = BatchScheduler(engine, target_batch_seconds=60.0)
        warm = scheduler.submit(
            ServeRequest(sample=images_for(rng, 1)[0], adapter="solo")
        )
        deadline = time.perf_counter() + 5.0
        while (
            scheduler.stats().get("serve.batches", {}).get("calls", 0) < 1
            and time.perf_counter() < deadline
        ):
            time.sleep(0.005)
        return scheduler, warm, batches

    def test_ghost_request_fails_alone_in_a_shared_batch(self, engine, rng, monkeypatch):
        scheduler, warm, batches = self.stalled_scheduler(engine, rng, monkeypatch)
        samples = images_for(rng, 2)
        try:
            valid = scheduler.submit(ServeRequest(sample=samples[0], adapter="solo"))
            ghost = scheduler.submit(ServeRequest(sample=samples[1], adapter="ghost"))
            assert warm.result(timeout=10.0).ok
            valid_result = valid.result(timeout=10.0)
            ghost_result = ghost.result(timeout=10.0)
        finally:
            scheduler.close()
        assert valid_result.ok, valid_result.error
        assert ghost_result.status == ERROR
        assert "unknown adapter 'ghost'" in ghost_result.error
        direct = engine.serve(ServeRequest(sample=samples[0], adapter="solo"))
        assert np.array_equal(valid_result.require(), direct.require())
        shared = batches[1]  # the two shared one batch
        assert [request.adapter for request in shared] == ["solo", "ghost"]

    def test_tenant_evicted_before_its_batch_runs_fails_only_its_requests(
        self, engine, rng, monkeypatch
    ):
        engine.register("doomed", static_lora_result(0))
        scheduler, warm, batches = self.stalled_scheduler(engine, rng, monkeypatch)
        samples = images_for(rng, 3)
        names = ["doomed", "solo", "doomed"]
        try:
            futures = [
                scheduler.submit(ServeRequest(sample=sample, adapter=name))
                for sample, name in zip(samples, names)
            ]
            engine.evict("doomed")  # after admission, before the batch runs
            assert warm.result(timeout=10.0).ok
            results = [future.result(timeout=10.0) for future in futures]
        finally:
            scheduler.close()
        assert results[1].ok, results[1].error
        for result in (results[0], results[2]):
            assert result.status == ERROR
            assert "unknown adapter 'doomed'" in result.error
        direct = engine.serve(ServeRequest(sample=samples[1], adapter="solo"))
        assert np.array_equal(results[1].require(), direct.require())
        shared = batches[1]  # the three shared one batch
        assert [request.adapter for request in shared] == names
