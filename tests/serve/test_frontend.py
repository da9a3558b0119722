"""The asyncio TCP frontend, its scheduler, and the wire protocol.

Integration runs over real sockets: concurrent clients across tenants,
with every result asserted bit-identical to its request served alone
through the engine directly.  Tests that check batch order or
composition see each batch through a wrapped ``engine.serve``.  SLO
paths (queue-full rejection, deadline-miss while queued) are driven
deterministically with ``REPRO_FAULTS`` batch stalls: the frontend runs
each batch on its event loop, so a stall holds admission until the
batch boundary.
"""

import logging
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


def batches_started(frontend) -> int:
    entry = frontend.scheduler.stats().get("serve.batches")
    return entry["calls"] if entry else 0


def wait_for(condition, timeout: float = 5.0) -> bool:
    deadline = time.perf_counter() + timeout
    while not condition() and time.perf_counter() < deadline:
        time.sleep(0.005)
    return condition()


def serve_frame(sample, request_id: int, **header) -> bytes:
    from repro.serve.frontend import encode_frame, encode_payload

    header = {"op": "serve", "id": request_id, "adapter": "solo", **header}
    return encode_frame(header, encode_payload(sample))


def read_answers(sock, count: int) -> dict:
    """``count`` response frames off ``sock``, keyed by their ``id``."""
    from repro.serve.frontend import _read_frame_sync, decode_payload

    answers = {}
    for __ in range(count):
        header, data = _read_frame_sync(sock)
        answers[header["id"]] = (header, decode_payload(data))
    return answers


def stalled_first_batch(frontend, sample) -> tuple[threading.Thread, list]:
    """Start one request on its own client; return its thread and the
    list its result lands in once batch 0 has started (and, under a
    ``REPRO_FAULTS`` stall, holds the loop)."""
    host, port = frontend.address
    outcome: list[object] = []

    def client() -> None:
        with ServeClient(host, port) as connection:
            outcome.append(connection.serve(sample, adapter="solo"))

    thread = threading.Thread(target=client)
    thread.start()
    assert wait_for(lambda: batches_started(frontend) >= 1)
    return thread, outcome


class TestSLOPathsUnderStalls:
    def test_deadline_miss_and_queue_full_during_a_stalled_batch(
        self, engine, rng, monkeypatch
    ):
        """Stalls on batches 0 and 1 (REPRO_FAULTS) make the SLO paths
        deterministic under batch-boundary admission: three frames
        pipelined during batch 0 are admitted in order once it ends —
        a low-priority one with a 50 ms budget, a high-priority one,
        and one the ``queue_limit=2`` queue rejects.  The high-priority
        request jumps ahead into the stalled batch 1, so the other's
        budget lapses in the queue."""
        monkeypatch.setenv("REPRO_FAULTS", "stall:serve.batch:2:0.6")
        samples = images_for(rng, 4)
        frontend = ServingFrontend(engine, queue_limit=2, max_batch=1)
        with frontend:
            slow, slow_result = stalled_first_batch(frontend, samples[0])
            with socket.create_connection(frontend.address, timeout=30.0) as sock:
                sock.sendall(
                    serve_frame(samples[1], 1, deadline=0.05, priority=0)
                    + serve_frame(samples[2], 2, priority=5)
                    + serve_frame(samples[3], 3)
                )
                answers = read_answers(sock, 3)
            slow.join(timeout=30.0)
            assert slow_result and slow_result[0].ok

            # The third arrival found the queue (limit 2) full.
            rejected, __ = answers[3]
            assert rejected["status"] == REJECTED
            assert "queue full" in rejected["error"]
            # Priority 5 rode the stalled batch 1 ...
            assert answers[2][0]["status"] == OK
            # ... while the 50 ms budget lapsed in the queue behind it.
            missed, __ = answers[1]
            assert missed["status"] == DEADLINE_MISSED
            assert missed["timings"]["queue_seconds"] > 0.05

            stats = frontend.scheduler.stats()
            assert stats["serve.request.rejected"]["calls"] >= 1
            assert stats["serve.request.deadline_missed"]["calls"] >= 1
            assert sum(stats["serve.queue.depth"]["buckets"].values()) >= 1


class TestBatchesOnTheLoop:
    """A frontend built from an engine runs every batch on its event
    loop: no scheduler thread, admission at batch boundaries, and a
    drain on the loop that answers every client."""

    def test_every_batch_runs_on_the_loop_thread(self, rng, monkeypatch):
        engine = three_tenant_engine()
        names = ("static", "meta_a", "meta_b")
        pools = {name: images_for(rng, 6) for name in names}
        threads_seen: set[int] = set()
        original = engine.serve

        def recorded(requests):
            threads_seen.add(threading.get_ident())
            return original(requests)

        monkeypatch.setattr(engine, "serve", recorded)
        try:
            frontend = ServingFrontend(engine)
            with frontend:
                host, port = frontend.address
                errors: list[BaseException] = []

                def client_worker(worker: int) -> None:
                    try:
                        with ServeClient(host, port) as client:
                            for index in range(6):
                                name = names[(worker + index) % len(names)]
                                result = client.serve(pools[name][index], adapter=name)
                                assert result.ok, result.error
                    except BaseException as exc:
                        errors.append(exc)

                clients = [
                    threading.Thread(target=client_worker, args=(worker,))
                    for worker in range(2)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60.0)
                assert not errors, errors
                running = {thread.name for thread in threading.enumerate()}
                assert "repro-serve-scheduler" not in running
                loop_thread = frontend._thread.ident
            assert threads_seen == {loop_thread}
            assert frontend.scheduler._worker is None
        finally:
            engine.close()

    def test_frames_read_during_a_stall_form_one_batch(self, engine, rng, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall:serve.batch:1:1.0")
        samples = images_for(rng, 9)
        frontend = ServingFrontend(engine, target_batch_seconds=60.0)
        with frontend:
            first, first_result = stalled_first_batch(frontend, samples[0])
            with socket.create_connection(frontend.address, timeout=30.0) as sock:
                sock.sendall(b"".join(serve_frame(samples[1 + i], i) for i in range(8)))
                # The loop is inside batch 0: nothing is admitted until
                # the batch boundary.
                time.sleep(0.2)
                assert frontend.scheduler.depth() == 0
                answers = read_answers(sock, 8)
            first.join(timeout=30.0)
            assert first_result and first_result[0].ok
            assert all(header["status"] == OK for header, __ in answers.values())
            for index, (__, row) in answers.items():
                direct = engine.serve(ServeRequest(sample=samples[1 + index], adapter="solo"))
                assert np.array_equal(row, direct.require())
            sizes = frontend.scheduler.stats()["serve.batch.size"]["buckets"]
            assert {float(size): count for size, count in sizes.items()} == {1.0: 1, 8.0: 1}

    def test_eof_ends_admission_not_the_answers(self, engine, rng, monkeypatch):
        """Four frames pipelined before a half-close, one per batch: the
        loop reads the EOF between batches, with requests still queued,
        and every one of them is still answered."""
        monkeypatch.setenv("REPRO_FAULTS", "stall:serve.batch:1:0.3")
        samples = images_for(rng, 5)
        frontend = ServingFrontend(engine, max_batch=1)
        with frontend:
            first, __ = stalled_first_batch(frontend, samples[0])
            with socket.create_connection(frontend.address, timeout=30.0) as sock:
                sock.sendall(b"".join(serve_frame(samples[1 + i], i) for i in range(4)))
                sock.shutdown(socket.SHUT_WR)
                answers = read_answers(sock, 4)
            first.join(timeout=30.0)
        assert sorted(answers) == [0, 1, 2, 3]
        assert all(header["status"] == OK for header, __ in answers.values())

    def test_stop_answers_every_queued_client(self, engine, rng, monkeypatch):
        """Batch 0 stalls 1 s, every later batch 0.4 s, and a drain has
        0.2 s.  Five clients, connected beforehand, send while batch 0
        holds the loop, so all five are queued at its end: ``stop()``
        serves what the budget allows and fails the rest with a typed
        ``error`` — no client hangs."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "stall:serve.batch:1:0.6;stall:serve.batch:-1:0.4"
        )
        samples = images_for(rng, 6)
        frontend = ServingFrontend(engine, max_batch=1, drain_timeout=0.2)
        frontend.start_in_thread()
        host, port = frontend.address
        clients = [ServeClient(host, port, timeout=30.0) for __ in range(5)]
        results: list[object] = []
        errors: list[BaseException] = []

        def serve(client, sample) -> None:
            try:
                results.append(client.serve(sample, adapter="solo"))
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=serve, args=pair) for pair in zip(clients, samples[1:])
        ]
        first, first_result = None, []
        try:
            for client in clients:
                assert client.ping()  # accepted: its connection is being read
            first, first_result = stalled_first_batch(frontend, samples[0])
            for thread in threads:
                thread.start()
            assert wait_for(lambda: frontend.scheduler.depth() >= 3, timeout=10.0)
        finally:
            started = time.perf_counter()
            frontend.stop_in_thread(timeout=30.0)
            stopped_in = time.perf_counter() - started
            for thread in threads + ([first] if first else []):
                thread.join(timeout=30.0)
            for client in clients:
                client.close()
        assert not errors, errors
        results += first_result
        assert len(results) == len(samples)
        assert {result.status for result in results} == {OK, ERROR}
        for result in results:
            if result.status == ERROR:
                assert "closed before serving" in result.error
        assert stopped_in < 5.0

    def test_stop_ends_an_idle_connection_without_an_error(self, engine, caplog):
        """A client connected but idle while the frontend stops: its
        handler ends on EOF rather than by cancellation, so no exception
        reaches the loop's exception handler or the ``asyncio`` logger."""
        frontend = ServingFrontend(engine)
        frontend.start_in_thread()
        reported: list[dict] = []
        frontend._loop.call_soon_threadsafe(
            frontend._loop.set_exception_handler, lambda loop, context: reported.append(context)
        )
        client = ServeClient(*frontend.address, timeout=30.0)
        try:
            assert client.ping()  # accepted, handler set: its connection is being read
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                frontend.stop_in_thread(timeout=30.0)
        finally:
            client.close()
        assert not reported, reported
        assert not [record for record in caplog.records if record.name == "asyncio"]


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
