"""Tests for deterministic fault injection, retry/backoff and soft timeouts.

``REPRO_FAULTS`` turns the pool's failure handling into something
testable: a fault spec makes chosen cells crash or stall as a pure
function of ``(key, attempt)``, so every recovery path — retry, backoff,
timeout, exhaustion — is exercised deterministically.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CellTimeoutError,
    ConfigError,
    FaultInjected,
    WorkerError,
)
from repro.faults import (
    DEFAULT_STALL_SECONDS,
    FAULTS_ENV,
    FaultSpec,
    fire_faults,
    parse_faults,
    render_fault_key,
)
from repro.runtime.pool import raise_failures, run_cells
from repro.obs import observed


def _double(cell):
    return cell * 2


class TestParseFaults:
    def test_single_crash_spec(self):
        assert parse_faults("crash:0/lora") == (
            FaultSpec(kind="crash", key="0/lora"),
        )

    def test_full_stall_spec(self):
        (spec,) = parse_faults("stall:7:2:0.25")
        assert spec == FaultSpec(kind="stall", key="7", times=2, seconds=0.25)

    def test_defaults(self):
        (spec,) = parse_faults("stall:*")
        assert spec.times == -1
        assert spec.seconds == DEFAULT_STALL_SECONDS

    def test_multiple_specs(self):
        specs = parse_faults("crash:a; stall:b:1")
        assert [s.kind for s in specs] == ["crash", "stall"]

    def test_empty_chunks_skipped(self):
        assert parse_faults(" ; ;crash:a;") == (FaultSpec(kind="crash", key="a"),)

    @pytest.mark.parametrize(
        "raw",
        ["boom:a", "crash", "crash:", "crash:a:x", "stall:a:1:x", "stall:a:1:-1"],
    )
    def test_junk_rejected(self, raw):
        with pytest.raises(ConfigError):
            parse_faults(raw)


class TestFaultSpec:
    def test_wildcard_matches_everything(self):
        spec = FaultSpec(kind="crash", key="*")
        assert spec.matches("anything", 0)

    def test_transient_fires_only_on_early_attempts(self):
        spec = FaultSpec(kind="crash", key="k", times=2)
        assert spec.matches("k", 0)
        assert spec.matches("k", 1)
        assert not spec.matches("k", 2)

    def test_permanent_fires_on_every_attempt(self):
        spec = FaultSpec(kind="crash", key="k")
        assert spec.matches("k", 99)

    def test_tuple_keys_render_with_slashes(self):
        assert render_fault_key((0, "lora")) == "0/lora"
        assert render_fault_key("plain") == "plain"


class TestFireFaults:
    def test_noop_when_nothing_armed(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        fire_faults(("any", "key"))

    def test_crash_raises_fault_injected(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:0/lora")
        with pytest.raises(FaultInjected, match="0/lora"):
            fire_faults((0, "lora"))

    def test_other_keys_unaffected(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:0/lora")
        fire_faults((1, "lora"))


class TestRetry:
    def test_transient_fault_recovers_without_surfacing(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:3:1")  # first attempt only
        results = run_cells(_double, [2, 3, 4], max_retries=1, retry_backoff=0.0)
        assert [r.value for r in results] == [4, 6, 8]
        assert [r.attempts for r in results] == [1, 2, 1]
        raise_failures(results)  # nothing surfaced

    def test_exhaustion_surfaces_the_final_failure(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:3")  # permanent
        results = run_cells(_double, [2, 3], max_retries=2, retry_backoff=0.0)
        failed = results[1]
        assert not failed.ok
        assert failed.attempts == 3
        assert failed.failure.error_type == "FaultInjected"
        with pytest.raises(WorkerError, match="FaultInjected"):
            raise_failures(results)

    def test_retry_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:3:1; crash:4")
        with observed(trace=False) as (metrics, __):
            metrics.reset()
            run_cells(_double, [3, 4], max_retries=2, retry_backoff=0.0)
            counters = metrics.snapshot()
        # Round 1 retries both failed cells, round 2 retries the permanent one.
        assert counters["retry.attempt"]["calls"] == 3
        assert counters["retry.backoff"]["calls"] == 2
        assert counters["retry.recovered"]["calls"] == 1
        assert counters["retry.exhausted"]["calls"] == 1
        assert counters["faults.crash"]["calls"] == 4

    def test_no_retries_by_default(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:3:1")
        results = run_cells(_double, [3])
        assert not results[0].ok
        assert results[0].attempts == 1

    def test_backoff_is_exponential(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:3")
        with observed(trace=False) as (metrics, __):
            metrics.reset()
            run_cells(_double, [3], max_retries=3, retry_backoff=0.001)
            counters = metrics.snapshot()
        # 0.001 + 0.002 + 0.004 between the four attempts.
        assert counters["retry.backoff"]["seconds"] == pytest.approx(0.007)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ConfigError, match="max_retries"):
            run_cells(_double, [1], max_retries=-1)
        with pytest.raises(ConfigError, match="retry_backoff"):
            run_cells(_double, [1], retry_backoff=-0.1)


class TestTimeout:
    def test_stalled_cell_becomes_a_cell_failure(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "stall:3:-1:30")
        with observed(trace=False) as (metrics, __):
            metrics.reset()
            results = run_cells(_double, [2, 3], cell_timeout=0.2)
            counters = metrics.snapshot()
        ok, stalled = results
        assert ok.value == 4
        assert not stalled.ok
        assert stalled.failure.error_type == CellTimeoutError.__name__
        assert "0.2s soft timeout" in stalled.failure.message
        assert counters["timeout.cell"]["calls"] == 1

    def test_timed_out_cell_is_retryable(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "stall:3:1:30")  # stalls first attempt only
        results = run_cells(
            _double, [3], cell_timeout=0.2, max_retries=1, retry_backoff=0.0
        )
        assert results[0].ok
        assert results[0].value == 6
        assert results[0].attempts == 2

    def test_no_timeout_by_default(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "stall:3:-1:0.05")  # brief stall, no limit
        results = run_cells(_double, [3])
        assert results[0].ok


class TestStreaming:
    def test_on_result_fires_once_per_final_outcome(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:3:1; crash:4")
        seen = []
        run_cells(
            _double,
            [2, 3, 4],
            max_retries=1,
            retry_backoff=0.0,
            on_result=lambda result: seen.append((result.key, result.ok)),
        )
        assert sorted(seen) == [(2, True), (3, True), (4, False)]

    def test_successes_stream_before_the_batch_finishes(self):
        order = []

        def spy(result):
            order.append(result.key)

        run_cells(_double, [1, 2, 3], on_result=spy)
        assert order == [1, 2, 3]
