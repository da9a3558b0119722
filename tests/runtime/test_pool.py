"""Tests for the generic cell pool: determinism, fallback, crash isolation.

The worker functions live at module level so they pickle for the
``fork`` pool — the same constraint real cell functions are under.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ConfigError, WorkerError
from repro.runtime import (
    CellFailure,
    fork_available,
    raise_failures,
    resolve_jobs,
    run_cells,
)
from repro.obs import OBS, observed

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


def _double(x):
    return 2 * x


def _boom(x):
    if x == 2:
        raise ValueError(f"boom on {x}")
    return 10 * x


def _pid(_):
    return os.getpid()


def _marker(_):
    OBS.observe("pooltest.marker", 0.5, bytes=10)
    return True


class TestRunCells:
    def test_serial_values_in_input_order(self):
        results = run_cells(_double, [3, 1, 2], jobs=1)
        assert [r.key for r in results] == [3, 1, 2]
        assert [r.value for r in results] == [6, 2, 4]
        assert all(r.ok and r.seconds >= 0 for r in results)

    @needs_fork
    def test_parallel_matches_serial(self):
        serial = [r.value for r in run_cells(_double, list(range(8)), jobs=1)]
        parallel = [r.value for r in run_cells(_double, list(range(8)), jobs=2)]
        assert serial == parallel

    @needs_fork
    def test_parallel_runs_in_worker_processes(self):
        pids = {r.value for r in run_cells(_pid, [1, 2, 3, 4], jobs=2)}
        assert os.getpid() not in pids

    def test_serial_runs_in_process(self):
        pids = {r.value for r in run_cells(_pid, [1, 2, 3, 4], jobs=1)}
        assert pids == {os.getpid()}

    def test_single_cell_skips_the_pool(self):
        # One cell never justifies a fork, whatever --jobs says.
        results = run_cells(_pid, [1], jobs=4)
        assert results[0].value == os.getpid()

    def test_explicit_keys_label_results(self):
        results = run_cells(_double, [10, 20], jobs=1, keys=[("a", 0), ("a", 1)])
        assert [r.key for r in results] == [("a", 0), ("a", 1)]

    def test_keys_cells_length_mismatch_raises(self):
        with pytest.raises(ConfigError, match="keys"):
            run_cells(_double, [1, 2], jobs=1, keys=[1])


class TestCrashIsolation:
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_one_bad_cell_does_not_take_down_siblings(self, jobs):
        results = run_cells(_boom, [1, 2, 3], jobs=jobs)
        assert [r.ok for r in results] == [True, False, True]
        assert [r.value for r in results] == [10, None, 30]
        failure = results[1].failure
        assert isinstance(failure, CellFailure)
        assert failure.key == 2
        assert failure.error_type == "ValueError"
        assert failure.message == "boom on 2"
        assert "boom on 2" in failure.traceback  # remote traceback shipped home

    def test_raise_failures_summarizes(self):
        results = run_cells(_boom, [1, 2, 3], jobs=1)
        with pytest.raises(WorkerError, match=r"1/3 cells failed.*ValueError"):
            raise_failures(results)

    def test_raise_failures_is_noop_on_success(self):
        raise_failures(run_cells(_double, [1, 2], jobs=1))


class TestJobsResolution:
    def test_none_means_cpu_count(self):
        import multiprocessing

        assert resolve_jobs(None) == multiprocessing.cpu_count()

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("jobs", [0, -1, -8])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            resolve_jobs(jobs)


class TestPerfAndProfiler:
    @needs_fork
    def test_worker_profiler_counters_merge_into_parent(self):
        OBS.reset()
        try:
            with observed(trace=False):
                run_cells(_marker, [1, 2], jobs=2)
            counters = OBS.snapshot()
        finally:
            OBS.reset()
        assert counters["pooltest.marker"]["calls"] == 2
        assert counters["pooltest.marker"]["seconds"] == pytest.approx(1.0)

    def test_disabled_profiler_stays_clean(self):
        OBS.reset()
        run_cells(_marker, [1, 2], jobs=1)
        assert "pooltest.marker" not in OBS.snapshot()
