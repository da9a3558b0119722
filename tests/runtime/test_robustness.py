"""Acceptance tests for the robustness grid: durability + the clean pin.

Mirrors the Table I resume acceptance (``test_resume.py``) on the
four-axis grid: a run killed mid-flight (deterministic fault injection,
key ``seed/method/corruption/severity``) must resume from its run
directory re-running only the missing cells, bit-identical to an
uninterrupted run.  On top, the robustness-specific structural pin:
severity-0 cells equal the clean Table I evaluation **exactly**.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import CheckpointError, ConfigError, WorkerError
from repro.eval.protocol import Table1Config, run_table1
from repro.eval.robustness import RobustnessConfig
from repro.faults import FAULTS_ENV
from repro.runtime import run_robustness_grid

#: A reduced grid keeps this file fast; the durability scheme is
#: key-generic and does not depend on the axis contents.
METHODS = ("original", "lora")
CORRUPTIONS = ("contrast",)
SEVERITIES = (0, 3)


@pytest.fixture(scope="module")
def config():
    return RobustnessConfig(
        table1=replace(Table1Config().quick(), methods=METHODS),
        corruptions=CORRUPTIONS,
        severities=SEVERITIES,
        stream_methods=("lora",),
    )


@pytest.fixture(scope="module")
def serial(config):
    return run_robustness_grid(config, (0,))


class TestCleanPin:
    def test_severity_zero_equals_table1(self, config, serial):
        clean = run_table1(config.table1, 0)
        for method in METHODS:
            cell = serial.cells[(0, method, "contrast", 0)]
            assert cell.accuracy_by_k == clean[method].accuracy_by_k

    def test_corruption_moves_accuracy_only_at_nonzero_severity(self, serial):
        # Not a strict inequality on accuracy (a corrupted set *can* tie),
        # but the grid must carry both rungs for every method.
        for method in METHODS:
            assert (0, method, "contrast", 0) in serial.cells
            assert (0, method, "contrast", 3) in serial.cells


class TestResume:
    def test_killed_run_resumes_bit_identical(
        self, config, serial, tmp_path, monkeypatch
    ):
        root = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "crash:0/lora/contrast/3")
        with pytest.raises(WorkerError, match="lora/contrast/3"):
            run_robustness_grid(config, (0,), out_dir=root)
        monkeypatch.delenv(FAULTS_ENV)

        grid = run_robustness_grid(config, (0,), resume=root)
        assert grid.restored == sorted(
            key for key in serial.cells if key != (0, "lora", "contrast", 3)
        )
        # Only the missing cell's context group was rebuilt.
        assert [r.key for r in grid.cell_results] == [
            ("context", (0, "lora")),
            (0, "lora", "contrast", 3),
        ]
        assert set(grid.cells) == set(serial.cells)
        for key in serial.cells:
            assert grid.cells[key].accuracy_by_k == serial.cells[key].accuracy_by_k

    def test_parallel_matches_serial(self, config, serial):
        grid = run_robustness_grid(config, (0,), jobs=2)
        assert set(grid.cells) == set(serial.cells)
        for key in serial.cells:
            assert grid.cells[key].accuracy_by_k == serial.cells[key].accuracy_by_k

    def test_fully_completed_run_resumes_without_recompute(
        self, config, serial, tmp_path
    ):
        root = tmp_path / "run"
        run_robustness_grid(config, (0,), out_dir=root)
        grid = run_robustness_grid(config, (0,), resume=root)
        assert len(grid.restored) == len(serial.cells)
        assert grid.cell_results == []  # no contexts, no cells

    def test_resume_under_different_config_refused(self, config, tmp_path):
        root = tmp_path / "run"
        run_robustness_grid(config, (0,), out_dir=root)
        other = replace(config, severities=(0, 4))
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            run_robustness_grid(other, (0,), resume=root)

    def test_no_seeds_refused(self, config):
        with pytest.raises(ConfigError, match="at least one seed"):
            run_robustness_grid(config, ())
