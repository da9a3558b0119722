"""The durability acceptance test: kill a grid mid-run, resume, compare.

A run killed partway (simulated with deterministic fault injection) must
resume from its run directory re-running only the missing cells, and the
final rows must be **bit-identical** to an uninterrupted serial
:func:`repro.eval.protocol.run_table1` — accuracies compared with ``==``,
not ``allclose``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import CheckpointError, WorkerError
from repro.eval.protocol import Table1Config, run_table1
from repro.faults import FAULTS_ENV
from repro.runtime import run_table1_grid

#: A reduced grid keeps this file fast; bit-identity is scheme-level and
#: does not depend on the method list.
METHODS = ("original", "lora", "multi_lora")


@pytest.fixture(scope="module")
def config():
    return replace(Table1Config().quick(), methods=METHODS)


@pytest.fixture(scope="module")
def serial_rows(config):
    return run_table1(config, 0)


class TestResume:
    def test_killed_run_resumes_bit_identical(
        self, config, serial_rows, tmp_path, monkeypatch
    ):
        root = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "crash:0/multi_lora")
        with pytest.raises(WorkerError, match="multi_lora"):
            run_table1_grid(config, (0,), out_dir=root)
        # The crash landed after the sibling cells were checkpointed.
        monkeypatch.delenv(FAULTS_ENV)

        grid = run_table1_grid(config, (0,), resume=root)
        assert grid.restored == sorted([(0, "original"), (0, "lora")])
        assert grid.run_dir == str(root)
        # Only the missing cell (plus its seed context) was re-run.
        assert [r.key for r in grid.cell_results] == [
            ("context", 0),
            (0, "multi_lora"),
        ]
        rows = grid.rows_by_seed[0]
        assert set(rows) == set(METHODS)
        for method in METHODS:
            assert rows[method].accuracy_by_k == serial_rows[method].accuracy_by_k

    def test_fully_completed_run_resumes_without_recompute(
        self, config, serial_rows, tmp_path
    ):
        root = tmp_path / "run"
        run_table1_grid(config, (0,), out_dir=root)
        grid = run_table1_grid(config, (0,), resume=root)
        assert len(grid.restored) == len(METHODS)
        assert grid.cell_results == []  # no contexts, no cells
        rows = grid.rows_by_seed[0]
        for method in METHODS:
            assert rows[method].accuracy_by_k == serial_rows[method].accuracy_by_k

    def test_fresh_out_dir_recomputes_everything(
        self, config, serial_rows, tmp_path
    ):
        root = tmp_path / "run"
        run_table1_grid(config, (0,), out_dir=root)
        again = run_table1_grid(config, (0,), out_dir=root)  # fresh, not resume
        assert again.restored == []
        assert len([r for r in again.cell_results if r.key[0] != "context"]) == len(
            METHODS
        )
        rows = again.rows_by_seed[0]
        for method in METHODS:
            assert rows[method].accuracy_by_k == serial_rows[method].accuracy_by_k

    def test_resume_under_different_config_refused(self, config, tmp_path):
        root = tmp_path / "run"
        run_table1_grid(config, (0,), out_dir=root)
        other = replace(config, adapt_episodes=config.adapt_episodes + 1)
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            run_table1_grid(other, (0,), resume=root)

    def test_resume_of_nonexistent_dir_refused(self, config, tmp_path):
        with pytest.raises(CheckpointError, match="not a run directory"):
            run_table1_grid(config, (0,), resume=tmp_path / "missing")
