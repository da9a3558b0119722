"""Tests for the sharded Table I grid.

The headline property: :func:`repro.runtime.run_table1_grid` is
**bit-identical** to the serial :func:`repro.eval.protocol.run_table1`
loop at any worker count, because every cell derives its RNG from its
``(seed, method)`` key alone.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigError, WorkerError
from repro.eval.protocol import (
    Table1Config,
    prepare_table1_seed,
    run_table1,
    run_table1_cell,
)
from repro.runtime import fork_available, run_table1_grid
from repro.runtime import table1 as table1_runtime

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


def _rows_equal(a, b):
    return set(a) == set(b) and all(
        a[m].accuracy_by_k == b[m].accuracy_by_k for m in a
    )


@needs_fork
def test_grid_bit_identical_to_serial_at_jobs_2():
    config = Table1Config().quick()
    serial = run_table1(config, seed=0)
    fallback = run_table1_grid(config, (0,), jobs=1)
    parallel = run_table1_grid(config, (0,), jobs=2)
    assert _rows_equal(fallback.rows_by_seed[0], serial)
    assert _rows_equal(parallel.rows_by_seed[0], serial)
    assert all(r.ok for r in parallel.cell_results)
    assert parallel.failures == []


def test_context_rebuilt_per_cell_equals_shared_context():
    """A cell run on its own freshly prepared seed context (what naive
    cell sharding does), in reverse method order, equals the cell run on
    the one context ``run_table1`` shares across methods."""
    config = replace(Table1Config().quick(), methods=("original", "lora", "meta_lora_tr"))
    shared = run_table1(config, seed=0)
    rebuilt = {
        method: run_table1_cell(config, prepare_table1_seed(config, 0), method)
        for method in reversed(config.methods)
    }
    assert _rows_equal(rebuilt, shared)


def test_empty_seeds_rejected():
    with pytest.raises(ConfigError, match="seed"):
        run_table1_grid(Table1Config().quick(), ())


class TestFailureHandling:
    """Failure semantics, exercised serially with a sabotaged cell fn —
    pool-level crash isolation is covered by the pool tests."""

    @pytest.fixture()
    def sabotaged(self, monkeypatch):
        config = Table1Config().quick()
        real = table1_runtime._run_cell

        def flaky(cell):
            if cell[2] == "lora":
                raise RuntimeError("sabotaged lora cell")
            return real(cell)

        monkeypatch.setattr(table1_runtime, "_run_cell", flaky)
        return config

    def test_strict_raises_after_grid_drains(self, sabotaged):
        with pytest.raises(WorkerError, match=r"sabotaged lora cell"):
            run_table1_grid(sabotaged, (0,), jobs=1)

    def test_non_strict_omits_failed_rows(self, sabotaged):
        grid = run_table1_grid(sabotaged, (0,), jobs=1, strict=False)
        rows = grid.rows_by_seed[0]
        assert "lora" not in rows
        assert set(rows) == set(sabotaged.methods) - {"lora"}
        assert [f.key for f in grid.failures] == [(0, "lora")]


