"""Acceptance criteria for the observability layer.

Three properties the redesign promises:

- **zero-cost when disabled** — the instrumented hot paths never touch
  the registry machinery while ``OBS``/``TRACER`` are off,
- **bit-identical results** — observing a run changes nothing about its
  numerics (grid rows and embeddings compared with ``==``),
- **complete traces** — an observed grid exports a span for every cell,
  and the trainer publishes its loss/accuracy gauges and span tree.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.eval.embeddings import extract_embeddings
from repro.eval.protocol import Table1Config
from repro.models import resnet_small
from repro.nn import Linear, ReLU, Sequential
from repro.obs import OBS, TRACER, build_trees, load_trace, observed
from repro.runtime import run_table1_grid
from repro.train import SGD, Trainer


@pytest.fixture(scope="module")
def config():
    return replace(Table1Config().quick(), methods=("original", "lora"))


@pytest.fixture(scope="module")
def baseline(config):
    # No run directory, observability off: the reference numerics.
    return run_table1_grid(config, (0,), jobs=1)


def toy_trainer(rng):
    model = Sequential(Linear(8, 16, rng=rng), ReLU(), Linear(16, 3, rng=rng))
    x = rng.normal(size=(64, 8)).astype(np.float32)
    w = rng.normal(size=(8, 3)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return Trainer(model, SGD(model.parameters(), lr=0.1)), x, y


class TestDisabledOverhead:
    def test_instrumented_paths_never_touch_registry_machinery(
        self, monkeypatch, rng
    ):
        # The cost contract: with OBS/TRACER off, instrumentation is one
        # attribute check.  Booby-trap the registry internals and drive
        # the instrumented train/eval paths end to end — any recording
        # attempt past the guard trips the trap.
        assert not OBS.enabled and not TRACER.enabled

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("disabled observability touched the registry")

        monkeypatch.setattr(OBS, "_series_for", boom)
        trainer, x, y = toy_trainer(rng)
        trainer.fit(x, y, epochs=1, batch_size=16, rng=rng)
        trainer.evaluate(x, y)
        model = resnet_small(4, rng)
        images = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        extract_embeddings(model, images, batch_size=2)
        assert TRACER.drain() == []


class TestBitIdentity:
    def test_observed_grid_rows_match_unobserved(self, config, baseline, tmp_path):
        root = tmp_path / "run"
        watched = run_table1_grid(config, (0,), jobs=1, out_dir=root)
        # Observability restores the disabled default after the grid.
        assert not OBS.enabled and not TRACER.enabled
        plain_rows = baseline.rows_by_seed[0]
        watched_rows = watched.rows_by_seed[0]
        assert set(plain_rows) == set(watched_rows)
        for method in plain_rows:
            assert (
                plain_rows[method].accuracy_by_k
                == watched_rows[method].accuracy_by_k
            )

        # ... and the run directory holds a complete trace: one grid
        # root, one context span, one span per cell.
        records = load_trace(root / "trace.jsonl")
        (tree,) = build_trees(records)
        assert tree["name"] == "table1.grid"
        assert tree["status"] == "ok"
        contexts = [r for r in records if r["name"] == "table1.context"]
        assert [r["attrs"]["key"] for r in contexts] == [str(("context", 0))]
        cells = [r for r in records if r["name"] == "table1.cell"]
        assert sorted(r["attrs"]["key"] for r in cells) == sorted(
            str((0, method)) for method in config.methods
        )

    def test_extract_embeddings_identical_under_observation(self, rng):
        model = resnet_small(4, rng)
        images = rng.normal(size=(5, 3, 16, 16)).astype(np.float32)
        plain = extract_embeddings(model, images, batch_size=2)
        with observed():
            watched = extract_embeddings(model, images, batch_size=2)
            (root,) = TRACER.drain()
        assert np.array_equal(plain, watched)
        assert root["name"] == "eval.embed"
        assert root["attrs"] == {"samples": 5}


class TestTrainerObservability:
    def test_fit_publishes_gauges_and_a_span_tree(self, rng):
        trainer, x, y = toy_trainer(rng)
        with observed():
            trainer.fit(x, y, epochs=2, batch_size=16, rng=rng)
            trainer.evaluate(x, y)
            snap = OBS.snapshot()
            roots = TRACER.drain()
        assert snap["train.loss"]["kind"] == "gauge"
        assert snap["train.accuracy"]["kind"] == "gauge"
        assert snap["eval.accuracy"]["kind"] == "gauge"
        assert snap["train.step"]["calls"] == 2 * (64 // 16)

        fit = next(r for r in roots if r["name"] == "train.fit")
        epochs = [c for c in fit["children"] if c["name"] == "train.epoch"]
        assert [e["attrs"]["epoch"] for e in epochs] == [0, 1]
        first = epochs[0]["children"]
        assert sum(c["name"] == "train.step" for c in first) == 64 // 16
        # The per-epoch re-score shows up as eval inside the epoch, and
        # the explicit evaluate() call as its own root: the train-vs-eval
        # split the issue asks for.
        assert any(c["name"] == "eval.score" for c in first)
        assert [r["name"] for r in roots if r["name"] == "eval.score"] == [
            "eval.score"
        ]
