"""MetricsRegistry semantics: kinds, labels, merge, the disabled fast path."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import OBS, MetricsRegistry, observed
from repro.obs.metrics import parse_name, render_name


def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


class TestKinds:
    def test_counter_accumulates_calls_and_payloads(self):
        reg = registry()
        reg.inc("op", 2, seconds=0.5, bytes=10)
        reg.inc("op", 1, bytes=6)
        entry = reg.snapshot()["op"]
        assert entry == {"kind": "counter", "calls": 3, "seconds": 0.5, "bytes": 16}

    def test_timer_counts_each_observation(self):
        reg = registry()
        reg.observe("sweep", 0.25, bytes=8)
        reg.observe("sweep", 0.75)
        entry = reg.snapshot()["sweep"]
        assert entry == {"kind": "timer", "calls": 2, "seconds": 1.0, "bytes": 8}

    def test_gauge_is_last_value_wins(self):
        reg = registry()
        reg.gauge("loss", 2.5)
        reg.gauge("loss", 1.25)
        entry = reg.snapshot()["loss"]
        assert entry["kind"] == "gauge"
        assert entry["value"] == 1.25
        assert entry["calls"] == 2

    def test_histogram_buckets_exact_values(self):
        reg = registry()
        reg.hist("batch.size", 8)
        reg.hist("batch.size", 8)
        reg.hist("batch.size", 32)
        entry = reg.snapshot()["batch.size"]
        assert entry["kind"] == "histogram"
        assert entry["buckets"] == {"8": 2, "32": 1}
        assert entry["calls"] == 3

    def test_time_context_records_a_timer(self):
        reg = registry()
        with reg.time("block"):
            pass
        entry = reg.snapshot()["block"]
        assert entry["kind"] == "timer" and entry["calls"] == 1

    def test_kind_conflict_raises(self):
        reg = registry()
        reg.inc("name")
        with pytest.raises(ObsError, match="is a counter, not a gauge"):
            reg.gauge("name", 1.0)


class TestLabels:
    def test_labels_render_sorted_and_parse_back(self):
        reg = registry()
        reg.inc("cells", method="lora", seed=0)
        (rendered,) = reg.snapshot()
        assert rendered == "cells{method=lora,seed=0}"
        assert parse_name(rendered) == ("cells", (("method", "lora"), ("seed", "0")))

    def test_distinct_labels_are_distinct_series(self):
        reg = registry()
        reg.inc("cells", method="lora")
        reg.inc("cells", method="original")
        reg.inc("cells", method="lora")
        snap = reg.snapshot()
        assert snap["cells{method=lora}"]["calls"] == 2
        assert snap["cells{method=original}"]["calls"] == 1

    def test_render_name_without_labels_is_the_name(self):
        assert render_name("plain", ()) == "plain"
        assert parse_name("plain") == ("plain", ())


class TestDisabledFastPath:
    def test_enabled_is_a_plain_attribute(self):
        # The zero-cost contract: the hot-path guard is one attribute
        # read, not a property call.
        assert "enabled" in vars(MetricsRegistry())

    def test_disabled_records_touch_no_series_machinery(self, monkeypatch):
        reg = MetricsRegistry(enabled=False)

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("disabled registry resolved a series")

        monkeypatch.setattr(reg, "_series_for", boom)
        reg.inc("op")
        reg.observe("op2", 0.5)
        reg.gauge("g", 1.0)
        reg.hist("h", 3)
        with reg.time("t"):
            pass
        assert reg.snapshot() == {}

    def test_inc_ignores_nonpositive_counts(self):
        reg = registry()
        reg.inc("op", 0)
        reg.inc("op", -3)
        assert reg.snapshot() == {}


class TestSnapshotsAndMerge:
    def test_snapshot_is_sorted_and_json_round_trips(self):
        reg = registry()
        reg.inc("z.last")
        reg.inc("a.first")
        snap = reg.snapshot()
        assert list(snap) == ["a.first", "z.last"]
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_folds_counters_gauges_and_buckets(self):
        source = registry()
        source.inc("op", 2, seconds=0.5, bytes=4)
        source.gauge("loss", 0.75)
        source.hist("sizes", 8)
        target = registry()
        target.inc("op", 1)
        target.gauge("loss", 9.0)
        target.hist("sizes", 8)
        target.merge(source.snapshot())
        snap = target.snapshot()
        assert snap["op"]["calls"] == 3
        assert snap["op"]["seconds"] == 0.5
        assert snap["loss"]["value"] == 0.75  # gauges adopt the incoming value
        assert snap["sizes"]["buckets"] == {"8": 2}

    def test_merge_works_while_disabled(self):
        target = MetricsRegistry(enabled=False)
        target.merge({"op": {"kind": "counter", "calls": 2, "seconds": 0.0, "bytes": 0}})
        assert target.snapshot()["op"]["calls"] == 2

    def test_merge_rejects_unknown_kind(self):
        with pytest.raises(ObsError, match="unknown kind"):
            registry().merge({"op": {"kind": "meter", "calls": 1}})

    def test_totals_reports_calls_seconds_bytes(self):
        reg = registry()
        reg.inc("op", 2, seconds=0.5, bytes=4)
        assert reg.totals() == {"op": (2, 0.5, 4)}

    def test_reset_clears_series(self):
        reg = registry()
        reg.inc("op")
        reg.reset()
        assert reg.snapshot() == {}


class TestObservedContext:
    def test_observed_enables_and_restores(self):
        from repro.obs import TRACER

        assert not OBS.enabled and not TRACER.enabled
        with observed() as (metrics, tracer):
            assert metrics.enabled and tracer.enabled
        assert not OBS.enabled and not TRACER.enabled

    def test_observed_can_enable_metrics_only(self):
        from repro.obs import TRACER

        with observed(trace=False):
            assert OBS.enabled and not TRACER.enabled


class TestInstrumentedOps:
    """The autograd hot paths report into :data:`OBS` while it is enabled."""

    def test_einsum_counters_fire(self, rng):
        from repro.autograd import Tensor, ops

        ops.clear_einsum_plan_cache()
        with observed(trace=False):
            a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            ops.einsum("ij,jk->ik", a, b).sum().backward()
        counters = OBS.snapshot()
        assert counters["einsum.forward"]["calls"] >= 1
        assert counters["einsum.backward"]["calls"] >= 1

    def test_conv_counters_fire(self, rng):
        from repro.autograd import Tensor, conv_ops

        conv_ops.clear_conv_caches()
        with observed(trace=False):
            x = Tensor(rng.normal(size=(1, 2, 6, 6)))
            w = Tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True)
            conv_ops.conv2d(x, w, None, stride=1, padding=1).sum().backward()
        counters = OBS.snapshot()
        assert counters["conv2d.forward"]["calls"] >= 1
        assert counters["conv2d.backward"]["calls"] >= 1
