"""Smoke test for the ``repro bench`` harness: suites, records, formatting.

Validator teeth live in ``test_record_schema.py``.
"""

import json

import pytest

from repro.bench import (
    SCHEMA,
    format_bench_record,
    validate_bench_record,
    write_bench_records,
)

pytestmark = pytest.mark.bench_smoke


class TestBenchSmoke:
    def test_write_bench_records_emits_valid_json(self, tmp_path):
        paths = write_bench_records(str(tmp_path), scale="tiny", repeats=1)
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["BENCH_serve.json"]
        with open(paths[0], encoding="utf-8") as handle:
            record = json.load(handle)
        validate_bench_record(record)  # schema round-trips through JSON
        assert record["schema"] == SCHEMA
        for entry in record["entries"]:
            assert entry["optimized_seconds"] > 0
            assert entry["max_abs_diff"] == 0.0  # compiled matches autograd

    def test_optimized_paths_report_cache_activity(self, fresh_record):
        record = fresh_record("serve")
        counters = {name for e in record["entries"] for name in e["counters"]}
        assert "einsum.plan_cache.hit" in counters

    def test_format_is_human_readable(self, fresh_record):
        text = format_bench_record(fresh_record("serve"))
        assert "speedup" in text
        assert "geomean" in text


class TestServeBench:
    def test_serve_bench_is_bit_exact_and_validates(self, fresh_record):
        record = fresh_record("serve")
        validate_bench_record(record)
        assert record["kind"] == "serve"
        names = [entry["name"] for entry in record["entries"]]
        assert names == ["serve.resnet", "serve.mixer", "serve.resnet+meta_tr"]
        for entry in record["entries"]:
            # Exactness is asserted in-process; the record pins it too.
            assert entry["max_abs_diff"] == 0.0
            assert entry["samples"] >= 1 and entry["batch_size"] >= 1
            assert entry["throughput"]["compiled"] > 0
        assert "throughput (samples/s)" in format_bench_record(record)

    def test_write_bench_records_rejects_unknown_suites(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench suite"):
            write_bench_records(str(tmp_path), suites=("nope",))
        with pytest.raises(ValueError, match="unknown bench suite"):
            write_bench_records(str(tmp_path), suites=("load",))

    def test_suite_subset_writes_only_that_file(self, tmp_path):
        paths = write_bench_records(
            str(tmp_path), scale="tiny", repeats=1, suites=("serve",)
        )
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["BENCH_serve.json"]


class TestPrecisionSection:
    def test_precision_matrix_validates_and_formats(self, fresh_record):
        record = fresh_record("serve")
        validate_bench_record(record)
        precision = record["precision"]
        assert set(precision["budgets"]) == {"f32"}
        names = [backbone["name"] for backbone in precision["backbones"]]
        assert names == ["resnet", "mixer"]
        for backbone in precision["backbones"]:
            # Identity + accuracy checks run in-process; the record pins them.
            assert backbone["f64_bit_identical"] is True
            accuracy = backbone["knn"]["accuracy"]
            assert set(accuracy) == {"f64", "f32"}
            for tier, drop in backbone["knn"]["max_drop"].items():
                assert drop <= precision["budgets"][tier]
            tiers = {row["precision"] for row in backbone["rows"]}
            assert tiers == {"f64", "f32"}
            for row in backbone["rows"]:
                if row["precision"] == "f64":
                    assert row["max_abs_err_vs_f64"] == 0.0
        assert precision["best_speedup_vs_f64"] > 0
        text = format_bench_record(record)
        assert "precision matrix" in text
        assert "\n    f32 " in text
        assert "fuse" not in text
