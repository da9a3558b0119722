"""Smoke test for the ``repro bench`` harness and its JSON schema."""

import json
from dataclasses import replace

import pytest

from repro.bench import (
    SCHEMA,
    format_bench_record,
    run_autograd_bench,
    run_load_bench,
    run_multi_tenant_bench,
    run_serve_bench,
    run_table1_parallel_bench,
    validate_bench_record,
    write_bench_records,
)
from repro.eval.protocol import Table1Config
from repro.runtime import fork_available

pytestmark = pytest.mark.bench_smoke


class TestBenchSmoke:
    def test_write_bench_records_emits_valid_json(self, tmp_path):
        paths = write_bench_records(str(tmp_path), scale="tiny", repeats=1)
        assert sorted(p.rsplit("/", 1)[-1] for p in paths) == [
            "BENCH_autograd.json",
            "BENCH_serve.json",
            "BENCH_table1.json",
        ]
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
            validate_bench_record(record)  # schema round-trips through JSON
            assert record["schema"] == SCHEMA
            for entry in record["entries"]:
                assert entry["optimized_seconds"] > 0
                assert entry["max_abs_diff"] < 1e-8  # optimized matches reference

    def test_optimized_paths_report_cache_activity(self):
        record = run_autograd_bench(scale="tiny", repeats=1)
        counters = {name for e in record["entries"] for name in e["counters"]}
        assert "einsum.plan_cache.hit" in counters
        assert "conv2d.patches_cache.hit" in counters

    def test_format_is_human_readable(self):
        record = run_autograd_bench(scale="tiny", repeats=1)
        text = format_bench_record(record)
        assert "speedup" in text
        assert "geomean" in text

    def test_validate_rejects_corrupt_records(self):
        record = run_autograd_bench(scale="tiny", repeats=1)
        for corrupt in (
            {**record, "schema": "wrong/v0"},
            {**record, "kind": "nope"},
            {**record, "entries": []},
            {**record, "summary": {}},
        ):
            with pytest.raises(ValueError, match="invalid bench record"):
                validate_bench_record(corrupt)
        broken_entry = json.loads(json.dumps(record))
        broken_entry["entries"][0]["speedup"] = float("nan")
        with pytest.raises(ValueError, match="speedup"):
            validate_bench_record(broken_entry)


class TestServeBench:
    def test_serve_bench_is_bit_exact_and_validates(self):
        record = run_serve_bench(scale="tiny", repeats=1)
        validate_bench_record(json.loads(json.dumps(record)))
        assert record["kind"] == "serve"
        names = [entry["name"] for entry in record["entries"]]
        assert names == ["serve.resnet", "serve.mixer", "serve.resnet+meta_tr"]
        for entry in record["entries"]:
            # Exactness is asserted in-process; the record pins it too.
            assert entry["max_abs_diff"] == 0.0
            assert entry["samples"] >= 1 and entry["batch_size"] >= 1
            assert entry["throughput"]["compiled"] > 0
            assert entry["latency_ms"]["compiled_p99"] >= entry["latency_ms"]["compiled_p50"]
        text = format_bench_record(record)
        assert "throughput (samples/s)" in text
        assert "latency p50/p99" in text

    def test_validate_rejects_corrupt_serve_records(self):
        record = json.loads(json.dumps(run_serve_bench(scale="tiny", repeats=1)))
        for mutate, match in (
            (lambda e: e.update(max_abs_diff=1e-9), "bit-exact"),
            (lambda e: e.update(samples=0), "samples"),
            (lambda e: e.pop("throughput"), "throughput"),
            (lambda e: e["latency_ms"].pop("compiled_p99"), "compiled_p99"),
            (lambda e: e.update(batched_autograd_seconds=0.0), "batched_autograd_seconds"),
        ):
            corrupt = json.loads(json.dumps(record))
            mutate(corrupt["entries"][0])
            with pytest.raises(ValueError, match=match):
                validate_bench_record(corrupt)

    def test_write_bench_records_rejects_unknown_suites(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench suite"):
            write_bench_records(str(tmp_path), suites=("nope",))

    def test_suite_subset_writes_only_that_file(self, tmp_path):
        paths = write_bench_records(
            str(tmp_path), scale="tiny", repeats=1, suites=("serve",)
        )
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["BENCH_serve.json"]


class TestPrecisionSection:
    @pytest.fixture(scope="class")
    def record(self):
        return json.loads(json.dumps(run_serve_bench(scale="tiny", repeats=1)))

    def test_precision_matrix_validates_and_formats(self, record):
        validate_bench_record(record)
        precision = record["precision"]
        assert set(precision["budgets"]) == {"f32", "int8"}
        names = [backbone["name"] for backbone in precision["backbones"]]
        assert names == ["resnet", "mixer"]
        for backbone in precision["backbones"]:
            # Identity + accuracy checks run in-process; the record pins them.
            assert backbone["f64_bit_identical"] is True
            accuracy = backbone["knn"]["accuracy"]
            assert set(accuracy) == {"f64", "f32", "int8"}
            for tier, drop in backbone["knn"]["max_drop"].items():
                assert drop <= precision["budgets"][tier]
            tiers = {row["precision"] for row in backbone["rows"]}
            assert tiers == {"f64", "f32", "int8"}
            for row in backbone["rows"]:
                if row["precision"] == "f64":
                    assert row["max_abs_err_vs_f64"] == 0.0
        assert precision["best_speedup_vs_f64"] > 0
        text = format_bench_record(record)
        assert "precision matrix" in text
        assert "f32+fuse" in text

    def test_validate_rejects_corrupt_precision_sections(self, record):
        def corrupted(mutate):
            clone = json.loads(json.dumps(record))
            mutate(clone["precision"])
            return clone

        for mutate, match in (
            (lambda p: p.update(budgets={"f32": 0.02}), "budgets"),
            (lambda p: p.update(backbones=[]), "backbones"),
            (
                lambda p: p["backbones"][0].update(f64_bit_identical=False),
                "f64_bit_identical",
            ),
            (
                lambda p: p["backbones"][0]["knn"]["max_drop"].update(int8=0.9),
                "KNN drop",
            ),
            (
                lambda p: p["backbones"][0]["rows"][0].update(
                    max_abs_err_vs_f64=1e-9
                ),
                "bit-exact",
            ),
            (lambda p: p.update(best_speedup_vs_f64=float("nan")), "best_speedup"),
        ):
            with pytest.raises(ValueError, match=match):
                validate_bench_record(corrupted(mutate))
        # The section is serve-only.
        autograd = run_autograd_bench(scale="tiny", repeats=1)
        with pytest.raises(ValueError, match="serve-only"):
            validate_bench_record({**autograd, "precision": record["precision"]})


class TestMultiTenantBenchSection:
    def test_multi_tenant_section_validates_and_formats(self):
        record = run_serve_bench(scale="tiny", repeats=1, tenants=3)
        multi = record["multi_tenant"]
        assert multi["tenants"] == 3
        assert multi["seed_slot_tenants"] == 2
        assert multi["static_tenants"] == 1
        assert multi["swaps"] == 1
        # Identity is asserted in-process; the record pins it too.
        assert multi["bit_identical"] is True
        # Seed-slot tenants shared extractor/body compilations.
        assert multi["program_cache"]["hit"] >= 1
        assert multi["speedup"] > 0
        assert multi["seed_slot"]["speedup"] > 0
        validate_bench_record(json.loads(json.dumps(record)))
        text = format_bench_record(record)
        assert "multi-tenant" in text
        assert "seed-slot only" in text
        assert "program cache" in text

    def test_tenants_zero_disables_the_section(self):
        record = run_serve_bench(scale="tiny", repeats=1, tenants=0)
        assert "multi_tenant" not in record

    def test_too_few_tenants_rejected(self):
        with pytest.raises(ValueError, match=">= 3 tenants"):
            run_multi_tenant_bench(scale="tiny", repeats=1, tenants=2)

    def test_validate_rejects_corrupt_multi_tenant_sections(self):
        base = json.loads(
            json.dumps(run_serve_bench(scale="tiny", repeats=1, tenants=0))
        )
        good = {
            "tenants": 3,
            "seed_slot_tenants": 2,
            "static_tenants": 1,
            "rounds": 4,
            "per_tenant": 1,
            "requests": 12,
            "swaps": 1,
            "serial_seconds": 1.0,
            "grouped_seconds": 0.5,
            "speedup": 2.0,
            "seed_slot": {
                "serial_seconds": 0.8,
                "grouped_seconds": 0.4,
                "speedup": 2.0,
            },
            "throughput": {"serial": 12.0, "grouped": 24.0},
            "program_cache": {"hit": 4, "miss": 5, "evict": 0, "hit_rate": 4 / 9},
            "bit_identical": True,
        }
        validate_bench_record({**base, "multi_tenant": good})
        autograd = run_autograd_bench(scale="tiny", repeats=1)
        for corrupt, match in (
            ({**autograd, "multi_tenant": good}, "serve-only"),
            ({**base, "multi_tenant": {**good, "tenants": 2}}, "tenants"),
            (
                {**base, "multi_tenant": {**good, "seed_slot": {}}},
                "seed_slot",
            ),
            (
                {**base, "multi_tenant": {**good, "speedup": float("nan")}},
                "speedup",
            ),
            (
                {
                    **base,
                    "multi_tenant": {
                        **good,
                        "program_cache": {**good["program_cache"], "hit": 0},
                    },
                },
                "hit",
            ),
            (
                {
                    **base,
                    "multi_tenant": {
                        **good,
                        "program_cache": {**good["program_cache"], "hit_rate": 1.5},
                    },
                },
                "hit_rate",
            ),
            (
                {**base, "multi_tenant": {**good, "bit_identical": False}},
                "bit_identical",
            ),
        ):
            with pytest.raises(ValueError, match=match):
                validate_bench_record(corrupt)


class TestLoadBench:
    @pytest.fixture(scope="class")
    def record(self):
        # A real frontend + loadgen run, shortened: three offered-load
        # levels at 0.3 s each still exercise admission, batching and the
        # per-batch replay identity check end to end.  ``shards=0`` skips
        # the scaling sweep — TestScalingSection covers it separately.
        return json.loads(
            json.dumps(
                run_load_bench(scale="tiny", repeats=1, duration=0.3, shards=0)
            )
        )

    def test_load_record_validates_and_formats(self, record):
        validate_bench_record(record)
        assert record["kind"] == "load"
        assert record["capacity_estimate_rps"] > 0
        levels = record["load"]["levels"]
        assert len(levels) >= 3
        offered = [level["offered_rate"] for level in levels]
        assert offered == sorted(offered) and len(set(offered)) == len(offered)
        for level in levels:
            assert level["sent"] >= 1
            assert level["completed"] == (
                level["ok"] + level["rejected"] + level["deadline_missed"]
            )
            latency = level["latency_ms"]
            assert latency["p50"] <= latency["p99"] <= latency["p999"]
            assert level["queue_depth"] and level["batch_size"]
        # Identity is asserted in-process; the record pins it too.
        assert record["bit_identical"] is True
        assert record["replayed_batches"] >= 1
        text = format_bench_record(record)
        assert "offered" in text and "p999" in text
        assert "bit-identical: True" in text

    def test_validate_rejects_corrupt_load_records(self, record):
        def corrupted(mutate):
            clone = json.loads(json.dumps(record))
            mutate(clone)
            return clone

        for mutate, match in (
            (lambda r: r["load"]["levels"].pop(), ">= 3 offered-load levels"),
            (
                lambda r: r["load"]["levels"][2].update(
                    offered_rate=r["load"]["levels"][0]["offered_rate"]
                ),
                "strictly increasing",
            ),
            (lambda r: r["load"]["levels"][0].update(sent=0), "sent"),
            (
                lambda r: r["load"]["levels"][0]["latency_ms"].pop("p999"),
                "latency_ms.p999",
            ),
            (
                lambda r: r["load"]["levels"][0]["latency_ms"].update(p50=9e9),
                "non-decreasing",
            ),
            (
                lambda r: r["load"]["levels"][0].update(queue_depth={}),
                "queue_depth",
            ),
            (
                lambda r: r["load"]["levels"][0]["counters"].pop(
                    "serve.request.rejected"
                ),
                "counters",
            ),
            (lambda r: r.update(bit_identical=False), "bit_identical"),
            (lambda r: r.update(replayed_batches=0), "replayed_batches"),
            (lambda r: r.update(summary={}), "peak_achieved_rate"),
            (lambda r: r["server"].update(queue_limit=0), "queue_limit"),
        ):
            with pytest.raises(ValueError, match=match):
                validate_bench_record(corrupted(mutate))

    def test_load_bench_rejects_bad_level_plans(self):
        with pytest.raises(ValueError, match=">= 3 offered-load levels"):
            run_load_bench(scale="tiny", load_factors=(0.5, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            run_load_bench(scale="tiny", load_factors=(1.0, 0.5, 2.0))

    def test_shards_below_two_skip_the_scaling_section(self, record):
        assert "scaling" not in record

    def test_load_suite_is_opt_in(self, tmp_path):
        paths = write_bench_records(
            str(tmp_path), scale="tiny", repeats=1, suites=("load",),
            load_duration=0.3, shards=0,
        )
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["BENCH_load.json"]
        with open(paths[0], encoding="utf-8") as handle:
            validate_bench_record(json.load(handle))


class TestScalingSection:
    @pytest.fixture(scope="class")
    def record(self):
        # 1 and 2 shards, two short offered-load levels each, per-shard
        # capacity probes and recorded-batch replays included — the full
        # scaling machinery at the smallest non-trivial size.
        return json.loads(
            json.dumps(
                run_load_bench(scale="tiny", repeats=1, duration=0.25, shards=2)
            )
        )

    def test_scaling_section_validates_and_formats(self, record):
        validate_bench_record(record)
        scaling = record["scaling"]
        assert scaling["host_cpus"] >= 1
        assert scaling["start_method"] in ("fork", "spawn", "forkserver")
        assert scaling["shard_counts"] == [1, 2]
        for count, entry in zip([1, 2], scaling["entries"]):
            assert entry["shards"] == count
            assert len(entry["per_shard_capacity_rps"]) == count
            assert entry["capacity_estimate_rps"] == pytest.approx(
                sum(entry["per_shard_capacity_rps"])
            )
            # Identity is asserted in-process; the record pins it too.
            assert entry["bit_identical"] is True
            assert entry["replayed_batches"] >= 1
            for level in entry["levels"]:
                assert level["completed"] == (
                    level["ok"] + level["rejected"] + level["deadline_missed"]
                )
        # Two isolated single-shard probes must sum to near-2x capacity
        # (the validator's 2-shard floor; 1.7 is enforced from 4 shards).
        assert scaling["summary"]["capacity_ratio"] >= 1.3
        text = format_bench_record(record)
        assert "scaling" in text and "capacity ratio" in text

    def test_validate_rejects_corrupt_scaling_sections(self, record):
        def corrupted(mutate):
            clone = json.loads(json.dumps(record))
            mutate(clone["scaling"])
            return clone

        for mutate, match in (
            (lambda s: s.update(host_cpus=0), "host_cpus"),
            (lambda s: s.update(start_method="thread"), "start_method"),
            (lambda s: s.update(shard_counts=[2, 1]), "shard_counts"),
            (lambda s: s["entries"].reverse(), "misordered"),
            (lambda s: s["entries"][1].update(per_shard_capacity_rps=[1.0]),
             "per_shard_capacity_rps"),
            (lambda s: s["entries"][0].update(levels=[]), "levels"),
            (lambda s: s["entries"][0].update(bit_identical=False),
             "bit_identical"),
            (lambda s: s["entries"][0].update(replayed_batches=0),
             "replayed_batches"),
            (lambda s: s["summary"].update(top_shards=4), "top_shards"),
        ):
            with pytest.raises(ValueError, match=match):
                validate_bench_record(corrupted(mutate))
        # A fleet that stopped scaling cannot validate: pin both entries to
        # the same capacity (ratio 1.0) and the ratio floor trips.
        flat = json.loads(json.dumps(record))
        base = flat["scaling"]["entries"][0]["capacity_estimate_rps"]
        flat["scaling"]["entries"][1]["capacity_estimate_rps"] = base
        flat["scaling"]["summary"]["capacity_ratio"] = 1.0
        with pytest.raises(ValueError, match="capacity_ratio must be >="):
            validate_bench_record(flat)


class TestParallelBenchSection:
    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_parallel_bench_on_a_micro_grid(self):
        # A two-cell grid keeps the three grid executions cheap while still
        # exercising the real pool + equality check end to end.
        config = replace(
            Table1Config().quick(), methods=("original", "lora"), adapt_episodes=5
        )
        section = run_table1_parallel_bench(jobs=2, seeds=(0,), config=config)
        assert section["jobs"] == 2
        assert section["cells"] == 2
        assert section["seeds"] == [0]
        assert section["rows_equal"] is True
        assert section["parallel_seconds"] > 0
        # Round-trips through the schema validator as part of a record.
        record = {
            **run_autograd_bench(scale="tiny", repeats=1),
            "kind": "table1",
            "parallel": section,
        }
        validate_bench_record(json.loads(json.dumps(record)))
        text = format_bench_record(record)
        assert "parallel grid" in text
        assert "rows bit-identical: True" in text

    def test_validate_rejects_corrupt_parallel_sections(self):
        base = run_autograd_bench(scale="tiny", repeats=1)
        good = {
            "jobs": 2,
            "host_cpus": 1,
            "seeds": [0],
            "cells": 2,
            "per_cell_serial_seconds": 1.0,
            "seed_loop_serial_seconds": 0.8,
            "parallel_seconds": 0.5,
            "speedup": 2.0,
            "speedup_vs_seed_loop": 1.6,
            "rows_equal": True,
        }
        validate_bench_record({**base, "kind": "table1", "parallel": good})
        for corrupt, match in (
            ({**base, "parallel": good}, "table1-only"),  # kind stays autograd
            ({**base, "kind": "table1", "parallel": {**good, "jobs": 1}}, "jobs"),
            (
                {**base, "kind": "table1", "parallel": {**good, "seeds": []}},
                "seeds",
            ),
            (
                {
                    **base,
                    "kind": "table1",
                    "parallel": {**good, "parallel_seconds": float("nan")},
                },
                "parallel_seconds",
            ),
            (
                {**base, "kind": "table1", "parallel": {**good, "rows_equal": False}},
                "rows_equal",
            ),
        ):
            with pytest.raises(ValueError, match=match):
                validate_bench_record(corrupt)
