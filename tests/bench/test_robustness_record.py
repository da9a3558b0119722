"""The robustness bench record: round-trip, pins and suite wiring.

One real (tiny) ``run_robustness_bench`` drives everything: the record
must validate after a JSON round-trip and its three bit-identity pins
must be asserted in-process (the record only exists if they held).
Validator teeth live in ``test_record_schema.py``.
"""

import json

import pytest

from repro.bench import (
    format_bench_record,
    run_robustness_bench,
    validate_bench_record,
    write_bench_records,
)
from repro.errors import ConfigError
from tests.bench.conftest import ROBUSTNESS_KWARGS

pytestmark = pytest.mark.bench_smoke


@pytest.fixture(scope="module")
def record(fresh_record):
    return fresh_record("robustness")


class TestRobustnessBench:
    def test_record_round_trips_and_pins_hold(self, record):
        validate_bench_record(record)
        assert record["kind"] == "robustness"
        assert record["severity0_bit_identical"] is True
        assert record["parallel"]["cells_equal"] is True
        assert record["parallel"]["jobs"] >= 2
        assert record["resume"]["cells_equal"] is True
        assert record["resume"]["restored_cells"] >= 1
        grid = record["grid"]
        assert len(record["cells"]) == (
            len(grid["seeds"]) * len(grid["methods"])
            * len(grid["corruptions"]) * len(grid["severities"])
        )
        assert record["summary"]["headline_delta"] == (
            record["headline"]["corrupted_delta"]
        )

    def test_stream_section_covers_every_step(self, record):
        stream = record["stream"]
        assert stream["steps"] >= 2
        for entry in stream["methods"].values():
            assert len(entry["steps"]) == stream["steps"]
            assert all(step["refit_latency_s"] >= 0 for step in entry["steps"])

    def test_format_is_human_readable(self, record):
        text = format_bench_record(record)
        assert "robustness bench" in text
        assert "headline: MetaLoRA vs lora" in text
        assert "severity-0 == clean Table I: True" in text
        assert "streaming drift" in text

    def test_severity_zero_required(self):
        with pytest.raises(ConfigError, match="severity 0"):
            run_robustness_bench(**{**ROBUSTNESS_KWARGS, "severities": (1, 3)})

    def test_headline_needs_baseline_and_meta(self):
        with pytest.raises(ConfigError, match="meta method"):
            run_robustness_bench(**{**ROBUSTNESS_KWARGS, "methods": ("original", "lora")})

    def test_robustness_suite_is_opt_in(self, tmp_path, record, monkeypatch):
        import repro.bench as bench_module

        seen = {}

        def stub(scale, repeats, jobs):
            seen.update(scale=scale, repeats=repeats, jobs=jobs)
            return record

        # The default suite must not run it (the full default grid is
        # heavy); selecting it must write the record with the parallel
        # pin's jobs floor applied.
        monkeypatch.setitem(bench_module._BENCH_SUITES, "robustness", stub)
        monkeypatch.setitem(
            bench_module._BENCH_SUITES, "serve", lambda scale, repeats: {"kind": "serve"}
        )
        defaults = bench_module.run_bench_suites(scale="tiny", repeats=1)
        assert [r["kind"] for r in defaults] == ["serve"] and not seen
        paths = write_bench_records(
            str(tmp_path), scale="tiny", repeats=1, jobs=1,
            suites=("robustness",),
        )
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["BENCH_robustness.json"]
        assert seen == {"scale": "tiny", "repeats": 1, "jobs": 2}
        with open(paths[0], encoding="utf-8") as handle:
            validate_bench_record(json.load(handle))
