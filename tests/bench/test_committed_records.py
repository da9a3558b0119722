"""Every committed ``BENCH_*.json`` validates against the current schema."""

import json
from pathlib import Path

import pytest

from repro.bench import RECORD_SCHEMAS, validate_bench_record

ROOT = Path(__file__).resolve().parents[2]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_one_committed_record_per_kind():
    assert [path.name for path in RECORDS] == sorted(
        f"BENCH_{kind}.json" for kind in RECORD_SCHEMAS
    )


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_committed_record_validates(path):
    validate_bench_record(json.loads(path.read_text(encoding="utf-8")))
