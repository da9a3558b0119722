"""One freshly generated record per bench kind, shared by the bench tests."""

import copy
import json

import pytest

from repro.bench import (
    run_autograd_bench,
    run_robustness_bench,
    run_serve_bench,
    run_table1_bench,
)

#: The smallest robustness grid that satisfies the headline contract: the
#: static baseline plus one meta method, one corruption, the clean rung +
#: one corrupted rung.
ROBUSTNESS_KWARGS = dict(
    scale="tiny",
    repeats=1,
    jobs=2,
    methods=("lora", "meta_lora_cp"),
    corruptions=("contrast",),
    severities=(0, 3),
)

_RUNNERS = {
    "autograd": lambda: run_autograd_bench(scale="tiny", repeats=1),
    "table1": lambda: run_table1_bench(scale="tiny", repeats=1),
    "serve": lambda: run_serve_bench(scale="tiny", repeats=1),
    "robustness": lambda: run_robustness_bench(**ROBUSTNESS_KWARGS),
}


@pytest.fixture(scope="session")
def fresh_record():
    """``fresh_record(kind)``: a private copy of that kind's record, run
    once per session and round-tripped through JSON."""
    records = {}

    def get(kind: str) -> dict:
        if kind not in records:
            records[kind] = json.loads(json.dumps(_RUNNERS[kind]()))
        return copy.deepcopy(records[kind])

    return get
