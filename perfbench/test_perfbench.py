"""Tests of the benchmark's own arithmetic and load generator.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

import compare
import hostspeed
import loadgen
from common import percentile, self_times, tail
from repro.serve.codec import encode_frame, encode_payload, read_frame


def span(sid, parent, start, end, name="x"):
    return {"sid": sid, "parent": parent, "name": name, "start": start, "end": end}


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),  # overlaps its sibling: 1..6 is covered once
        span(4, 2, 2.0, 3.0),
        span(5, None, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0})


def test_self_times_of_a_nested_tree_sum_to_its_root():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 5.0, 9.0),
        span(4, 3, 6.0, 7.0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_self_time_clips_children_to_their_parent():
    own = self_times([span(1, None, 0.0, 2.0), span(2, 1, 1.5, 3.0)])
    assert own[1] == pytest.approx(1.5)


# -- the percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "count, label",
    [
        (18104, "p99.9"),
        (10000, "p99.9"),
        (9999, "p99"),
        (6000, "p99"),
        (999, "p90"),
        (100, "p90"),
        (99, "p50"),
        (20, "p50"),
        (19, "max"),
        (2, "max"),
    ],
)
def test_tail_picks_the_highest_percentile_with_ten_samples_beyond(count, label):
    values = [float(v) for v in range(1, count + 1)]
    value, picked = tail(values)
    assert picked == label
    if label == "max":
        assert value == count
    else:
        assert sum(v > value for v in values) >= 10


# -- host speed ------------------------------------------------------------------


def test_each_segment_is_divided_by_its_probes_and_the_share_not_stolen(monkeypatch):
    now, stolen = [0.0], [100.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostspeed, "stolen_seconds", lambda cpus: stolen[0])
    probes = iter(hostspeed.NOMINAL_S * k for k in (1.0, 1.0, 3.0))
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    speed = hostspeed.HostSpeed({min(os.sched_getaffinity(0))})
    timer = hostspeed.SegmentTimer(speed)
    now[0] += 1.0
    timer.cut()
    # The second segment's probes average 2x, and half its wall was stolen.
    now[0] += 4.0
    stolen[0] += 2.0
    timer.cut()
    assert speed.slowness == pytest.approx([1.0, 4.0])
    assert timer.seconds == pytest.approx(1.0 / 1.0 + 4.0 / 4.0)


def test_steal_time_reads_and_never_runs_backwards():
    cpus = os.sched_getaffinity(0)
    first = hostspeed.stolen_seconds(cpus)
    assert 0.0 <= first <= hostspeed.stolen_seconds(cpus)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 99.0) == 990.0
    assert tail(values) == (990.0, "p99")
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


# -- compare.py verdicts ---------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(by: float) -> list[float]:
    return [v + by for v in PARENT]


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        (shifted(-5.0), "lower", 0.1, "improved"),
        (shifted(5.0), "higher", 0.1, "improved"),
        (shifted(15.0), "lower", 0.1, "regressed"),
        (shifted(-15.0), "higher", 0.1, "regressed"),
        (shifted(0.1), "lower", 0.1, "unchanged"),
        (shifted(5.0), "lower", 0.1, "unchanged"),  # worse, but within the bound
        (PARENT[:9], "lower", 0.1, "too_few_pairs"),
    ],
)
def test_verdicts(change, better, bound, expected):
    assert compare.verdict(PARENT[: len(change)], change, better, bound) == expected


NOISY = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


def test_wide_spread_is_unresolved_unless_every_change_run_wins():
    assert compare.verdict(NOISY, [v * 1.2 for v in NOISY], "lower", 0.1) == "unresolved"
    # Every change run (55..59.5) reads better than every parent run
    # (60..140): not unresolved, though the gap (42.75) is inside the
    # parent's interquartile range (45), so no gain is claimed either.
    faster = [55.0 + 0.5 * i for i in range(10)]
    assert compare.verdict(NOISY, faster, "lower", 0.1) == "unchanged"
    assert compare.verdict(NOISY, [v - 20.0 for v in faster], "lower", 0.1) == "improved"
    # Every change run (150..154.5) reads worse than every parent run and
    # the median is 52% worse: a regression, however wide the spread.
    slower = [150.0 + 0.5 * i for i in range(10)]
    assert compare.verdict(NOISY, slower, "lower", 0.1) == "regressed"
    assert compare.verdict(NOISY, [-v for v in slower], "higher", 0.1) == "regressed"


@pytest.mark.parametrize(
    "verdicts, code",
    [
        (["unchanged", "improved"], 0),
        (["unchanged", "unresolved"], 2),
        (["too_few_pairs"], 2),
        (["unresolved", "regressed"], 1),
    ],
)
def test_exit_code_passes_only_when_no_regression_is_left_open(verdicts, code):
    assert compare.exit_code([("w", "m", [], [], 10, v) for v in verdicts]) == code


def write_side(folder, workload, values, failed=0):
    folder.mkdir()
    for seed, value in enumerate(values):
        metrics = {
            metric: {"value": value, "unit": "ms"}
            for metric in ("p50_ms", "setup_s")
        }
        result = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
        (folder / f"{workload}-s{seed}.json").write_text(json.dumps(result))


def test_compare_reads_run_files_and_flags_a_rise_in_failures(tmp_path):
    declared = {
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        ]
    }
    write_side(tmp_path / "parent", "embed_bulk", PARENT)
    write_side(tmp_path / "change", "embed_bulk", shifted(-5.0), failed=1)
    rows = {
        (w, m): verdict
        for w, m, __, __, __, verdict in compare.compare(
            str(tmp_path / "parent"), str(tmp_path / "change"), declared
        )
    }
    assert rows == {
        ("embed_bulk", "setup_s"): "improved",
        ("embed_bulk", "p50_ms"): "improved",
        ("embed_bulk", "fail_share"): "regressed",
    }


# -- the load generator ----------------------------------------------------------


@pytest.fixture(scope="module")
def frontend():
    from repro.models import resnet_small
    from repro.peft import attach
    from repro.serve import MultiTenantEngine, ServingFrontend
    from repro.utils.rng import new_rng

    engine = MultiTenantEngine()
    engine.register("static", attach(resnet_small(4, new_rng(0)), "lora", rank=2, rng=new_rng(1)))
    server = ServingFrontend(engine)
    server.start_in_thread()
    yield server
    server.stop_in_thread()
    engine.close()


def payloads(tenants=("static",)):
    rng = np.random.default_rng(0)
    return {
        name: [encode_payload(rng.normal(size=(3, 16, 16)).astype(np.float32)) for __ in range(4)]
        for name in tenants
    }


def test_open_loop_accounts_lateness_and_loses_nothing(frontend):
    plan = loadgen.plan_arrivals(100.0, 2.0, ["static"], 4, np.random.default_rng(1))
    host, port = frontend.address
    report = asyncio.run(loadgen.open_loop(host, port, plan, payloads(), keep_rows=5))
    assert len(report.outcomes) == len(plan) == len(report.lateness)
    assert [o.rid for o in report.outcomes] == list(range(len(plan)))
    assert all(o.status == "ok" for o in report.outcomes)
    assert all(late >= 0 for late in report.lateness)
    # Each request was due at ``scheduled`` and timed from then, so its
    # latency covers the generator's lateness in sending it.
    assert all(o.latency >= late for o, late in zip(report.outcomes, report.lateness))
    assert [o.scheduled - report.window[0] for o in report.outcomes] == pytest.approx(
        [offset for offset, __, __ in plan]
    )
    assert sum(o.payload is not None for o in report.outcomes) == 5


def test_closed_loop_keeps_a_fixed_number_in_flight(frontend):
    host, port = frontend.address
    report = asyncio.run(
        loadgen.closed_loop(
            host, port, lambda: ("static", 0), payloads(), inflight=4, warmup=0.2, duration=1.0
        )
    )
    assert all(o.status == "ok" for o in report.outcomes)
    events = sorted(
        [(o.scheduled, 1) for o in report.outcomes] + [(o.done, -1) for o in report.outcomes]
    )
    in_flight = peak = 0
    for __, step in events:
        in_flight += step
        peak = max(peak, in_flight)
    assert peak == 4
    assert len(report.outcomes) > 4


def test_unanswered_requests_keep_no_status():
    """A server that never answers odd ids: those stay failed, none hang."""

    async def scenario():
        async def handle(reader, writer):
            try:
                while (frame := await read_frame(reader)) is not None:
                    header, __ = frame
                    if header["id"] % 2 == 0:
                        writer.write(encode_frame({"id": header["id"], "status": "ok"}))
            finally:
                writer.close()
                await writer.wait_closed()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        plan = [(0.001 * i, "static", 0) for i in range(10)]
        try:
            return await loadgen.open_loop(
                "127.0.0.1", port, plan, payloads(), drain_timeout=0.3
            )
        finally:
            server.close()
            await server.wait_closed()

    report = asyncio.run(scenario())
    assert [o.status for o in report.outcomes] == ["ok", None] * 5
