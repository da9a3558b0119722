"""Shared arithmetic of the benchmark: percentiles, self time, spread."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Percentiles a tail is reported at, highest first, with the share of
#: samples beyond each (kept exact: 100 - 99.9 is not 0.1 in floats).
TAIL_LADDER = ((99.99, 0.0001), (99.9, 0.001), (99.0, 0.01), (90.0, 0.1), (50.0, 0.5))

#: Samples a reported percentile must have beyond it.
TAIL_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation) of a non-empty list."""
    ordered = sorted(values)
    # Rounded first so float noise (99.9 / 100 * 10000 = 9990.000000000002)
    # cannot push the rank up by one.
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 6)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with >= 10 samples beyond it.

    Returns ``(value, label)``, e.g. ``(41.2, "p99.9")``.  With fewer
    than 20 samples no percentile qualifies and the slowest sample is
    returned as ``"max"``.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    for pct, beyond in TAIL_LADDER:
        if len(values) * beyond >= TAIL_BEYOND:
            return percentile(values, pct), f"p{pct:g}"
    return max(values), "max"


def spread(values: list[float]) -> float:
    """Interquartile range over the median, as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span["sid"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span.get("parent"))
        if parent is not None:
            children[parent["sid"]].append(
                (max(span["start"], parent["start"]), min(span["end"], parent["end"]))
            )
    return {
        span["sid"]: (span["end"] - span["start"])
        - _covered([(s, e) for s, e in children[span["sid"]] if e > s])
        for span in spans
    }


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def summed(spans: list[dict], name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(durations(spans, name))


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0
