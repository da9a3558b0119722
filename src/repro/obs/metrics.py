"""Typed metrics registry: the counter half of ``repro.obs``.

Every instrumented layer of the library — the autograd hot paths, the
experiment runtime, the serving engine, the training loops — reports
into one :class:`MetricsRegistry` under a *dotted name* plus optional
string *labels*.  Four metric kinds cover the reporting surfaces:

- **counter** — monotonically accumulating events (``einsum.forward``,
  ``serve.requests``); carries ``calls`` plus optional ``seconds`` /
  ``bytes`` payloads folded in with each increment;
- **timer** — a counter whose every observation has a duration
  (``backward.sweep``, ``serve.run``);
- **gauge** — a last-value-wins measurement (``train.loss``,
  ``eval.accuracy``); ``calls`` counts how often it was set;
- **histogram** — exact-value occurrence buckets
  (``serve.batch.size`` → ``{"8": 3, "32": 1}``).

The registry's one performance contract: **disabled reads cost a single
attribute check**.  Hot paths guard with ``if OBS.enabled:`` (or the
short-circuit form ``OBS.enabled and OBS.inc(...)``) and never construct
names, labels or payloads when observability is off — a contract pinned
by ``tests/obs/test_metrics.py``.

Snapshots serialize to the *unified metrics-snapshot schema* shared by
``MultiTenantEngine.stats()``, the ``counters`` sections of every
``BENCH_*.json`` record, and the per-span metric deltas in
``trace.jsonl``::

    {
      "<name>" | "<name>{k=v,...}": {
        "kind": "counter" | "timer" | "gauge" | "histogram",
        "calls": int,
        "seconds": float,
        "bytes": int,
        "value": float,          # gauges only: last value set
        "buckets": {str: int},   # histograms only
      }, ...
    }

:meth:`MetricsRegistry.merge` folds such a snapshot back into a
registry — the cross-process aggregation the experiment runtime uses to
merge worker counters into the parent, working even while the parent's
registry is disabled (the events were already gated in the worker).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ObsError

#: The metric kinds the registry accepts.
KINDS = ("counter", "timer", "gauge", "histogram")


@dataclass
class MetricSeries:
    """Accumulated state of one ``(name, labels)`` series."""

    kind: str
    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0
    value: float = 0.0
    buckets: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """This series in the unified metrics-snapshot schema."""
        payload: dict = {
            "kind": self.kind,
            "calls": self.calls,
            "seconds": self.seconds,
            "bytes": self.bytes,
        }
        if self.kind == "gauge":
            payload["value"] = self.value
        if self.kind == "histogram":
            payload["buckets"] = dict(self.buckets)
        return payload


def render_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Canonical snapshot key: ``name`` or ``name{k=v,...}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


def parse_name(rendered: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Invert :func:`render_name` (used when merging snapshots)."""
    if not rendered.endswith("}") or "{" not in rendered:
        return rendered, ()
    name, __, inner = rendered[:-1].partition("{")
    labels = []
    for chunk in inner.split(","):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ObsError(f"unparsable metric labels in {rendered!r}")
        labels.append((key, value))
    return name, tuple(sorted(labels))


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """A process-wide (or local) registry of :class:`MetricSeries`.

    ``enabled`` is a plain attribute so the disabled fast path is one
    attribute read.  All record methods are silent no-ops while
    disabled; :meth:`merge` works regardless, since merged events were
    gated by their origin registry.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], MetricSeries] = {}

    # -- lifecycle ------------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def reset(self) -> None:
        self._series.clear()

    # -- series resolution ----------------------------------------------------

    def _series_for(
        self, name: str, labels: dict[str, object], kind: str
    ) -> MetricSeries:
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = MetricSeries(kind=kind)
            return series
        if series.kind != kind:
            raise ObsError(
                f"metric {render_name(*key)!r} is a {series.kind}, "
                f"not a {kind}; pick a distinct name per kind"
            )
        return series

    # -- typed record methods -------------------------------------------------

    def inc(
        self,
        name: str,
        n: int = 1,
        *,
        seconds: float = 0.0,
        bytes: int = 0,
        **labels: object,
    ) -> None:
        """Count ``n`` events on counter ``name`` (optionally with payloads)."""
        if not self.enabled or n <= 0:
            return
        series = self._series_for(name, labels, "counter")
        series.calls += n
        series.seconds += seconds
        series.bytes += bytes

    def observe(
        self, name: str, seconds: float, *, bytes: int = 0, **labels: object
    ) -> None:
        """Record one timed event on timer ``name``."""
        if not self.enabled:
            return
        series = self._series_for(name, labels, "timer")
        series.calls += 1
        series.seconds += seconds
        series.bytes += bytes

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` to ``value`` (last value wins)."""
        if not self.enabled:
            return
        series = self._series_for(name, labels, "gauge")
        series.calls += 1
        series.value = float(value)

    def hist(self, name: str, value: object, **labels: object) -> None:
        """Count one occurrence of ``value`` in histogram ``name``."""
        if not self.enabled:
            return
        series = self._series_for(name, labels, "histogram")
        series.calls += 1
        bucket = str(value)
        series.buckets[bucket] = series.buckets.get(bucket, 0) + 1

    @contextlib.contextmanager
    def time(self, name: str, **labels: object) -> Iterator[None]:
        """Time the block into timer ``name`` (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start, **labels)

    # -- snapshots / merging --------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """The unified metrics-snapshot schema (JSON-friendly, sorted)."""
        return {
            render_name(name, labels): series.as_dict()
            for (name, labels), series in sorted(self._series.items())
        }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` back into this registry.

        Works while disabled (worker events were gated at their origin).
        Gauges adopt the incoming value — for worker merge-back that
        means the last merged worker wins, matching last-value-wins
        semantics within a process.
        """
        for rendered, stats in snapshot.items():
            name, labels = parse_name(rendered)
            kind = stats.get("kind", "counter")
            if kind not in KINDS:
                raise ObsError(f"snapshot entry {rendered!r} has unknown kind {kind!r}")
            key = (name, labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = MetricSeries(kind=kind)
            series.calls += int(stats.get("calls", 0))
            series.seconds += float(stats.get("seconds", 0.0))
            series.bytes += int(stats.get("bytes", 0))
            if kind == "gauge" and "value" in stats:
                series.value = float(stats["value"])
            for bucket, count in (stats.get("buckets") or {}).items():
                series.buckets[bucket] = series.buckets.get(bucket, 0) + int(count)

    def totals(self) -> dict[str, tuple[int, float, int]]:
        """Cheap per-series ``(calls, seconds, bytes)`` totals, used by the
        tracer to compute per-span metric deltas."""
        return {
            render_name(name, labels): (series.calls, series.seconds, series.bytes)
            for (name, labels), series in self._series.items()
        }


#: The process-wide registry every instrumented layer reports into.
METRICS = MetricsRegistry()
