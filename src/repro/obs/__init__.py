"""``repro.obs`` — the unified observability layer: metrics + tracing.

One subsystem serves every reporting surface — engine and scheduler
``stats()``, the per-bench JSON ``counters`` sections and ``trace.jsonl``:

- :data:`OBS` (:class:`~repro.obs.metrics.MetricsRegistry`) — the typed
  metrics registry (counter / timer / gauge / histogram, dotted names,
  optional labels).  Hot paths guard with ``if OBS.enabled:`` — a single
  attribute check while disabled.
- :data:`TRACER` (:class:`~repro.obs.trace.Tracer`) — hierarchical
  context-manager spans with events and per-span metric deltas,
  exported as ``trace.jsonl`` into run directories and rendered by
  ``repro trace``.
- :func:`observed` — enable both for a block, restoring prior state.

See ``docs/observability.md`` for the API, the naming conventions, and the
snapshot / trace schemas.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.obs.metrics import KINDS, METRICS, MetricSeries, MetricsRegistry
from repro.obs.report import render_trace_report, render_trace_target, resolve_trace_path
from repro.obs.trace import (
    TRACE_FILE,
    TRACER,
    Span,
    Tracer,
    build_trees,
    flatten_spans,
    load_trace,
    write_trace,
)

#: Canonical short name for the process-wide metrics registry.
OBS = METRICS


@contextlib.contextmanager
def observed(metrics: bool = True, trace: bool = True) -> Iterator[tuple]:
    """Enable the metrics registry and/or tracer for a block.

    Prior enabled-state is restored on exit; accumulated series and
    finished spans are kept (``OBS.reset()`` / ``TRACER.reset()`` first
    for a clean window).
    """
    previous = (METRICS.enabled, TRACER.enabled)
    if metrics:
        METRICS.enabled = True
    if trace:
        TRACER.enabled = True
    try:
        yield METRICS, TRACER
    finally:
        METRICS.enabled, TRACER.enabled = previous


__all__ = [
    "KINDS",
    "METRICS",
    "MetricSeries",
    "MetricsRegistry",
    "OBS",
    "Span",
    "TRACE_FILE",
    "TRACER",
    "Tracer",
    "build_trees",
    "flatten_spans",
    "load_trace",
    "observed",
    "render_trace_report",
    "render_trace_target",
    "resolve_trace_path",
    "write_trace",
]
