"""Observability: metrics, tracing, exporters and rendering for the pipeline.

The ingest → train → locate pipeline is instrumented end-to-end
through this package (see docs/observability.md for the metric-name
catalogue, exporter formats and the trace format):

* :mod:`repro.obs.metrics` — counters, gauges, reservoir-free
  streaming histograms, a process-global default registry, and
  cross-process aggregation (``MetricsRegistry.dump_state/merge``).
* :mod:`repro.obs.trace` — ``span("stage")`` context managers with
  nesting and wall/CPU time, recorded under a W3C-compatible
  :class:`TraceContext` (``bind``/``current_context``) into the
  per-process :class:`FlightRecorder` ring of completed traces.
* :mod:`repro.obs.render` — ``render_text()`` snapshot formatting
  (deterministic series order).
* :mod:`repro.obs.export` — Prometheus text exposition
  (``render_prometheus``) and structured JSON (``render_json``).
* :mod:`repro.obs.compare` — ``diff_snapshots``/``render_diff``
  between two snapshots.
* :mod:`repro.obs.quality` — the RSSI drift monitor each site of
  ``repro serve`` feeds and reports on ``/healthz``.  The one
  numpy-using module; import it explicitly
  (``from repro.obs.quality import APDriftMonitor``) — it is kept out
  of this namespace so everything imported here stays stdlib-only.

The live endpoints (``/metrics``, ``/metrics.json``, ``/healthz``) are
served by ``repro serve`` (:mod:`repro.serve.http`).

Everything re-exported here is stdlib-only so any layer can import it
without cycles.
"""

from repro.obs.compare import diff_snapshots, render_diff
from repro.obs.export import json_payload, render_json, render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    get_registry,
    histogram,
    merge_state,
    reset,
    set_enabled,
    set_registry,
    snapshot,
)
from repro.obs.render import render_text
from repro.obs.trace import (
    FlightRecorder,
    TraceContext,
    annotate,
    bind,
    current_context,
    get_recorder,
    new_span_id,
    set_recorder,
    span,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceContext",
    "annotate",
    "bind",
    "counter",
    "current_context",
    "get_recorder",
    "new_span_id",
    "set_recorder",
    "diff_snapshots",
    "enabled",
    "gauge",
    "get_registry",
    "histogram",
    "json_payload",
    "merge_state",
    "render_diff",
    "render_json",
    "render_prometheus",
    "render_text",
    "reset",
    "set_enabled",
    "set_registry",
    "snapshot",
    "span",
]
