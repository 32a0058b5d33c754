"""Machine-readable exporters over a metrics snapshot.

Two wire formats, both pure functions of a snapshot dict (so they work
on the live registry, a ``--metrics`` file read back from disk, or a
merged cross-process state):

* :func:`render_prometheus` — Prometheus text exposition (the format
  ``GET /metrics`` scrapers expect, version 0.0.4).  Counters export
  with the conventional ``_total`` suffix, histograms as ``summary``
  series (``{quantile="0.5"}``/``_sum``/``_count``).
* :func:`json_payload` / :func:`render_json` — a structured JSON
  document with labels split out of the series name, one entry per
  series, schema-tagged so downstream dashboards can version-check.

Series order follows the same deterministic (name, label tuple) sort as
``render_text``; stdlib-only like the rest of the substrate.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs.render import sorted_series

__all__ = [
    "render_prometheus",
    "render_openmetrics",
    "render_json",
    "json_payload",
    "JSON_SCHEMA",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
]

#: Schema tag stamped into every JSON payload.
JSON_SCHEMA = "repro.obs/2"

#: What ``GET /metrics`` answers by default (text exposition 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: What ``GET /metrics`` negotiates to when the scraper accepts it.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    return _NAME_SANITIZE.sub("_", prefix + name)


def _prom_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{_LABEL_SANITIZE.sub("_", k)}="{_escape(v)}"' for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_value(value: float) -> str:
    value = float(value)
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(
    snapshot: Optional[Dict[str, Dict[str, object]]] = None,
    prefix: str = "repro_",
) -> str:
    """Prometheus text exposition of a snapshot (default: live registry).

    Metric and label names are sanitized to the Prometheus charset,
    every metric gets exactly one ``# TYPE`` line (series grouped under
    it), and label values are escaped per the exposition rules — the
    output parses under any standard scraper.
    """
    snap = snapshot if snapshot is not None else _metrics.snapshot()
    lines: List[str] = []

    # counters — grouped by base name so each TYPE line appears once
    groups: Dict[str, List[str]] = {}
    for series, value in sorted_series(snap.get("counters", {})):
        name, labels = _metrics.split_series(series)
        metric = _prom_name(name, prefix) + "_total"
        groups.setdefault(metric, []).append(
            f"{metric}{_prom_labels(labels)} {_prom_value(value)}"
        )
    for metric, rows in groups.items():
        lines.append(f"# TYPE {metric} counter")
        lines.extend(rows)

    groups = {}
    for series, value in sorted_series(snap.get("gauges", {})):
        name, labels = _metrics.split_series(series)
        metric = _prom_name(name, prefix)
        groups.setdefault(metric, []).append(
            f"{metric}{_prom_labels(labels)} {_prom_value(value)}"
        )
    for metric, rows in groups.items():
        lines.append(f"# TYPE {metric} gauge")
        lines.extend(rows)

    groups = {}
    for series, summary in sorted_series(snap.get("histograms", {})):
        name, labels = _metrics.split_series(series)
        metric = _prom_name(name, prefix)
        rows = groups.setdefault(metric, [])
        count = int(summary.get("count", 0))
        if count:
            for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                qlabel = 'quantile="%s"' % q
                rows.append(
                    f"{metric}{_prom_labels(labels, qlabel)} {_prom_value(summary[key])}"
                )
        rows.append(
            f"{metric}_sum{_prom_labels(labels)} {_prom_value(summary.get('sum', 0.0))}"
        )
        rows.append(f"{metric}_count{_prom_labels(labels)} {count}")
    for metric, rows in groups.items():
        lines.append(f"# TYPE {metric} summary")
        lines.extend(rows)

    return "\n".join(lines) + "\n" if lines else "\n"


def _openmetrics_histogram(
    metric: str,
    labels: Tuple[Tuple[str, str], ...],
    hstate: Dict[str, object],
    max_buckets: int,
) -> List[str]:
    """Cumulative ``le`` bucket rows for one histogram's dumped state.

    The registry's log buckets (index ``i`` covers
    ``[growth^i, growth^(i+1))``) are coalesced into at most
    ``max_buckets`` groups of consecutive occupied buckets; each group
    renders one cumulative bucket whose ``le`` is the group's upper
    bound.  Non-positive observations sit below every positive bucket,
    so they seed the running cumulative count.  A bucket whose source
    buckets carry an exemplar gets the newest one appended in
    OpenMetrics exemplar syntax (``# {trace_id="..."} value ts``) —
    the jump-link from a latency bucket to a flight-recorder trace.
    """
    growth = float(hstate.get("growth", 1.04))
    log_growth = math.log(growth)
    buckets = {int(k): int(v) for k, v in (hstate.get("buckets") or {}).items()}
    exemplars = {int(k): v for k, v in (hstate.get("exemplars") or {}).items()}
    count = int(hstate.get("count", 0))
    total = float(hstate.get("total", 0.0))
    rows: List[str] = []
    cumulative = int(hstate.get("nonpositive", 0))
    idxs = sorted(buckets)
    if idxs:
        stride = max(1, -(-len(idxs) // max_buckets))  # ceil division
        for start in range(0, len(idxs), stride):
            group = idxs[start:start + stride]
            cumulative += sum(buckets[i] for i in group)
            le = math.exp((group[-1] + 1) * log_growth)
            exemplar = None
            for i in group:
                candidate = exemplars.get(i)
                if candidate is not None and (
                    exemplar is None or float(candidate[2]) >= float(exemplar[2])
                ):
                    exemplar = candidate
            le_label = 'le="%s"' % _prom_value(le)
            line = f"{metric}_bucket{_prom_labels(labels, le_label)} {cumulative}"
            if exemplar is not None:
                line += ' # {trace_id="%s"} %s %.3f' % (
                    _escape(str(exemplar[1])),
                    _prom_value(float(exemplar[0])),
                    float(exemplar[2]),
                )
            rows.append(line)
    inf_label = 'le="+Inf"'
    rows.append(f"{metric}_bucket{_prom_labels(labels, inf_label)} {count}")
    rows.append(f"{metric}_sum{_prom_labels(labels)} {_prom_value(total)}")
    rows.append(f"{metric}_count{_prom_labels(labels)} {count}")
    return rows


def render_openmetrics(
    state: Optional[Dict[str, Dict[str, object]]] = None,
    prefix: str = "repro_",
    max_buckets: int = 32,
) -> str:
    """OpenMetrics 1.0 exposition of a registry *state* (with exemplars).

    Takes :meth:`MetricsRegistry.dump_state` form — not a snapshot —
    because only the dumped state carries histogram buckets and
    exemplars (a snapshot collapses them into quantile answers).
    Defaults to the live default registry's state.  Histograms export
    as real cumulative-``le`` histograms (vs the summary series of
    :func:`render_prometheus`), latency buckets carry sample trace ids
    as exemplars, and the body is terminated with the mandatory
    ``# EOF`` line.
    """
    st = state if state is not None else _metrics.get_registry().dump_state()
    lines: List[str] = []

    groups: Dict[str, List[str]] = {}
    for series, value in sorted_series(st.get("counters", {})):
        name, labels = _metrics.split_series(series)
        metric = _prom_name(name, prefix)
        groups.setdefault(metric, []).append(
            f"{metric}_total{_prom_labels(labels)} {_prom_value(value)}"
        )
    for metric, rows in groups.items():
        lines.append(f"# TYPE {metric} counter")
        lines.extend(rows)

    groups = {}
    for series, value in sorted_series(st.get("gauges", {})):
        name, labels = _metrics.split_series(series)
        metric = _prom_name(name, prefix)
        groups.setdefault(metric, []).append(
            f"{metric}{_prom_labels(labels)} {_prom_value(value)}"
        )
    for metric, rows in groups.items():
        lines.append(f"# TYPE {metric} gauge")
        lines.extend(rows)

    groups = {}
    for series, hstate in sorted_series(st.get("histograms", {})):
        name, labels = _metrics.split_series(series)
        metric = _prom_name(name, prefix)
        groups.setdefault(metric, []).extend(
            _openmetrics_histogram(metric, labels, hstate, max_buckets)
        )
    for metric, rows in groups.items():
        lines.append(f"# TYPE {metric} histogram")
        lines.extend(rows)

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _clean_float(value) -> Optional[float]:
    """NaN/inf → None so the payload is strict JSON."""
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def json_payload(
    snapshot: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Structured-JSON document for a snapshot (default: live registry).

    One entry per series with ``name``/``labels`` split apart (and the
    joined ``series`` key kept for correlation with text renderings);
    strictly valid JSON — non-finite floats become ``null``.
    """
    snap = snapshot if snapshot is not None else _metrics.snapshot()
    payload: Dict[str, object] = {"schema": JSON_SCHEMA}

    counters = []
    for series, value in sorted_series(snap.get("counters", {})):
        name, labels = _metrics.split_series(series)
        counters.append(
            {"name": name, "labels": dict(labels), "series": series, "value": int(value)}
        )
    gauges = []
    for series, value in sorted_series(snap.get("gauges", {})):
        name, labels = _metrics.split_series(series)
        gauges.append(
            {
                "name": name,
                "labels": dict(labels),
                "series": series,
                "value": _clean_float(value),
            }
        )
    histograms = []
    for series, summary in sorted_series(snap.get("histograms", {})):
        name, labels = _metrics.split_series(series)
        entry: Dict[str, object] = {
            "name": name,
            "labels": dict(labels),
            "series": series,
            "count": int(summary.get("count", 0)),
        }
        for key in ("sum", "min", "max", "mean", "p50", "p95", "p99"):
            if key in summary:
                entry[key] = _clean_float(summary[key])
        histograms.append(entry)

    payload["counters"] = counters
    payload["gauges"] = gauges
    payload["histograms"] = histograms
    return payload


def render_json(
    snapshot: Optional[Dict[str, Dict[str, object]]] = None,
    indent: Optional[int] = 2,
) -> str:
    """The :func:`json_payload` document serialized (strict JSON)."""
    return json.dumps(
        json_payload(snapshot), indent=indent, sort_keys=False, allow_nan=False
    ) + "\n"
