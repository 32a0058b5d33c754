"""Exporters, snapshot diffing and the `repro obs dump` renderer."""

import json
import re

import pytest

from repro import obs
from repro.obs.export import JSON_SCHEMA, json_payload, render_json, render_prometheus
from repro.obs.compare import diff_snapshots, render_diff


@pytest.fixture()
def registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield obs.get_registry()
    obs.set_registry(previous)


# One exposition sample line: name{labels} value — the grammar every
# Prometheus scraper parses (we allow NaN/±Inf as the spec does).
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (NaN|[+-]Inf|[+-]?[0-9.eE+-]+)$"
)
_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$")


def _assert_valid_exposition(text):
    assert text.endswith("\n")
    typed = set()
    for line in text.splitlines():
        if line.startswith("#"):
            m = _TYPE.match(line)
            assert m, f"bad comment line: {line!r}"
            metric = line.split()[2]
            assert metric not in typed, f"duplicate TYPE for {metric}"
            typed.add(metric)
        else:
            assert _SAMPLE.match(line), f"bad sample line: {line!r}"


def _populate():
    obs.counter("batch.requests", algorithm="knn").inc(12)
    obs.counter("batch.requests", algorithm="fallback").inc(3)
    obs.counter("plain").inc()
    obs.gauge("pool.workers").set(4)
    obs.gauge("weird name-with/chars", label_x="a\"b\\c").set(1.5)
    h = obs.histogram("locate.latency_ms", algorithm="knn")
    h.observe_many([1.0, 2.0, 4.0, 8.0, 100.0])


class TestPrometheusExposition:
    def test_every_line_parses(self, registry):
        _populate()
        _assert_valid_exposition(render_prometheus())

    def test_counter_total_suffix_and_grouping(self, registry):
        _populate()
        text = render_prometheus()
        assert "# TYPE repro_batch_requests_total counter" in text
        assert 'repro_batch_requests_total{algorithm="knn"} 12' in text
        assert 'repro_batch_requests_total{algorithm="fallback"} 3' in text
        # one TYPE line covers both labeled series
        assert text.count("# TYPE repro_batch_requests_total") == 1

    def test_histogram_exports_as_summary(self, registry):
        _populate()
        text = render_prometheus()
        assert "# TYPE repro_locate_latency_ms summary" in text
        assert 'repro_locate_latency_ms{algorithm="knn",quantile="0.5"}' in text
        assert 'repro_locate_latency_ms_sum{algorithm="knn"} 115' in text
        assert 'repro_locate_latency_ms_count{algorithm="knn"} 5' in text

    def test_empty_histogram_skips_quantiles(self, registry):
        obs.histogram("empty.h")  # series exists, nothing observed
        text = render_prometheus()
        assert "quantile" not in text
        assert "repro_empty_h_count 0" in text

    def test_names_and_label_values_sanitized(self, registry):
        _populate()
        text = render_prometheus()
        # "weird name-with/chars" → metric charset, value escaped
        assert 'repro_weird_name_with_chars{label_x="a\\"b\\\\c"} 1.5' in text
        _assert_valid_exposition(text)

    def test_gauge_nan_renders_spec_style(self, registry):
        obs.gauge("g").set(float("nan"))
        text = render_prometheus()
        assert "repro_g NaN" in text
        _assert_valid_exposition(text)

    def test_empty_snapshot(self, registry):
        assert render_prometheus() == "\n"

    def test_custom_prefix(self, registry):
        obs.counter("c").inc()
        assert "site_c_total 1" in render_prometheus(prefix="site_")


class TestJsonPayload:
    def test_schema_and_label_split(self, registry):
        _populate()
        payload = json_payload()
        assert payload["schema"] == JSON_SCHEMA
        entry = next(
            e for e in payload["counters"] if e["labels"].get("algorithm") == "knn"
        )
        assert entry["name"] == "batch.requests"
        assert entry["series"] == "batch.requests{algorithm=knn}"
        assert entry["value"] == 12

    def test_histogram_entry_carries_summary_stats(self, registry):
        _populate()
        (entry,) = json_payload()["histograms"]
        assert entry["count"] == 5
        assert entry["sum"] == 115.0
        assert entry["min"] == 1.0 and entry["max"] == 100.0
        assert entry["p50"] > 0

    def test_non_finite_becomes_null_and_json_is_strict(self, registry):
        obs.gauge("g").set(float("inf"))
        text = render_json()
        payload = json.loads(text)  # would raise on bare Infinity
        assert payload["gauges"][0]["value"] is None

    def test_render_json_round_trips_a_file_snapshot(self, registry, tmp_path):
        _populate()
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(obs.snapshot()))
        payload = json.loads(render_json(json.loads(path.read_text())))
        assert payload == json_payload(obs.snapshot())


class TestDiff:
    def test_counter_deltas_and_new_series(self, registry):
        obs.counter("c").inc(2)
        before = obs.snapshot()
        obs.counter("c").inc(5)
        obs.counter("new").inc(1)
        d = diff_snapshots(before, obs.snapshot())
        assert d["counters"] == {"c": 5, "new": 1}
        assert d["resets"] == []

    def test_counter_reset_reported_absolute(self, registry):
        obs.counter("c").inc(10)
        before = obs.snapshot()
        obs.reset()
        obs.counter("c").inc(3)
        d = diff_snapshots(before, obs.snapshot())
        assert d["counters"] == {"c": 3}
        assert d["resets"] == ["c"]

    def test_vanished_series_is_a_reset(self, registry):
        obs.counter("gone").inc()
        before = obs.snapshot()
        obs.reset()
        d = diff_snapshots(before, obs.snapshot())
        assert d["resets"] == ["gone"]
        assert "gone" in render_diff(before, obs.snapshot())

    def test_gauge_and_histogram_moves(self, registry):
        obs.gauge("g").set(1.0)
        obs.histogram("h").observe(2.0)
        before = obs.snapshot()
        obs.gauge("g").set(4.0)
        obs.histogram("h").observe(3.0)
        d = diff_snapshots(before, obs.snapshot())
        assert d["gauges"]["g"] == (1.0, 4.0)
        assert d["histograms"]["h"] == {"count": 1, "sum": 3.0}

    def test_no_change(self, registry):
        obs.counter("c").inc()
        snap = obs.snapshot()
        assert render_diff(snap, snap) == "no change between snapshots"

    def test_render_diff_is_deterministic(self, registry):
        obs.counter("b").inc()
        obs.counter("a").inc(2)
        before = {"counters": {}, "gauges": {}, "histograms": {}}
        text = render_diff(before, obs.snapshot())
        assert text.index("  a ") < text.index("  b ")


class TestObsDump:
    def test_dump_renders_a_snapshot_file_as_exposition(self, tmp_path, capsys):
        """``repro obs dump --format prometheus``: a snapshot file's exposition."""
        from repro.cli import repro_main

        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps({"counters": {"frozen": 7}, "gauges": {}, "histograms": {}})
        )
        assert repro_main(["obs", "dump", str(path), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        _assert_valid_exposition(out)
        assert "repro_frozen_total 7" in out
