"""Tests for the observability subsystem (repro.obs) and its hookups."""

import json
import statistics
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture()
def registry():
    """A fresh default registry, restored afterwards (test isolation)."""
    previous = obs.set_registry(obs.MetricsRegistry())
    yield obs.get_registry()
    obs.set_registry(previous)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge("g")
        g.set(10.0)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0


class TestHistogram:
    def test_quantiles_match_statistics_on_known_data(self):
        rng = np.random.default_rng(0)
        data = rng.lognormal(mean=1.0, sigma=0.8, size=5000)
        h = Histogram("lat")
        for v in data:
            h.observe(v)
        # statistics.quantiles with n=100 gives percentile cut points.
        cuts = statistics.quantiles(data, n=100)
        for q, exact in ((0.50, cuts[49]), (0.95, cuts[94]), (0.99, cuts[98])):
            approx = h.quantile(q)
            assert approx == pytest.approx(exact, rel=0.06), f"p{int(q*100)}"

    def test_quantile_relative_error_bound(self):
        # Uniform stream: every quantile answer must sit within one
        # bucket (growth-1 relative) of the true order statistic.
        data = np.linspace(1.0, 1000.0, 2000)
        h = Histogram("u", growth=1.04)
        for v in data:
            h.observe(v)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            exact = float(np.quantile(data, q))
            assert h.quantile(q) == pytest.approx(exact, rel=0.05)

    def test_count_sum_min_max_mean(self):
        h = Histogram("h")
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 2.0 and h.max == 6.0
        assert h.mean == 4.0

    def test_nonpositive_values_counted(self):
        h = Histogram("h")
        for v in (-1.0, 0.0, 1.0, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.min == -1.0
        assert h.quantile(0.01) == -1.0  # underflow bucket answers the min

    def test_empty_histogram(self):
        h = Histogram("h")
        assert np.isnan(h.quantile(0.5))
        assert h.summary() == {"count": 0}

    def test_bad_growth_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", growth=1.0)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)


class TestRegistry:
    def test_same_name_same_metric(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a") is not r.counter("b")

    def test_labels_are_distinct_series(self):
        r = MetricsRegistry()
        r.counter("locate", algorithm="knn").inc()
        r.counter("locate", algorithm="probabilistic").inc(2)
        snap = r.snapshot()
        assert snap["counters"]["locate{algorithm=knn}"] == 1
        assert snap["counters"]["locate{algorithm=probabilistic}"] == 2

    def test_label_order_does_not_matter(self):
        r = MetricsRegistry()
        assert r.counter("x", a="1", b="2") is r.counter("x", b="2", a="1")

    def test_snapshot_is_json_serializable(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g").set(1.5)
        r.histogram("h").observe(3.0)
        json.dumps(r.snapshot())

    def test_reset_isolates_tests(self, registry):
        obs.counter("leak").inc()
        assert obs.snapshot()["counters"]["leak"] == 1
        obs.reset()
        assert obs.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_set_registry_swaps_default(self, registry):
        obs.counter("mine").inc()
        fresh = obs.MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            assert "mine" not in obs.snapshot()["counters"]
            obs.counter("other").inc()
            assert previous.snapshot()["counters"]["mine"] == 1
        finally:
            obs.set_registry(previous)

    def test_disabled_emission_is_noop(self, registry):
        obs.set_enabled(False)
        try:
            obs.counter("off").inc()
            obs.gauge("off").set(3)
            obs.histogram("off").observe(1.0)
        finally:
            obs.set_enabled(True)
        snap = obs.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


@contextmanager
def _one_trace():
    """Bind one minted trace into a fresh FlightRecorder for the block.

    Yields the recorder; after the block its only trace is finished.
    """
    recorder = obs.FlightRecorder()
    previous = obs.set_recorder(recorder)
    ctx = obs.TraceContext.mint()
    recorder.begin(ctx)
    try:
        with obs.bind(ctx):
            yield recorder
    finally:
        obs.set_recorder(previous)
        recorder.finish(ctx.trace_id)


def _spans(recorder):
    (trace,) = recorder.traces()
    return trace["spans"]


class TestSpans:
    def test_no_tracer_is_passthrough(self):
        with obs.span("free"):
            pass  # must not raise, must not need a bound trace

    def test_nesting_depth_and_parents(self):
        with _one_trace() as recorder:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        spans = _spans(recorder)
        by_name = {e["name"]: e for e in spans}
        assert by_name["inner"]["parent_span"] == by_name["outer"]["span"]
        assert by_name["outer"]["parent_span"] is None  # a root of the trace
        # children close first
        assert spans[0]["name"] == "inner"

    def test_span_records_on_exception(self):
        with _one_trace() as recorder:
            with pytest.raises(KeyError):
                with obs.span("will-fail"):
                    raise KeyError("oops")
            with obs.span("after"):
                pass
        by_name = {e["name"]: e for e in _spans(recorder)}
        assert by_name["will-fail"]["status"] == "KeyError"
        # the context unwound: the next span is a root again
        assert by_name["after"]["parent_span"] is None

    def test_wall_and_cpu_time_recorded(self):
        with _one_trace() as recorder:
            with obs.span("work"):
                sum(range(10000))
        (event,) = _spans(recorder)
        assert event["wall_ms"] >= 0.0
        assert event["cpu_ms"] >= 0.0

    def test_attrs_carried(self):
        with _one_trace() as recorder:
            with obs.span("s", source="file.zip", n=3):
                pass
        assert _spans(recorder)[0]["attrs"] == {"source": "file.zip", "n": 3}

    def test_write_jsonl(self, tmp_path):
        with _one_trace() as recorder:
            with obs.span("a"):
                with obs.span("b"):
                    pass
        path = tmp_path / "trace.jsonl"
        assert recorder.dump_jsonl(path) == 1
        (trace,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in trace["spans"]] == ["b", "a"]


class TestRenderText:
    def test_empty(self, registry):
        assert obs.render_text() == "no metrics recorded"

    def test_sections_present(self, registry):
        obs.counter("ingest.files_read").inc(3)
        obs.gauge("trainingdb.locations").set(30)
        h = obs.histogram("locate.latency_ms")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = obs.render_text()
        assert "counters:" in text and "gauges:" in text and "histograms:" in text
        assert "ingest.files_read" in text
        assert "p95=" in text

    def test_output_independent_of_insertion_order(self):
        # Same series created in opposite orders must render identically
        # (exporters and diffs depend on deterministic series order).
        forward, backward = obs.MetricsRegistry(), obs.MetricsRegistry()
        for reg, order in ((forward, (1, 2, 3)), (backward, (3, 2, 1))):
            for i in order:
                reg.counter("req", algo=f"a{i}").inc(i)
                reg.gauge("lvl", algo=f"a{i}").set(i)
                reg.histogram("lat", algo=f"a{i}").observe(float(i))
        assert obs.render_text(forward.snapshot()) == obs.render_text(
            backward.snapshot()
        )

    def test_series_sorted_by_name_then_label_tuple(self, registry):
        obs.counter("x", b="1").inc()
        obs.counter("x", a="2").inc()
        obs.counter("w").inc()
        text = obs.render_text()
        assert (
            text.index("w") < text.index("x{a=2}") < text.index("x{b=1}")
        )


class TestMetricsCliFlags:
    def test_metrics_and_metrics_json_written(self, registry, tmp_path, house):
        from repro.cli import generator_main
        from repro.obs.export import JSON_SCHEMA

        survey_dir = tmp_path / "survey"
        house.survey(rng=0).save_directory(survey_dir)
        map_path = tmp_path / "locations.txt"
        house.location_map().save(map_path)

        raw_path = tmp_path / "metrics.json"
        exporter_path = tmp_path / "metrics.export.json"
        rc = generator_main(
            [
                str(survey_dir),
                str(map_path),
                str(tmp_path / "out.tdb"),
                "--metrics",
                str(raw_path),
                "--metrics-json",
                str(exporter_path),
            ]
        )
        assert rc == 0

        raw = json.loads(raw_path.read_text())
        assert raw["counters"]["trainingdb.builds"] == 1  # raw snapshot shape

        payload = json.loads(exporter_path.read_text())
        assert payload["schema"] == JSON_SCHEMA  # exporter document shape
        names = {entry["name"] for entry in payload["counters"]}
        assert "trainingdb.builds" in names and "ingest.files_read" in names

    def test_metrics_json_alone(self, registry, tmp_path, house):
        from repro.cli import generator_main

        survey_dir = tmp_path / "survey"
        house.survey(rng=0).save_directory(survey_dir)
        map_path = tmp_path / "locations.txt"
        house.location_map().save(map_path)

        exporter_path = tmp_path / "m.json"
        rc = generator_main(
            [
                str(survey_dir),
                str(map_path),
                str(tmp_path / "out.tdb"),
                "--metrics-json",
                str(exporter_path),
            ]
        )
        assert rc == 0
        assert json.loads(exporter_path.read_text())["schema"]


class TestPipelineInstrumentation:
    """The hot paths actually emit (light integration checks)."""

    def test_locate_counters_and_latency(self, registry):
        from repro.algorithms.base import Observation
        from repro.algorithms.knn import KNNLocalizer
        from repro.core.geometry import Point
        from repro.core.trainingdb import LocationRecord, TrainingDatabase

        B = ["a", "b", "c"]
        rng = np.random.default_rng(0)
        db = TrainingDatabase(
            B,
            [
                LocationRecord(f"p{i}", Point(float(i), 0.0),
                               rng.normal(-60, 2, (5, 3)).astype(np.float32))
                for i in range(4)
            ],
        )
        loc = KNNLocalizer().fit(db)
        o = Observation(rng.normal(-60, 2, (3, 3)), bssids=B)
        loc.locate(o)
        loc.locate_many([o, o])
        snap = obs.snapshot()
        assert snap["counters"]["locate.valid{algorithm=knn}"] == 3
        assert snap["counters"]["locate.batched{algorithm=knn}"] == 2
        assert snap["histograms"]["locate.latency_ms{algorithm=knn}"]["count"] == 1
        assert snap["histograms"]["locate.batch_ms{algorithm=knn}"]["count"] == 1

    def test_default_batch_loop_counts_each_request_once(self, registry):
        from repro.algorithms.base import Observation
        from repro.algorithms.fieldmle import FieldMLELocalizer
        from repro.core.geometry import Point
        from repro.core.trainingdb import LocationRecord, TrainingDatabase

        B = ["a", "b", "c"]
        rng = np.random.default_rng(1)
        db = TrainingDatabase(
            B,
            [
                LocationRecord(f"p{i}-{j}", Point(10.0 * i, 10.0 * j),
                               rng.normal(-60, 2, (5, 3)).astype(np.float32))
                for i in range(3)
                for j in range(3)
            ],
        )
        loc = FieldMLELocalizer(resolution_ft=5.0).fit(db)
        o = Observation(rng.normal(-60, 2, (3, 3)), bssids=B)
        loc.locate_many([o, o, o])
        snap = obs.snapshot()
        valid = snap["counters"].get("locate.valid{algorithm=fieldmle}", 0)
        invalid = snap["counters"].get("locate.invalid{algorithm=fieldmle}", 0)
        assert valid + invalid == 3  # not double-counted by the inner loop

    def test_ingest_counters_from_report(self, registry):
        from repro.robustness.report import IngestReport

        report = IngestReport(lenient=True)
        report.count_file()
        report.count_records(7)
        report.skip_line("f", 3, "junk")
        report.quarantine("g", "not utf-8")
        report.conflict("loc", "position", "(0,0)", "(1,1)", "h")
        snap = obs.snapshot()
        assert snap["counters"]["ingest.files_read"] == 1
        assert snap["counters"]["ingest.records_kept"] == 7
        assert snap["counters"]["ingest.skipped_lines"] == 1
        assert snap["counters"]["ingest.quarantined"] == 1
        assert snap["counters"]["ingest.header_conflicts"] == 1
        # the report's own tallies are unchanged by the metric emission
        assert report.files_read == 1 and report.records_kept == 7

    def test_trainingdb_build_metrics_and_spans(self, registry, tmp_path):
        from repro.core.locationmap import LocationMap
        from repro.core.trainingdb import generate_training_db
        from repro.experiments.house import ExperimentHouse, HouseConfig

        house = ExperimentHouse(HouseConfig(dwell_s=2.0))
        survey_dir = tmp_path / "survey"
        house.survey(rng=0).save_directory(survey_dir)
        map_path = tmp_path / "locations.txt"
        house.location_map().save(map_path)

        with _one_trace() as recorder:
            db = generate_training_db(survey_dir, map_path)
        snap = obs.snapshot()
        assert snap["counters"]["trainingdb.builds"] == 1
        assert snap["gauges"]["trainingdb.locations"] == len(db)
        assert snap["counters"]["ingest.files_read"] == len(db)
        spans = _spans(recorder)
        names = [e["name"] for e in spans]
        assert "trainingdb.build" in names
        assert "wiscan.from_directory" in names
        build = next(e for e in spans if e["name"] == "trainingdb.build")
        load = next(e for e in spans if e["name"] == "wiscan.load")
        assert load["parent_span"] == build["span"]  # ingestion nests under the build

    def test_fallback_decision_counters(self, registry):
        from repro.algorithms.base import Observation
        from repro.algorithms.fallback import FallbackLocalizer
        from repro.core.geometry import Point
        from repro.core.trainingdb import LocationRecord, TrainingDatabase

        B = ["a", "b", "c"]
        rng = np.random.default_rng(2)
        db = TrainingDatabase(
            B,
            [
                LocationRecord(f"p{i}", Point(float(i), 0.0),
                               rng.normal(-60, 2, (5, 3)).astype(np.float32))
                for i in range(4)
            ],
        )
        chain = FallbackLocalizer().fit(db)  # no ap_positions: prob + nearest
        # Observation hearing one AP: probabilistic declines (min_common_aps),
        # the nearest tier answers.
        samples = np.full((3, 3), np.nan)
        samples[:, 0] = -58.0
        est = chain.locate(Observation(samples, bssids=B))
        assert est.valid
        snap = obs.snapshot()
        assert snap["counters"]["fallback.declined{tier=probabilistic}"] == 1
        assert snap["counters"]["fallback.answered{tier=nearest}"] == 1
