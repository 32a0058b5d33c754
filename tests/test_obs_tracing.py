"""Request tracing: TraceContext, FlightRecorder, exemplars, OpenMetrics.

Pure in-process tests (tier 1): context propagation and parsing,
flight-recorder retention policy, and histogram exemplars through the
OpenMetrics exposition.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.export import render_openmetrics
from repro.obs.trace import SNAPSHOT_SCHEMA, FlightRecorder, TraceContext


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


@pytest.fixture()
def recorder():
    rec = FlightRecorder()
    previous = obs.set_recorder(rec)
    yield rec
    obs.set_recorder(previous)


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = TraceContext.mint()
        header = ctx.to_traceparent()
        parsed = TraceContext.from_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.sampled is True

    def test_mint_ids_are_unique_and_well_formed(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 32
        assert int(a.trace_id, 16)  # hex, non-zero

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-zzzz-1234567890abcdef-01",           # non-hex trace id
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
        "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # version ff is reserved
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-0x" + "a" * 30 + "-" + "b" * 16 + "-01",  # 0x prefix in trace id
        "00-+" + "a" * 31 + "-" + "b" * 16 + "-01",   # sign in trace id
        "00- " + "a" * 31 + "-" + "b" * 16 + "-01",   # space in trace id
        "zz-" + "a" * 32 + "-" + "b" * 16 + "-01",    # non-hex version
        "00-" + "a" * 32 + "-" + "b" * 16 + "-01-extra",  # version 00 has 4 fields
    ])
    def test_malformed_traceparent_is_treated_as_absent(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_unsampled_flag_parses(self):
        ctx = TraceContext.from_traceparent("00-" + "a" * 32 + "-" + "b" * 16 + "-00")
        assert ctx is not None and ctx.sampled is False

    def test_child_keeps_trace_id_fresh_span_id(self):
        ctx = TraceContext.mint()
        kids = {ctx.child().span_id for _ in range(5)}
        assert len(kids) == 5
        assert all(c.trace_id == ctx.trace_id for c in (ctx.child(),))

    def test_bind_and_current_context(self):
        assert obs.current_context() is None
        ctx = TraceContext.mint()
        with obs.bind(ctx):
            assert obs.current_context() is ctx
            with obs.bind(None):  # explicit unbind nests
                assert obs.current_context() is None
            assert obs.current_context() is ctx
        assert obs.current_context() is None


class TestSpanUnderContext:
    def test_spans_nest_with_parent_chain(self, recorder):
        ctx = TraceContext.mint()
        recorder.begin(ctx)
        with obs.bind(ctx):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        recorder.finish(ctx.trace_id)
        trace = recorder.get(ctx.trace_id)
        spans = {s["name"]: s for s in trace["spans"]}
        assert spans["inner"]["parent_span"] == spans["outer"]["span"]
        assert spans["outer"]["trace_id"] == ctx.trace_id
        # inner closed first (spans arrive in completion order)
        assert [s["name"] for s in trace["spans"]] == ["inner", "outer"]

    def test_annotate_lands_on_innermost_open_span(self, recorder):
        ctx = TraceContext.mint()
        recorder.begin(ctx)
        with obs.bind(ctx):
            with obs.span("edge"):
                obs.annotate(decision="shed", http_status=429)
        recorder.finish(ctx.trace_id, status="http_429")
        trace = recorder.get(ctx.trace_id)
        assert trace["spans"][0]["attrs"] == {"decision": "shed", "http_status": 429}
        assert trace["pinned"] is True

    def test_annotate_outside_any_span_is_noop(self):
        obs.annotate(decision="nobody-home")  # must not raise

    def test_span_without_context_or_tracer_is_free(self, recorder):
        with obs.span("untraced"):
            pass
        assert recorder.stats()["open"] == 0

    def test_unsampled_context_records_nothing(self, recorder):
        ctx = TraceContext(TraceContext.mint().trace_id, None, sampled=False)
        recorder.begin(ctx)
        with obs.bind(ctx):
            with obs.span("quiet"):
                pass
        assert recorder.stats()["open"] == 0
        assert recorder.traces() == []


class TestFlightRecorder:
    def test_error_trace_is_pinned_ok_trace_rides_the_ring(self, recorder):
        for i, status in enumerate(["ok", "http_500"]):
            ctx = TraceContext.mint()
            recorder.begin(ctx, endpoint="locate")
            recorder.finish(ctx.trace_id, status=status)
        traces = recorder.traces()
        by_status = {t["status"]: t for t in traces}
        assert by_status["http_500"]["pinned"] is True
        assert by_status["ok"]["pinned"] is False

    def test_explicit_pin_keeps_reason(self, recorder):
        ctx = TraceContext.mint()
        recorder.begin(ctx)
        recorder.finish(ctx.trace_id, status="ok", pin=True, reason="deadline_miss")
        assert recorder.get(ctx.trace_id)["reason"] == "deadline_miss"

    def test_ok_ring_is_bounded_pinned_survive(self):
        rec = FlightRecorder(keep_ok=4, keep_pinned=4)
        pinned_ctx = TraceContext.mint()
        rec.begin(pinned_ctx)
        rec.finish(pinned_ctx.trace_id, status="boom")
        for _ in range(20):
            ctx = TraceContext.mint()
            rec.begin(ctx)
            rec.finish(ctx.trace_id)
        traces = rec.traces()
        assert len([t for t in traces if not t["pinned"]]) == 4
        assert rec.get(pinned_ctx.trace_id) is not None  # healthy burst can't evict it

    def test_sampling_keeps_one_in_n(self):
        rec = FlightRecorder(sample_every=5, keep_ok=100)
        for _ in range(20):
            ctx = TraceContext.mint()
            rec.begin(ctx)
            rec.finish(ctx.trace_id)
        assert len(rec.traces()) == 4
        assert rec.stats()["sampled_out"] == 16

    def test_open_traces_bounded_oldest_evicted(self):
        rec = FlightRecorder(max_open=3)
        ctxs = [TraceContext.mint() for _ in range(5)]
        for ctx in ctxs:
            rec.begin(ctx)
        assert rec.stats()["open"] == 3
        assert rec.stats()["dropped_open"] == 2
        assert rec.finish(ctxs[0].trace_id) is None  # evicted

    def test_spans_per_trace_truncate(self):
        rec = FlightRecorder(max_spans=2)
        ctx = TraceContext.mint()
        rec.begin(ctx)
        for i in range(5):
            rec.record({"name": f"s{i}", "trace_id": ctx.trace_id})
        rec.finish(ctx.trace_id)
        assert len(rec.get(ctx.trace_id)["spans"]) == 2
        assert rec.stats()["truncated_spans"] == 3

    def test_linked_span_copied_into_every_linked_trace(self, recorder):
        a, b = TraceContext.mint(), TraceContext.mint()
        recorder.begin(a)
        recorder.begin(b)
        dispatch = {
            "name": "serve.dispatch",
            "trace_id": a.trace_id,
            "attrs": {"links": [
                {"trace_id": a.trace_id, "span_id": "1" * 16},
                {"trace_id": b.trace_id, "span_id": "2" * 16},
            ]},
        }
        recorder.record(dispatch)
        recorder.finish(a.trace_id)
        recorder.finish(b.trace_id)
        for ctx in (a, b):
            names = [s["name"] for s in recorder.get(ctx.trace_id)["spans"]]
            assert names == ["serve.dispatch"]

    def test_snapshot_and_merge_docs_dedupe_by_span_count(self):
        rec_a, rec_b = FlightRecorder(), FlightRecorder()
        ctx = TraceContext.mint()
        # Worker A saw the trace; worker B holds a richer copy.
        for rec, n_spans in ((rec_a, 1), (rec_b, 3)):
            rec.begin(ctx, endpoint="locate")
            for i in range(n_spans):
                rec.record({"name": f"s{i}", "trace_id": ctx.trace_id})
            rec.finish(ctx.trace_id)
        merged = FlightRecorder.merge_docs([rec_a.snapshot(), rec_b.snapshot()])
        assert merged["schema"] == SNAPSHOT_SCHEMA
        assert merged["workers"] == 2
        assert len(merged["traces"]) == 1
        assert len(merged["traces"][0]["spans"]) == 3
        assert merged["stats"]["finished"] == 2

    def test_merge_docs_ignores_garbage(self):
        merged = FlightRecorder.merge_docs([{}, {"traces": "nope"}, None])
        assert merged["traces"] == []

    def test_dump_jsonl(self, recorder, tmp_path):
        ctx = TraceContext.mint()
        recorder.begin(ctx)
        recorder.finish(ctx.trace_id)
        path = tmp_path / "traces.jsonl"
        assert recorder.dump_jsonl(path) == 1
        doc = json.loads(path.read_text().splitlines()[0])
        assert doc["trace_id"] == ctx.trace_id


class TestExemplarsAndOpenMetrics:
    def test_histogram_stores_exemplar_per_bucket(self):
        h = obs.histogram("serve.http_latency_ms", endpoint="locate")
        h.observe(5.0, trace_id="a" * 32)
        h.observe(5.0, trace_id="b" * 32)  # same bucket: last write wins
        h.observe(50.0)  # no trace: no exemplar
        state = obs.get_registry().dump_state()
        ((_, hstate),) = [
            (k, v) for k, v in state["histograms"].items()
        ]
        exemplars = hstate["exemplars"]
        assert len(exemplars) == 1
        ((_, (value, trace_id, ts)),) = exemplars.items()
        assert value == 5.0 and trace_id == "b" * 32 and ts > 0

    def test_render_openmetrics_exposes_exemplars_and_eof(self):
        obs.counter("batch.requests", algorithm="t").inc(3)
        obs.gauge("serve.queue_depth").set(2)
        h = obs.histogram("serve.http_latency_ms", endpoint="locate")
        h.observe(12.5, trace_id="c" * 32)
        text = render_openmetrics()
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert "repro_batch_requests_total{algorithm=\"t\"} 3" in text
        assert any(
            "_bucket{" in line and '# {trace_id="' + "c" * 32 + '"}' in line
            for line in lines
        )
        # cumulative histogram rows end with +Inf and _sum/_count
        assert any('le="+Inf"' in line for line in lines)
        assert any("_count{" in line for line in lines)

    def test_exemplars_survive_merge_state(self):
        h = obs.histogram("serve.http_latency_ms", endpoint="locate")
        h.observe(10.0, trace_id="d" * 32)
        state = obs.get_registry().dump_state()
        merged = obs.MetricsRegistry()
        merged.merge(state)
        merged.merge(state)
        out = merged.dump_state()
        ((_, hstate),) = list(out["histograms"].items())
        assert list(hstate["exemplars"].values())[0][1] == "d" * 32

    def test_bucket_groups_capped(self):
        h = obs.histogram("wide")
        for i in range(200):
            h.observe(1.001 ** (i * 40) * (i + 1))
        text = render_openmetrics(max_buckets=8)
        buckets = [l for l in text.splitlines()
                   if "_bucket{" in l and '+Inf' not in l]
        assert 0 < len(buckets) <= 8
