"""The HTTP front door: endpoints, admission control, deadlines, reload, drift.

Everything here binds a localhost socket (``service`` tier).  The
admission-control and deadline tests hold the dispatcher open with
events and drive time with :class:`ManualClock` — deterministic, no
sleeps, no load-dependent timing.
"""

from __future__ import annotations

import json
import math
import re
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.algorithms.base import Observation
from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.serve import (
    LocalizationHTTPServer,
    LocalizationService,
    ManualClock,
    ModelRegistry,
)
from repro.serve.http import run_health_checks
from tests.test_obs_export import _assert_valid_exposition

pytestmark = pytest.mark.service


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


@pytest.fixture(scope="module")
def db_path(site_fleet):
    # The shared fleet's default site is the house's training database.
    return site_fleet.packs["site-a"]


@pytest.fixture()
def service(db_path, site_fleet):
    return LocalizationService(
        db_path,
        ap_positions=site_fleet.ap_positions,
        bounds=site_fleet.bounds,
    )


def observation_doc(observation, **extra):
    doc = {
        "samples": [
            [None if v != v else v for v in row]
            for row in observation.samples.tolist()
        ],
        "bssids": list(observation.bssids),
    }
    doc.update(extra)
    return doc


def request(url, method="GET", doc=None):
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, dict(r.headers), r.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


class TestEndpoints:
    def test_index_serves_model_card(self, service):
        with LocalizationHTTPServer(service) as server:
            status, _, body = request(server.url + "/")
        doc = json.loads(body)
        assert status == 200
        assert doc["model"]["algorithm"] == "fallback"
        assert doc["model"]["tiers"] == ["geometric", "probabilistic", "nearest"]
        assert "POST /v1/locate" in doc["endpoints"]
        # Greedy dispatch by default, for locates and session steps alike.
        assert doc["batching"]["max_wait_ms"] == 0.0
        assert server.sessions.batcher.max_wait_s == 0.0

    def test_locate_answers_with_diagnostics(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            status, headers, body = request(
                server.url + "/v1/locate", "POST", observation_doc(observations[0])
            )
        doc = json.loads(body)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert doc["valid"] is True
        assert {"x", "y"} == set(doc["position"])
        assert doc["diagnostics"]["tier"] in ("geometric", "probabilistic", "nearest")

    def test_locate_batch(self, service, observations):
        docs = [observation_doc(o) for o in observations[:5]]
        with LocalizationHTTPServer(service) as server:
            status, _, body = request(
                server.url + "/v1/locate/batch", "POST", {"observations": docs}
            )
        estimates = json.loads(body)["estimates"]
        assert status == 200
        assert len(estimates) == 5
        assert all(e["valid"] for e in estimates)

    def test_healthz_reports_model_dispatcher_queue(self, service):
        with LocalizationHTTPServer(service) as server:
            status, _, body = request(server.url + "/healthz")
        report = json.loads(body)
        assert status == 200 and report["status"] == "ok"
        assert set(report["checks"]) == {
            "model", "dispatcher", "queue", "breakers", "sessions", "lifecycle",
            "registry", "rssi_drift",
        }
        assert report["checks"]["sessions"]["detail"]["active"] == 0
        assert report["checks"]["model"]["detail"]["algorithm"] == "fallback"

    def test_metrics_exposition_carries_serve_series(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            request(server.url + "/v1/locate", "POST", observation_doc(observations[0]))
            status, headers, body = request(server.url + "/metrics")
            status_json, _, body_json = request(server.url + "/metrics.json")
        assert status == 200 and headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "repro_serve_http_requests_total" in text
        assert "repro_serve_batch_size" in text
        assert "repro_serve_queue_depth" in text
        payload = json.loads(body_json)
        assert status_json == 200 and payload["schema"] == "repro.obs/2"

    def test_metrics_endpoint_serves_valid_exposition(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            request(server.url + "/v1/locate", "POST", observation_doc(observations[0]))
            status, headers, body = request(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        _assert_valid_exposition(body.decode())

    def test_unknown_path_404_lists_routes(self, service):
        with LocalizationHTTPServer(service) as server:
            status, _, body = request(server.url + "/nope")
        assert status == 404
        assert "/v1/locate" in json.loads(body)["paths"]

    def test_per_endpoint_counters(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            request(server.url + "/v1/locate", "POST", observation_doc(observations[0]))
            request(server.url + "/healthz")
        counters = obs.snapshot()["counters"]
        assert counters["serve.http_requests{code=200,endpoint=locate}"] == 1
        assert counters["serve.http_requests{code=200,endpoint=healthz}"] == 1


class TestBadRequests:
    @pytest.mark.parametrize(
        "doc, error",
        [
            (None, "empty_body"),
            ({"nope": 1}, "bad_observation"),
            ({"samples": []}, "bad_observation"),
            ({"samples": [[1.0], [1.0, 2.0]]}, "bad_observation"),
            ({"samples": [["x"]]}, "bad_observation"),
            ({"samples": [[-60.0]], "bssids": ["a", "b"]}, "bad_observation"),
            ({"samples": [[-60.0]], "deadline_ms": -5}, "bad_deadline"),
            ({"samples": [[-60.0]], "deadline_ms": math.nan}, "bad_deadline"),
            ({"samples": [[-60.0]], "deadline_ms": math.inf}, "bad_deadline"),
            # Too large to wait on (1e300 ms), or an integer too large
            # for a float: both answered 500.
            ({"samples": [[-60.0]], "deadline_ms": 1e300}, "bad_deadline"),
            ({"samples": [[-60.0]], "deadline_ms": 10**400}, "bad_deadline"),
        ],
    )
    def test_locate_rejects_malformed_with_400(self, service, doc, error):
        with LocalizationHTTPServer(service) as server:
            status, _, body = request(server.url + "/v1/locate", "POST", doc)
        assert status == 400
        assert json.loads(body)["error"] == error

    @pytest.mark.parametrize("ms", [0.0, -5.0, math.nan, math.inf, 1e300])
    def test_unwaitable_default_deadline_is_refused(self, service, ms):
        # At 1e300 every locate answered 500: the handler's wait overflowed.
        with pytest.raises(ValueError, match="default_deadline_ms"):
            LocalizationHTTPServer(service, default_deadline_ms=ms)

    def test_bad_json_is_400_not_500(self, service):
        with LocalizationHTTPServer(service) as server:
            req = urllib.request.Request(
                server.url + "/v1/locate", data=b"{not json", method="POST"
            )
            try:
                with urllib.request.urlopen(req, timeout=60) as r:
                    status, body = r.status, r.read()
            except urllib.error.HTTPError as e:
                status, body = e.code, e.read()
        assert status == 400
        assert json.loads(body)["error"] == "bad_json"

    def test_batch_rejects_empty_and_malformed(self, service):
        with LocalizationHTTPServer(service) as server:
            status_empty, _, _ = request(
                server.url + "/v1/locate/batch", "POST", {"observations": []}
            )
            status_shape, _, _ = request(
                server.url + "/v1/locate/batch", "POST", {"rows": [1]}
            )
        assert status_empty == 400
        assert status_shape == 400


class _Gate:
    """Holds the service's locate_many open until released."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.armed = True

    def __call__(self, observations):
        if self.armed:
            self.armed = False
            self.entered.set()
            assert self.release.wait(timeout=30.0)
        return self.inner(observations)


class TestAdmissionAndDeadlines:
    def test_queue_overflow_is_429_with_retry_after(self, service, observations):
        gate = _Gate(service.locate_many)
        server = LocalizationHTTPServer(
            service, max_batch=1, max_wait_ms=0.0, max_queue=1, retry_after_s=2
        )
        server.batcher._dispatch = gate
        with server:
            results = {}

            def post_parked():
                results["parked"] = request(
                    server.url + "/v1/locate", "POST", observation_doc(observations[0])
                )

            t = threading.Thread(target=post_parked)
            t.start()
            assert gate.entered.wait(timeout=30.0)  # dispatcher is busy
            # Fill the bounded queue directly (no timing involved), then
            # the next HTTP request must be turned away at the door.
            queued = server.batcher.submit(observations[1])
            status, headers, body = request(
                server.url + "/v1/locate", "POST", observation_doc(observations[2])
            )
            assert status == 429
            assert headers["Retry-After"] == "2"
            assert json.loads(body)["error"] == "queue_full"
            gate.release.set()
            t.join(timeout=30.0)
            assert results["parked"][0] == 200
            assert queued.result(timeout=30).valid
        counters = obs.snapshot()["counters"]
        assert counters["serve.http_requests{code=429,endpoint=locate}"] == 1
        assert counters["serve.rejected{batcher=http,reason=queue_full}"] == 1

    def test_expired_deadline_is_504(self, service, observations):
        clock = ManualClock()
        gate = _Gate(service.locate_many)
        server = LocalizationHTTPServer(
            service, max_batch=1, max_wait_ms=0.0, max_queue=8, clock=clock
        )
        server.batcher._dispatch = gate
        with server:
            results = {}

            def post(name, doc):
                results[name] = request(server.url + "/v1/locate", "POST", doc)

            parked = threading.Thread(
                target=post, args=("parked", observation_doc(observations[0]))
            )
            parked.start()
            assert gate.entered.wait(timeout=30.0)
            doomed = threading.Thread(
                target=post,
                args=("doomed", observation_doc(observations[1], deadline_ms=500)),
            )
            doomed.start()
            # The doomed request is queued behind the parked dispatch;
            # a full virtual second passes before the dispatcher frees up.
            while server.batcher.queue_depth() < 1:
                if not parked.is_alive() and not doomed.is_alive():
                    break
            clock.advance(1.0)
            gate.release.set()
            parked.join(timeout=30.0)
            doomed.join(timeout=30.0)
        assert results["parked"][0] == 200
        status, _, body = results["doomed"]
        assert status == 504
        assert json.loads(body)["error"] == "deadline_exceeded"
        counters = obs.snapshot()["counters"]
        assert counters["serve.deadline_expired{batcher=http}"] == 1


class TestReload:
    def test_reload_swaps_generation_atomically(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            _, _, before = request(server.url + "/")
            status, _, body = request(server.url + "/admin/reload", "POST", {})
            doc = json.loads(body)
            assert status == 200 and doc["reloaded"] is True
            assert doc["model"]["generation"] == json.loads(before)["model"]["generation"] + 1
            # still serving, same answers available
            status, _, _ = request(
                server.url + "/v1/locate", "POST", observation_doc(observations[0])
            )
            assert status == 200
        counters = obs.snapshot()["counters"]
        assert counters["serve.reloads{result=ok}"] >= 1

    def test_failed_reload_keeps_previous_model(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            gen_before = json.loads(request(server.url + "/")[2])["model"]["generation"]
            status, _, body = request(
                server.url + "/admin/reload", "POST", {"database": "/nonexistent.tdb"}
            )
            assert status == 500
            assert json.loads(body)["error"] == "reload_failed"
            # old model still serving
            assert json.loads(request(server.url + "/")[2])["model"]["generation"] == gen_before
            status, _, body = request(
                server.url + "/v1/locate", "POST", observation_doc(observations[0])
            )
            assert status == 200
        counters = obs.snapshot()["counters"]
        assert counters["serve.reloads{result=failed}"] == 1

    def test_malformed_database_is_400(self, service):
        broadcast = []
        with LocalizationHTTPServer(service, admin_hook=broadcast.append) as server:
            gen_before = json.loads(request(server.url + "/")[2])["model"]["generation"]
            for database in (5, ["x"], {"a": 1}, ""):
                status, _, body = request(
                    server.url + "/admin/reload", "POST", {"database": database}
                )
                assert status == 400, (database, body)
                assert json.loads(body)["error"] == "bad_request"
            assert json.loads(request(server.url + "/")[2])["model"]["generation"] == gen_before
        assert broadcast == []  # no reload ran, so none reaches sibling workers
        counters = obs.snapshot()["counters"]
        assert "serve.reloads{result=failed}" not in counters


class TestLifecycle:
    def test_port_url_and_restart_guard(self, service):
        server = LocalizationHTTPServer(service)
        with pytest.raises(RuntimeError):
            server.port
        with server:
            assert server.url == f"http://127.0.0.1:{server.port}"
            with pytest.raises(RuntimeError):
                server.start()
        # stop() is idempotent
        server.stop()

    def test_stop_without_start_frees_the_default_site(self, service):
        # The constructor pins the default site and starts its
        # dispatchers; a server that never binds must still free them.
        server = LocalizationHTTPServer(service)
        server.stop()
        assert server.batcher.alive is False
        assert server.sessions.alive is False
        with pytest.raises(RuntimeError):
            server.registry.acquire(None)
        server.stop()  # idempotent

    def test_degraded_healthz_when_dispatcher_dies(self, service):
        with LocalizationHTTPServer(service) as server:
            server.batcher.stop()
            status, _, body = request(server.url + "/healthz")
        report = json.loads(body)
        assert status == 503
        assert report["status"] == "degraded"
        assert report["checks"]["dispatcher"]["ok"] is False


class TestTrackingSessionsHTTP:
    def test_post_creates_steps_and_reports_sequence(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            url = server.url + "/v1/track/dev-1"
            status, headers, body = request(url, "POST", observation_doc(observations[0]))
            first = json.loads(body)
            status2, _, body2 = request(url, "POST", observation_doc(observations[1]))
            second = json.loads(body2)
        assert status == 200 and status2 == 200
        assert headers["Content-Type"] == "application/json"
        assert first["session"] == {"id": "dev-1", "seq": 1, "created": True}
        assert second["session"] == {"id": "dev-1", "seq": 2, "created": False}
        assert first["valid"] is True and {"x", "y"} == set(first["position"])
        assert "raw" in first["tracking"]  # kalman details ride along
        counters = obs.snapshot()["counters"]
        assert counters["serve.http_requests{code=200,endpoint=track}"] == 2
        assert counters["serve.sessions.created"] == 1
        assert counters["serve.track.steps"] == 2

    def test_get_before_and_after_steps(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            url = server.url + "/v1/track/dev-1"
            request(url, "POST", observation_doc(observations[0]))  # create
            status, _, body = request(url)
            stepped = json.loads(body)
            status_new, _, body_new = request(server.url + "/v1/track/never-stepped")
        assert status == 200
        assert stepped["session"]["seq"] == 1 and stepped["valid"] is True
        # GET never creates: an unknown id is 404, not an empty session.
        assert status_new == 404
        assert json.loads(body_new)["error"] == "unknown_session"

    def test_delete_closes_exactly_once(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            url = server.url + "/v1/track/dev-1"
            request(url, "POST", observation_doc(observations[0]))
            status, _, body = request(url, "DELETE")
            doc = json.loads(body)
            again, _, again_body = request(url, "DELETE")
            after, _, _ = request(url)
        assert status == 200
        assert doc == {"closed": True, "session": {"id": "dev-1", "seq": 1}}
        assert again == 404  # idempotent-delete contract
        assert json.loads(again_body)["error"] == "unknown_session"
        assert after == 404  # and it is gone for reads too

    def test_bad_session_id_and_bad_dt_are_400(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            status_id, _, body_id = request(
                server.url + "/v1/track/bad!id", "POST", observation_doc(observations[0])
            )
            status_dt, _, body_dt = request(
                server.url + "/v1/track/dev-1", "POST",
                observation_doc(observations[0], dt_s=-1.0),
            )
            # A non-finite dt_s is refused too, and never reaches the
            # filter: the session keeps answering afterwards.
            steps = [
                request(
                    server.url + "/v1/track/dev-2", "POST",
                    observation_doc(observations[0], dt_s=dt),
                )
                for dt in (1.0, math.nan, math.inf, 1.0)
            ]
        assert status_id == 400
        assert json.loads(body_id)["error"] == "bad_session_id"
        assert status_dt == 400
        assert json.loads(body_dt)["error"] == "bad_dt"
        assert [status for status, _, _ in steps] == [200, 400, 400, 200]
        assert all(json.loads(body)["error"] == "bad_dt" for _, _, body in steps[1:3])
        last = json.loads(steps[3][2])
        assert last["session"]["seq"] == 2
        assert all(math.isfinite(last["position"][k]) for k in ("x", "y"))

    def test_ts_field_drives_dt_and_rejects_rewinds(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            url = server.url + "/v1/track/dev-1"
            status1, _, body1 = request(
                url, "POST", observation_doc(observations[0], ts=1000.0)
            )
            status2, _, body2 = request(
                url, "POST", observation_doc(observations[1], ts=1002.5)
            )
            # 90 seconds behind the high-water mark: the clock is lying.
            status3, _, body3 = request(
                url, "POST", observation_doc(observations[0], ts=910.0)
            )
            status4, _, body4 = request(
                url, "POST", observation_doc(observations[0], ts=1003.0)
            )
        assert status1 == 200 and status2 == 200
        assert json.loads(body2)["session"]["seq"] == 2
        assert status3 == 400
        assert json.loads(body3)["error"] == "bad_timestamp"
        assert "rewinds" in json.loads(body3)["detail"]
        # the rejected scan left the session usable
        assert status4 == 200
        assert json.loads(body4)["session"]["seq"] == 3
        counters = obs.snapshot()["counters"]
        assert counters["tracking.bad_timestamps{kind=rejected}"] == 1

    def test_non_numeric_ts_is_400(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            for bad in ("noon", float("nan")):
                status, _, body = request(
                    server.url + "/v1/track/dev-1",
                    "POST",
                    observation_doc(observations[0], ts=bad),
                )
                assert status == 400
                assert json.loads(body)["error"] == "bad_ts"

    def test_healthz_and_index_surface_session_occupancy(self, service, observations):
        with LocalizationHTTPServer(service, session_capacity=77) as server:
            request(server.url + "/v1/track/dev-1", "POST", observation_doc(observations[0]))
            _, _, health = request(server.url + "/healthz")
            _, _, index = request(server.url + "/")
        detail = json.loads(health)["checks"]["sessions"]["detail"]
        assert detail["active"] == 1 and detail["capacity"] == 77
        assert detail["filter"] == "kalman"
        card = json.loads(index)
        assert card["tracking"]["session_capacity"] == 77
        assert "POST /v1/track/{session}" in card["endpoints"]

    def test_ttl_expiry_over_http(self, service, observations):
        clock = ManualClock()
        with LocalizationHTTPServer(service, clock=clock, session_ttl_s=30.0) as server:
            url = server.url + "/v1/track/dev-1"
            status, _, _ = request(url, "POST", observation_doc(observations[0]))
            assert status == 200
            clock.advance(30.0)
            gone, _, body = request(url)
            _, _, health = request(server.url + "/healthz")
        assert gone == 404
        assert json.loads(body)["error"] == "unknown_session"
        assert json.loads(health)["checks"]["sessions"]["detail"]["active"] == 0
        assert obs.snapshot()["counters"]["serve.sessions.expired"] == 1

    def test_reload_rebinds_live_sessions(self, service, observations):
        with LocalizationHTTPServer(service) as server:
            url = server.url + "/v1/track/dev-1"
            request(url, "POST", observation_doc(observations[0]))
            status, _, body = request(server.url + "/admin/reload", "POST", {})
            doc = json.loads(body)
            # The session survived the generation swap and keeps counting.
            status_step, _, body_step = request(
                url, "POST", observation_doc(observations[1])
            )
        assert status == 200 and doc["reloaded"] is True
        assert doc["sessions"] == {"sessions": 1, "kept": 1, "reset": 0}
        assert status_step == 200
        assert json.loads(body_step)["session"]["seq"] == 2

    def test_track_deadline_already_expired_is_504(self, service, observations):
        """A dead-on-arrival ``X-Deadline-Ms`` budget 504s before any
        tracker time is spent, same contract as ``/v1/locate``."""
        with LocalizationHTTPServer(service) as server:
            data = json.dumps(observation_doc(observations[0])).encode("utf-8")
            req = urllib.request.Request(
                server.url + "/v1/track/dev-1", data=data, method="POST",
                headers={"X-Deadline-Ms": "0"},
            )
            try:
                with urllib.request.urlopen(req, timeout=60) as r:
                    status, body = r.status, r.read()
            except urllib.error.HTTPError as e:
                status, body = e.code, e.read()
        assert status == 504
        assert json.loads(body)["error"] == "deadline_exceeded"


class TestHealthChecks:
    def test_raising_check_degrades_not_crashes(self):
        def bad_check():
            raise RuntimeError("monitor bug")

        ok, report = run_health_checks([("fine", lambda: (True, "x")), ("bad", bad_check)])
        assert ok is False and report["status"] == "degraded"
        assert report["checks"]["fine"] == {"ok": True, "detail": "x"}
        assert report["checks"]["bad"]["ok"] is False
        assert "RuntimeError: monitor bug" in report["checks"]["bad"]["detail"]


def _metric(text, name, ap):
    """One Prometheus sample's value by name and ``ap`` label (or None)."""
    match = re.search(rf'^{name}{{ap="{re.escape(ap)}"}} (\S+)$', text, re.M)
    return None if match is None else float(match.group(1))


class TestRssiDrift:
    """Every scan a site decodes feeds its drift monitor; /healthz reports it."""

    def test_shifted_ap_is_reported_but_healthz_stays_ok(self, service, house):
        # Matched traffic spread over the whole survey (traffic clustered
        # at a few spots would not match the survey-wide reference).
        positions = [sp.position for sp in house.training_points()]
        matched = house.observe_all(positions, rng=9, dwell_s=5.0)
        shifted = []
        for o in matched:
            samples = o.samples.copy()
            samples[:, 0] += 15.0  # the first AP moved / was re-powered
            shifted.append(Observation(samples, bssids=o.bssids))
        first, *others = matched[0].bssids

        def batch(observations):
            doc = {"observations": [observation_doc(o) for o in observations]}
            status, _, _ = request(server.url + "/v1/locate/batch", "POST", doc)
            assert status == 200

        with LocalizationHTTPServer(service) as server:
            batch(matched)
            status, _, body = request(server.url + "/healthz")
            detail = json.loads(body)["checks"]["rssi_drift"]["detail"]
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert set(detail) == {"site-a"}
            assert detail["site-a"]["aps_judged"] == 4
            assert detail["site-a"]["drifted"] == []

            for _ in range(9):
                batch(shifted)
            status, _, body = request(server.url + "/healthz")
            report = json.loads(body)
            _, _, metrics = request(server.url + "/metrics")
        assert status == 200 and report["status"] == "ok"
        check = report["checks"]["rssi_drift"]
        assert check["ok"] is True
        assert check["detail"]["site-a"]["drifted"] == [first]
        # A one-site server keeps unlabelled quality.* series.
        text = metrics.decode()
        assert _metric(text, "repro_quality_drift_alerts_total", first) == 1
        assert _metric(text, "repro_quality_ap_mean_shift_db", first) == pytest.approx(
            15.0, abs=1.0
        )
        for ap in others:
            assert _metric(text, "repro_quality_drift_alerts_total", ap) is None
            assert abs(_metric(text, "repro_quality_ap_mean_shift_db", ap)) < 6.0

    def test_every_data_route_feeds_its_sites_monitor(self, site_fleet, observations):
        sample = observations[0]
        finite = np.isfinite(sample.samples).sum(axis=0)
        registry = ModelRegistry(site_fleet.manifest)
        with LocalizationHTTPServer(registry=registry) as server:
            for path, doc in [
                ("/v1/locate", observation_doc(sample)),
                ("/v1/locate/batch", {"observations": [observation_doc(sample)] * 2}),
                ("/v1/track/dev-1", observation_doc(sample)),
                ("/v1/sites/site-b/locate", observation_doc(sample)),
                # No BSSIDs and one column against four: unalignable,
                # skipped by the monitor, answered as before.
                ("/v1/locate", {"samples": [[-60.0]]}),
            ]:
                status, _, body = request(server.url + path, "POST", doc)
                assert status == 200, body
            counts = {
                runtime.site_id: [
                    entry["n"]
                    for entry in runtime.drift_monitor().status(emit=False).values()
                ]
                for runtime in server.registry.resident()
            }
            _, _, body = request(server.url + "/healthz")
        assert counts == {"site-a": list(4 * finite), "site-b": list(finite)}
        detail = json.loads(body)["checks"]["rssi_drift"]["detail"]
        assert set(detail) == {"site-a", "site-b"}
        # A fleet labels each site's summary gauge.
        gauges = obs.snapshot()["gauges"]
        assert gauges["quality.drifted_aps{site=site-a}"] == 0
        assert gauges["quality.drifted_aps{site=site-b}"] == 0
