"""One serving path: a single building is a one-site registry.

``LocalizationHTTPServer(service)`` and a server over a
``ModelRegistry`` of the same one pack must be the same server: same
answer bytes, same metric series, no ``site`` label anywhere a
single-building server never had one.  Also pinned here, on every
kind of server: tracking reads and closes survive a drain, a shed
tracking step's ``Retry-After`` is timed by the track queue, and a
malformed ``Content-Length`` gets a 400 rather than a dropped
connection.
"""

from __future__ import annotations

import json
import shutil
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve import LocalizationHTTPServer, LocalizationService, ModelRegistry

pytestmark = pytest.mark.service


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


@pytest.fixture()
def service(site_fleet):
    return LocalizationService(
        site_fleet.packs["site-a"],
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


class TestOneSiteIsAFleetOfOne:
    def test_single_site_and_one_site_fleet_are_the_same_server(
        self, site_fleet, observations, tmp_path
    ):
        pack = site_fleet.packs["site-a"]
        fleet_dir = tmp_path / "fleet-of-one"
        fleet_dir.mkdir()
        shutil.copy(pack, fleet_dir / "site-a.tdb")
        docs = [observation_doc(o, dt_s=1.0) for o in observations[:4]]

        def drive(make_server):
            obs.set_registry(obs.MetricsRegistry())
            with make_server() as server:
                answers = [
                    request(server.url + path, "POST", doc)[2]
                    for doc in docs
                    for path in (
                        "/v1/locate", "/v1/sites/site-a/locate", "/v1/track/dev-1",
                    )
                ]
                _, _, body = request(server.url + "/metrics.json")
            payload = json.loads(body)
            series = [
                entry
                for group in ("counters", "gauges", "histograms")
                for entry in payload[group]
            ]
            return answers, series

        single, single_series = drive(
            lambda: LocalizationHTTPServer(LocalizationService(pack))
        )
        fleet, fleet_series = drive(
            lambda: LocalizationHTTPServer(registry=ModelRegistry(str(fleet_dir)))
        )
        assert single == fleet
        assert all(json.loads(body)["valid"] for body in single)
        keys = {entry["series"] for entry in single_series}
        assert keys == {entry["series"] for entry in fleet_series}
        # Only the registry's own series name the site; request, batch
        # and session series keep their single-building names.
        assert {k for k in keys if "site=" in k} == {
            k for k in keys if k.startswith("serve.site.")
        }
        batchers = {
            entry["labels"]["batcher"]
            for entry in single_series
            if "batcher" in entry["labels"]
        }
        assert batchers == {"http", "track"}


class TestDrainKeepsTrackReads:
    @pytest.mark.parametrize("sites", [1, 2])
    def test_track_reads_and_closes_answer_after_drain(
        self, sites, site_fleet, service, observations
    ):
        if sites == 1:
            server, site = LocalizationHTTPServer(service), "site-a"
        else:
            registry = ModelRegistry(site_fleet.manifest)
            server, site = LocalizationHTTPServer(registry=registry), "site-b"
        paths = {
            "dev-1": "/v1/track/dev-1",
            "dev-2": f"/v1/sites/{site}/track/dev-2",
        }
        with server:
            for path in paths.values():
                status, _, body = request(
                    server.url + path, "POST", observation_doc(observations[0])
                )
                assert status == 200, body
            assert server.drain(deadline_s=5.0)["drained"] is True
            for session_id, path in paths.items():
                status, _, body = request(server.url + path)
                assert status == 200, body
                assert json.loads(body)["session"]["seq"] == 1
                status, _, body = request(server.url + path, "DELETE")
                assert status == 200, body
                assert json.loads(body) == {
                    "closed": True, "session": {"id": session_id, "seq": 1},
                }
            # Data-plane work stays refused.
            status, _, _ = request(
                server.url + paths["dev-1"], "POST", observation_doc(observations[1])
            )
            assert status == 503


class _Gate:
    """Holds a batcher's dispatch open until released."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, batch):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return self.inner(batch)


class TestShedRetryAfter:
    def test_shed_track_step_is_timed_by_the_track_queue(self, service, observations):
        # One step per dispatch, a one-second window: a four-deep track
        # queue takes four seconds to clear, while the locate queue is
        # empty.
        server = LocalizationHTTPServer(
            service, max_batch=1, max_wait_ms=1000.0, max_queue=16, p99_limit_ms=1.0
        )
        gate = _Gate(server.sessions.batcher._dispatch)
        server.sessions.batcher._dispatch = gate
        with server:
            futures = [server.sessions.step("parked", observations[0], 1.0)[0]]
            assert gate.entered.wait(timeout=30.0)
            futures += [
                server.sessions.step(f"dev-{i}", observations[i], 1.0)[0]
                for i in range(1, 5)
            ]
            assert server.sessions.batcher.queue_depth() == 4
            for _ in range(8):  # trip the p99 brake for normal traffic
                server.admission.note_latency_ms(100.0)
            status, headers, body = request(
                server.url + "/v1/track/late", "POST", observation_doc(observations[5])
            )
            gate.release.set()
            for future in futures:
                future.result(timeout=30)
        assert status == 429
        assert json.loads(body)["error"] == "overloaded"
        assert headers["Retry-After"] == "4"


def raw_exchange(server, head: bytes, body: bytes = b"") -> bytes:
    """Send one request on a fresh connection; read until the server closes it."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestBadContentLength:
    @pytest.mark.parametrize(
        "method, path, value",
        [
            ("POST", "/v1/locate", "abc"),
            ("POST", "/v1/locate", "1e3"),
            ("POST", "/admin/reload", "1e3"),
            ("GET", "/healthz", "abc"),
        ],
    )
    def test_malformed_content_length_is_400_and_closes(
        self, service, observations, capfd, method, path, value
    ):
        body = json.dumps(observation_doc(observations[0])).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\nContent-Length: {value}\r\n"
            "X-Request-Id: bad-length-1\r\n\r\n"
        ).encode("ascii")
        with LocalizationHTTPServer(service) as server:
            reply = raw_exchange(server, head, body)
            # The server keeps serving on fresh connections.
            healthy, _, _ = request(server.url + "/healthz")
            located, _, _ = request(
                server.url + "/v1/locate", "POST", observation_doc(observations[0])
            )
        status_line, _, rest = reply.partition(b"\r\n")
        headers, _, payload = rest.partition(b"\r\n\r\n")
        assert status_line.startswith(b"HTTP/1.1 400"), reply
        assert b"Connection: close" in headers
        doc = json.loads(payload)
        assert doc["error"] == "bad_content_length"
        assert doc["request_id"] == "bad-length-1"
        assert healthy == 200 and located == 200
        assert "Traceback" not in capfd.readouterr().err
