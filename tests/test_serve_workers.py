"""Multi-process serving: fleet metrics, control fan-out, supervision.

The unit half exercises the rundir protocols in-process (no sockets,
tier1): :class:`FleetMetrics` merges must be exactly the sum of the
per-worker dumps even after a JSON round-trip, :class:`ControlChannel`
must deliver each admin command to every sibling exactly once while the
originator skips its own broadcast, and :class:`WorkerSpec` must
survive pickling (it crosses the fork/spawn boundary).

The ``service`` half boots a real two-worker fleet through the CLI in a
subprocess and checks the acceptance contract end to end: the banner,
per-worker readiness files, ``/metrics.json`` totals equal to the sum
of the per-worker dumps, crash-restart by the supervisor, and a clean
``drain complete: unfinished=0`` exit on SIGTERM.  The single-process
``repro serve DB`` gets the same treatment under 200 concurrent
clients.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FlightRecorder, TraceContext
from repro.serve import LocalizationHTTPServer, LocalizationService, SiteDefinition
from repro.serve.workers import (
    ControlChannel,
    FleetMetrics,
    FleetTraces,
    Supervisor,
    WorkerSpec,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


# ----------------------------------------------------------------------
# FleetMetrics: the merge is exactly a sum
# ----------------------------------------------------------------------
def test_fleet_metrics_merge_is_exact_sum(tmp_path):
    # This process plays worker 0; worker 1's dump arrives the way it
    # does in production — a registry state through a JSON file.
    obs.counter("x.requests", code="200").inc(3)
    for v in (1.0, 2.0, 4.0):
        obs.histogram("x.lat").observe(v)
    sibling = MetricsRegistry()
    sibling.counter("x.requests", code="200").inc(4)
    sibling.counter("x.requests", code="429").inc(2)
    for v in (8.0, 16.0):
        sibling.histogram("x.lat").observe(v)
    (tmp_path / "metrics-1.json").write_text(json.dumps(sibling.dump_state()))

    snap = FleetMetrics(tmp_path, 0).merged_snapshot()
    assert snap["counters"]["x.requests{code=200}"] == 7
    assert snap["counters"]["x.requests{code=429}"] == 2
    hist = snap["histograms"]["x.lat"]
    assert hist["count"] == 5
    assert hist["sum"] == pytest.approx(31.0)
    assert hist["min"] == 1.0 and hist["max"] == 16.0


def test_fleet_metrics_histogram_merge_matches_single_stream(tmp_path):
    # Bucket-exact through the stringified-key JSON round-trip: merging
    # two worker dumps answers what one histogram fed both streams does.
    a, b, both = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for i, v in enumerate([0.5, 1.0, 3.0, 9.0, 27.0, 81.0, 0.0, -1.0]):
        (a if i % 2 else b).histogram("h").observe(v)
        both.histogram("h").observe(v)
    for index, reg in enumerate((a, b)):
        (tmp_path / f"metrics-{index}.json").write_text(
            json.dumps(reg.dump_state())
        )
    merged = MetricsRegistry()
    for index in (0, 1):
        merged.merge(json.loads((tmp_path / f"metrics-{index}.json").read_text()))
    assert merged.snapshot()["histograms"]["h"] == both.snapshot()["histograms"]["h"]


def test_fleet_metrics_ignores_torn_or_missing_files(tmp_path):
    obs.counter("x.only").inc()
    (tmp_path / "metrics-1.json").write_text("{ torn wri")
    snap = FleetMetrics(tmp_path, 0).merged_snapshot()
    assert snap["counters"]["x.only"] == 1


def test_fleet_metrics_merged_state_keeps_buckets_and_exemplars(tmp_path):
    obs.histogram("x.lat").observe(3.0, trace_id="a" * 32)
    sibling = MetricsRegistry()
    sibling.histogram("x.lat").observe(3.0, trace_id="b" * 32)
    (tmp_path / "metrics-1.json").write_text(json.dumps(sibling.dump_state()))
    state = FleetMetrics(tmp_path, 0).merged_state()
    ((_, hstate),) = list(state["histograms"].items())
    assert sum(hstate["buckets"].values()) == 2  # dump form, not quantiles
    assert len(hstate["exemplars"]) == 1  # same bucket: one survives


# ----------------------------------------------------------------------
# FleetTraces: any worker answers for a sibling's trace
# ----------------------------------------------------------------------
def test_fleet_traces_merges_sibling_dumps(tmp_path):
    # Worker 1's recorder state arrives the production way: a snapshot
    # through a rundir JSON file.  This process plays worker 0.
    recorder = FlightRecorder()
    previous = obs.set_recorder(recorder)
    try:
        local_ctx = TraceContext.mint()
        recorder.begin(local_ctx, endpoint="locate")
        recorder.record({"name": "serve.request", "trace_id": local_ctx.trace_id})
        recorder.finish(local_ctx.trace_id)

        sibling = FlightRecorder()
        remote_ctx = TraceContext.mint()
        sibling.begin(remote_ctx, endpoint="locate")
        sibling.record({"name": "serve.request", "trace_id": remote_ctx.trace_id})
        sibling.finish(remote_ctx.trace_id, status="http_500")
        (tmp_path / "traces-1.json").write_text(json.dumps(sibling.snapshot()))

        merged = FleetTraces(tmp_path, 0).merged()
        ids = {t["trace_id"] for t in merged["traces"]}
        assert ids == {local_ctx.trace_id, remote_ctx.trace_id}
        assert merged["workers"] == 2
        assert merged["stats"]["finished"] == 2
    finally:
        obs.set_recorder(previous)


def test_fleet_traces_flush_is_noop_without_recorder(tmp_path):
    previous = obs.set_recorder(None)
    try:
        traces = FleetTraces(tmp_path, 0)
        traces.flush()
        assert not traces.path.exists()
        assert traces.merged()["traces"] == []
    finally:
        obs.set_recorder(previous)


# ----------------------------------------------------------------------
# ControlChannel: exactly-once fan-out, originator excluded
# ----------------------------------------------------------------------
def test_control_channel_fanout_once(tmp_path):
    a = ControlChannel(tmp_path, 0)
    b = ControlChannel(tmp_path, 1)
    seq = a.originate({"cmd": "drain", "deadline_s": 2.0})
    assert seq == 1
    assert a.poll() is None  # the originator already acted locally
    event = b.poll()
    assert event["cmd"] == "drain"
    assert event["origin"] == 0
    assert event["deadline_s"] == 2.0
    assert b.poll() is None  # exactly once

    assert b.originate({"cmd": "reload", "database": None}) == 2
    event = a.poll()
    assert event["cmd"] == "reload"
    assert "database" not in event  # None payloads are dropped
    assert a.poll() is None


def test_control_channel_restart_ignores_history(tmp_path):
    a = ControlChannel(tmp_path, 0)
    a.originate({"cmd": "drain"})
    # A restarted worker adopts the current seq at construction — it
    # must not replay commands issued before it existed.
    late = ControlChannel(tmp_path, 1)
    assert late.poll() is None
    a.originate({"cmd": "reload"})
    assert late.poll()["cmd"] == "reload"


def test_worker_spec_pickles(house):
    spec = WorkerSpec(
        sites={"m": SiteDefinition(
            "m",
            "/tmp/m.tdbx",
            ap_positions=house.ap_positions_by_bssid(),
            bounds=(0.0, 0.0, 40.0, 30.0),
        )},
        chaos_kwargs={"seed": 7, "latency_ms": 5.0},
    )
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_supervisor_rejects_zero_workers(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        Supervisor(WorkerSpec(sites="x"), 0, rundir=str(tmp_path))


# ----------------------------------------------------------------------
# hot reload on the pack path never touches zlib
# ----------------------------------------------------------------------
def observation_doc(observation):
    return {
        "samples": [
            [None if v != v else v for v in row]
            for row in observation.samples.tolist()
        ],
        "bssids": list(observation.bssids),
    }


def request(url, method="GET", doc=None):
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()


@pytest.mark.service
def test_reload_on_pack_path_never_decompresses(
    tmp_path, training_db, house, observations, monkeypatch
):
    """The PR 6 hot-reload regression, fixed by pack swap.

    Reloading a ``.tdb`` re-runs ``zlib.decompress`` over the whole
    body while requests wait; a ``.tdbx`` reload is an mmap + atomic
    swap.  Serve traffic *during* the reload and count decompress
    calls: the serving path must never reach zlib.
    """
    pack = tmp_path / "m.tdbx"
    training_db.freeze(pack, ap_positions=house.ap_positions_by_bssid())
    cfg = house.config
    service = LocalizationService(
        str(pack),
        ap_positions=house.ap_positions_by_bssid(),
        bounds=(0.0, 0.0, cfg.width_ft, cfg.height_ft),
    )
    assert service.describe()["frozen"] is True

    calls = []
    real = zlib.decompress
    monkeypatch.setattr(
        zlib, "decompress", lambda *a, **kw: (calls.append(1), real(*a, **kw))[1]
    )
    doc = observation_doc(observations[0])
    codes = []
    stop = threading.Event()

    with LocalizationHTTPServer(service) as server:
        def hammer():
            while not stop.is_set():
                status, _ = request(server.url + "/v1/locate", "POST", doc)
                codes.append(status)

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            for _ in range(3):
                status, body = request(server.url + "/admin/reload", "POST", {})
                assert status == 200, body
        finally:
            stop.set()
            thread.join(timeout=30)

    assert codes and set(codes) == {200}
    assert not calls, "reload on the frozen-pack path must not hit zlib"
    assert service.describe()["generation"] >= 3


# ----------------------------------------------------------------------
# the real fleet: two workers through the CLI
# ----------------------------------------------------------------------
_LAUNCHER = [
    sys.executable,
    "-c",
    "import sys; from repro.cli import repro_main; sys.exit(repro_main(sys.argv[1:]))",
]


class _Fleet:
    def __init__(self, proc, url, rundir, banner):
        self.proc = proc
        self.url = url
        self.rundir = rundir
        self.banner = banner
        self.output = None  # filled by the drain test / teardown

    def finish(self, timeout=90):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        tail, _ = self.proc.communicate(timeout=timeout)
        self.output = "\n".join(self.banner) + "\n" + tail
        return self.output


def _spawn_serve(args):
    """Launch ``repro serve ARGS``; read its banner up to the ready line."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        _LAUNCHER + ["serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner, url = [], None
    try:
        for line in proc.stdout:
            banner.append(line.rstrip("\n"))
            if line.startswith("serving "):
                url = line.split()[1]
            if "Ctrl-C to stop" in line:
                break
        assert url, f"no serving banner in: {banner}"
    except BaseException:
        proc.kill()
        proc.communicate(timeout=10)
        raise
    return proc, url, banner


@pytest.fixture(scope="module")
def fleet(tmp_path_factory, site_fleet):
    root = tmp_path_factory.mktemp("fleet")
    # The shared site fleet's frozen pack: the same mmap-shareable
    # .tdbx every suite uses, rather than freezing another copy here.
    pack = site_fleet.packs["site-b"]
    rundir = root / "run"
    proc, url, banner = _spawn_serve(
        [str(pack), "--port", "0", "--workers", "2", "--rundir", str(rundir)]
    )
    handle = _Fleet(proc, url, rundir, banner)
    yield handle
    if handle.proc.poll() is None:
        handle.finish()


@pytest.mark.service
class TestFleet:
    # NOTE: these tests share one fleet and run top to bottom; the last
    # one consumes it (SIGTERM + exit-code assertions).

    def test_banner_and_ready_files(self, fleet):
        banner = "\n".join(fleet.banner)
        assert "workers: 2" in banner
        assert "model: fallback" in banner
        infos = [
            json.loads((fleet.rundir / f"worker-{i}.json").read_text())
            for i in (0, 1)
        ]
        port = int(fleet.url.rsplit(":", 1)[1])
        assert {info["port"] for info in infos} == {port}
        assert infos[0]["pid"] != infos[1]["pid"]
        assert all(info["model"]["frozen"] for info in infos)
        status, body = request(fleet.url + "/")
        assert status == 200
        assert json.loads(body)["model"]["frozen"] is True

    def test_metrics_totals_equal_sum_of_worker_dumps(self, fleet, observations):
        doc = observation_doc(observations[0])
        for _ in range(8):
            status, body = request(fleet.url + "/v1/locate", "POST", doc)
            assert status == 200, body
        time.sleep(2.2)  # > flush_interval_s: both workers have flushed

        series = "serve.http_requests{code=200,endpoint=locate}"
        per_worker = []
        for path in sorted(fleet.rundir.glob("metrics-*.json")):
            state = json.loads(path.read_text())
            per_worker.append(int(state["counters"].get(series, 0)))
        assert sum(per_worker) == 8

        status, body = request(fleet.url + "/metrics.json")
        assert status == 200
        counters = json.loads(body)["counters"]
        fleet_total = sum(
            c["value"] for c in counters if c["series"] == series
        )
        assert fleet_total == sum(per_worker)

    def test_debug_traces_stitches_across_workers(self, fleet, observations, capsys):
        """The acceptance check: a trace is retrievable from any worker.

        The kernel load-balances each connection, so the worker that
        served the traced request and the worker answering the
        ``/debug/traces`` read are often different processes — the
        rundir merge is what joins them.
        """
        from repro.cli import repro_main

        doc = observation_doc(observations[0])
        trace_id = "ab" * 16
        req = urllib.request.Request(
            fleet.url + "/v1/locate",
            data=json.dumps(doc).encode("utf-8"),
            method="POST",
            headers={
                "traceparent": f"00-{trace_id}-{'cd' * 8}-01",
                "X-Request-Id": "fleet-trace-1",
            },
        )
        with urllib.request.urlopen(req, timeout=60) as r:
            assert r.status == 200
            assert r.headers["X-Trace-Id"] == trace_id
            assert r.headers["X-Request-Id"] == "fleet-trace-1"
        time.sleep(2.2)  # > flush_interval_s: the serving worker flushed
        # Ask repeatedly so both workers answer at least once each way.
        for _ in range(6):
            status, body = request(
                fleet.url + f"/debug/traces?trace_id={trace_id}"
            )
            assert status == 200
            traces = json.loads(body)["traces"]
            assert len(traces) == 1, body
            names = [s["name"] for s in traces[0]["spans"]]
            assert "serve.request" in names and "serve.dispatch" in names
            assert traces[0]["request_id"] == "fleet-trace-1"

        # The CLI renders the same trace as a span tree.
        capsys.readouterr()
        assert repro_main(["obs", "traces", fleet.url, "--trace-id", trace_id]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "serve.dispatch" in out, out

    def test_supervisor_restarts_killed_worker(self, fleet, observations):
        info = json.loads((fleet.rundir / "worker-0.json").read_text())
        os.kill(info["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            fresh = json.loads((fleet.rundir / "worker-0.json").read_text())
            if fresh["pid"] != info["pid"]:
                break
            time.sleep(0.1)
        else:
            pytest.fail("worker 0 was not restarted within 30s")
        assert fresh["port"] == info["port"]  # SO_REUSEPORT rebind, same port
        doc = observation_doc(observations[0])
        for _ in range(4):
            status, body = request(fleet.url + "/v1/locate", "POST", doc)
            assert status == 200, body

    def test_sigterm_drains_cleanly(self, fleet):
        output = fleet.finish()
        assert fleet.proc.returncode == 0, output
        assert "drain complete: unfinished=0" in output
        assert "restarting" in output  # the SIGKILL from the prior test
        for i in (0, 1):
            report = json.loads((fleet.rundir / f"drain-{i}.json").read_text())
            assert report["unfinished"] == 0


@pytest.mark.service
class TestSingleProcessServe:
    def test_burst_of_clients_gets_200_or_429_and_healthz_stays_ok(self, site_fleet):
        """200 concurrent clients against the real ``repro serve DB``.

        Admission-control 429s are legitimate under a burst; any other
        answer is a failure.  ``/healthz`` stays ok under load (drift
        is reported, never failing) and ``/metrics`` carries the
        request and batch series.
        """
        from repro.core.trainingdb import TrainingDatabase

        pack = site_fleet.packs["site-a"]
        db = TrainingDatabase.load(pack)
        bodies = [
            json.dumps({"samples": [row], "bssids": list(db.bssids)}).encode("utf-8")
            for row in db.mean_matrix().tolist()
        ]
        proc, url, _ = _spawn_serve([pack, "--port", "0"])
        try:
            statuses, lock = [], threading.Lock()

            def client(i):
                req = urllib.request.Request(
                    url + "/v1/locate", data=bodies[i % len(bodies)], method="POST",
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(req, timeout=60) as r:
                        status = r.status
                except urllib.error.HTTPError as e:
                    status = e.code
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(200)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            status, health = request(url + "/healthz")
            _, metrics = request(url + "/metrics")
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        assert len(statuses) == 200
        assert set(statuses) <= {200, 429}, sorted(set(statuses))
        report = json.loads(health)
        assert status == 200 and report["status"] == "ok", report
        assert "rssi_drift" in report["checks"]
        assert b"repro_serve_http_requests_total" in metrics
        assert b"repro_serve_batch_size" in metrics
