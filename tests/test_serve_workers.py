"""``repro serve`` as launched: fleet protocols, supervision, the CLI's flags.

The unit half exercises the rundir protocols in-process (no sockets,
tier1): :class:`FleetMetrics` merges must be exactly the sum of the
per-worker dumps even after a JSON round-trip, :class:`ControlChannel`
must deliver each admin command to every sibling exactly once while the
originator skips its own broadcast, :class:`WorkerSpec` must survive
pickling (it crosses the fork/spawn boundary), and bad serve flags must
exit 2 before anything is built.

The ``service`` half launches the real CLI in a subprocess.  A
two-worker fleet checks the acceptance contract end to end: the banner,
per-worker readiness files, ``/metrics.json`` totals equal to the sum
of the per-worker dumps, crash-restart by the supervisor, and a clean
``drain complete: unfinished=0`` exit on SIGTERM.  The single-process
``repro serve DB`` gets the same treatment under 200 concurrent
clients.  Both modes build from one ``WorkerSpec``, so the launch tests
that set ``--track-filter``/``--session-ttl-s``, ``--sites`` with
``--site-capacity``/``--default-site``, and ``--chaos*`` to non-default
values check that each flag reaches the server in either mode.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import socket
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
from repro.cli import repro_main
from repro.core.frozenpack import load_database
from repro.obs.trace import FlightRecorder, TraceContext
from repro.serve import LocalizationHTTPServer, LocalizationService, SiteDefinition
from repro.serve.client import ServiceClient, fold_reports
from repro.serve.registry import load_fleet
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


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-wait-ms", "nan"),
        ("--max-wait-ms", "inf"),
        ("--max-wait-ms", "1e300"),
        ("--drain-deadline-s", "nan"),
        ("--drain-deadline-s", "inf"),
        ("--drain-deadline-s", "-1"),
        ("--default-deadline-ms", "nan"),
        ("--default-deadline-ms", "-5"),
        ("--default-deadline-ms", "0"),
        ("--default-deadline-ms", "1e300"),
        ("--p99-limit-ms", "nan"),
        ("--p99-limit-ms", "0"),
        ("--p99-limit-ms", "-1"),
        ("--session-ttl-s", "nan"),
        ("--session-ttl-s", "inf"),
        ("--for-seconds", "nan"),
        ("--for-seconds", "inf"),
        ("--for-seconds", "0"),
        ("--for-seconds", "-1"),
        ("--for-seconds", "1e300"),
    ],
)
def test_serve_refuses_non_finite_or_out_of_range_settings(site_fleet, capsys, flag, value):
    # A NaN wait hangs every request, a wait past threading.TIMEOUT_MAX
    # overflows, a NaN TTL expires sessions at once, a zero latency
    # brake sheds everything: refused before any server exists.
    # --for-seconds comes first so that a build which accepted the
    # value would serve briefly and return 0 instead.
    with pytest.raises(SystemExit) as exc:
        repro_main([
            "serve", site_fleet.packs["site-a"], "--port", "0",
            "--for-seconds", "0.2", flag, value,
        ])
    assert exc.value.code == 2
    assert f"error: {flag} must be finite" in capsys.readouterr().err


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
        assert "max_wait_ms=0.0" in banner
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
        statuses = []
        threads = [
            threading.Thread(
                target=lambda: statuses.append(
                    request(fleet.url + "/v1/locate", "POST", doc)[0]
                )
            )
            for _ in range(32)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert statuses == [200] * 32, statuses
        time.sleep(2.2)  # > flush_interval_s: both workers have flushed

        series = "serve.http_requests{code=200,endpoint=locate}"
        per_worker = []
        for path in sorted(fleet.rundir.glob("metrics-*.json")):
            state = json.loads(path.read_text())
            per_worker.append(int(state["counters"].get(series, 0)))
        assert sum(per_worker) == 32

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


def _drain_cleanly(proc):
    """SIGTERM a launched server: it must drain clean and exit 0."""
    proc.send_signal(signal.SIGTERM)
    tail, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, tail
    assert "drain complete: unfinished=0" in tail, tail
    return tail


def _site_doc(pack):
    """A locate body built from a site's own pack (AP sets differ per site)."""
    db = load_database(pack)
    row = db.mean_matrix()[0].tolist()
    return {"samples": [[None if v != v else v for v in row]], "bssids": list(db.bssids)}


@pytest.mark.service
class TestLaunch:
    """The CLI's flags reach the server: one launch per flag family."""

    def test_tracking_filter_and_ttl_reach_the_session_store(
        self, site_fleet, observations
    ):
        proc, url, _ = _spawn_serve([
            site_fleet.packs["site-a"], "--port", "0",
            "--track-filter", "bayes", "--session-ttl-s", "1",
        ])
        try:
            for step in range(1, 5):
                status, body = request(
                    url + "/v1/track/walker", "POST", observation_doc(observations[step])
                )
                assert status == 200, body
                assert json.loads(body)["session"]["seq"] == step
            status, body = request(url + "/v1/track/walker", "DELETE")
            assert status == 200 and json.loads(body)["closed"] is True, body
            status, body = request(
                url + "/v1/track/abandoned", "POST", observation_doc(observations[0])
            )
            assert status == 200, body

            detail = json.loads(request(url + "/healthz")[1])["checks"]["sessions"]["detail"]
            assert detail["filter"] == "bayes"
            assert detail["ttl_s"] == 1.0
            # Nobody closes the abandoned session: the 1 s TTL ages it out.
            deadline = time.monotonic() + 10.0
            while detail["active"] != 0:
                assert time.monotonic() < deadline, f"session store did not drain: {detail}"
                time.sleep(0.25)
                detail = json.loads(request(url + "/healthz")[1])["checks"]["sessions"]["detail"]
            _drain_cleanly(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    def test_sites_fleet_capacity_default_and_per_site_reload(self, tmp_path, capsys):
        fleet_dir = str(tmp_path / "fleet")
        assert repro_main(["sites", "gen-fleet", fleet_dir, "--count", "3", "--freeze"]) == 0
        capsys.readouterr()
        assert repro_main(["sites", "status", fleet_dir]) == 0
        status_out = capsys.readouterr().out
        sites, manifest_default = load_fleet(fleet_dir)
        site_ids = sorted(sites)
        assert len(site_ids) == 3 and manifest_default == site_ids[0]
        assert all(sid in status_out for sid in site_ids), status_out
        chosen = site_ids[-1]  # not the manifest's default

        proc, url, banner = _spawn_serve([
            "--sites", fleet_dir, "--port", "0",
            "--site-capacity", "1", "--default-site", chosen,
        ])
        try:
            assert any(line.startswith("sites: 3 ") for line in banner), banner
            for sid in site_ids:
                status, body = request(
                    f"{url}/v1/sites/{sid}/locate", "POST", _site_doc(sites[sid].database)
                )
                assert status == 200 and json.loads(body)["valid"] is True, (sid, body)

            card = json.loads(request(url + "/v1/sites")[1])
            assert card["sites"] == site_ids and card["default"] == chosen
            assert len(card["resident"]) <= 1, card
            assert card["evictions"] >= 1, card

            target = site_ids[1]
            before = card["generations"][target]
            status, body = request(f"{url}/v1/sites/{target}/admin/reload", "POST")
            assert status == 200, body
            model = json.loads(body)["model"]
            assert model["site"] == target and model["generation"] > before, model
            status, body = request(
                f"{url}/v1/sites/{target}/locate", "POST", _site_doc(sites[target].database)
            )
            assert status == 200 and json.loads(body)["valid"] is True, body

            metrics = request(url + "/metrics")[1].decode("utf-8")
            for sid in site_ids:
                assert f'site="{sid}"' in metrics, sid
            assert 'cache="hit"' in metrics and 'cache="miss"' in metrics
            _drain_cleanly(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    def test_chaos_keeps_availability_and_sigterm_drains_mid_load(self, site_fleet):
        from repro.core.trainingdb import TrainingDatabase

        db = TrainingDatabase.load(site_fleet.packs["site-a"])
        docs = [
            {"samples": [row], "bssids": list(db.bssids)}
            for row in db.mean_matrix().tolist()
        ]
        proc, url, _ = _spawn_serve([
            site_fleet.packs["site-a"], "--port", "0",
            "--chaos", "--chaos-tier-error-rate", "0.3",
            "--chaos-latency-ms", "10", "--chaos-latency-rate", "0.5",
            "--chaos-reset-rate", "0.02", "--chaos-seed", "7",
        ])
        n_clients, n_requests = 24, 25
        buckets = [[] for _ in range(n_clients)]
        sigterm = threading.Event()

        def client(cid, n):
            # Retries absorb the injected resets.  Once SIGTERM is out,
            # a vanished listener is the expected end of the loop.
            with ServiceClient.from_url(url, timeout_s=60, max_retries=3, seed=cid) as svc:
                for i in range(n):
                    report = svc.locate(docs[(cid + i) % len(docs)])
                    if report.category == "transport_error" and sigterm.is_set():
                        return
                    buckets[cid].append(report)

        def run(n):
            for bucket in buckets:
                bucket.clear()
            threads = [threading.Thread(target=client, args=(c, n)) for c in range(n_clients)]
            for t in threads:
                t.start()
            return threads

        try:
            threads = run(n_requests)
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "clients wedged"
            folded = fold_reports([r for b in buckets for r in b])
            assert folded["total"] == n_clients * n_requests, folded
            assert folded["availability"] >= 0.99, folded
            assert folded["answered_ok"] > 0, folded
            counters = json.loads(request(url + "/metrics.json")[1])["counters"]
            injected = {
                c["series"].split("kind=")[1].split(",")[0].rstrip("}")
                for c in counters
                if c["series"].startswith("serve.chaos.injected{") and c["value"] > 0
            }
            assert {"tier_error", "latency", "reset"} <= injected, injected

            # SIGTERM lands mid-load: every accepted request is still
            # answered and every rejection is clean.
            threads = run(10_000)
            time.sleep(1.0)
            sigterm.set()  # before the signal: no flag/delivery race
            _drain_cleanly(proc)
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "clients wedged"
            reports = [r for b in buckets for r in b]
            assert any(r.ok for r in reports), "no load before the drain"
            dirty = [r for r in reports if not r.clean]
            assert not dirty, dirty[:5]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    def test_taken_port_is_an_error_line_not_a_traceback(self, site_fleet):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            done = subprocess.run(
                _LAUNCHER + ["serve", site_fleet.packs["site-a"], "--port", str(port)],
                capture_output=True, text=True, timeout=120,
            )
        assert done.returncode == 2, done
        assert done.stderr.startswith("error: "), done.stderr
        assert "Traceback" not in done.stdout + done.stderr
