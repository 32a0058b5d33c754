"""A stdlib-only live metrics endpoint: ``/metrics``, ``/metrics.json``, ``/healthz``.

:class:`ObsServer` wraps :class:`http.server.ThreadingHTTPServer` in a
daemon thread so any long-running process (a soak bench, the
``repro obs serve`` CLI) can expose its registry to a Prometheus
scraper without adding a dependency:

* ``GET /metrics`` — Prometheus text exposition of the current snapshot
  (``text/plain; version=0.0.4``).
* ``GET /metrics.json`` — the structured-JSON exporter payload.
* ``GET /healthz`` — runs every registered health check; HTTP 200 with
  ``{"status": "ok"}`` while all pass, HTTP 503 with
  ``{"status": "degraded"}`` once any fails (per-check detail in the
  body either way).  The RSSI drift monitors of
  :mod:`repro.obs.quality` plug in here via ``add_health_check``.

The server never mutates the registry; scrapes are read-only snapshots,
safe concurrently with the workload thanks to the registry's locking.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs.export import render_json, render_prometheus

__all__ = ["ObsServer", "HealthCheck", "run_health_checks"]

#: A health check: () -> (ok, detail).  ``detail`` may be any
#: JSON-serializable value (string, dict of per-AP findings, ...).
HealthCheck = Callable[[], Tuple[bool, object]]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def run_health_checks(
    checks: List[Tuple[str, HealthCheck]]
) -> Tuple[bool, Dict[str, object]]:
    """Run named checks: (all_ok, JSON-ready ``/healthz`` report).

    A check that raises is itself a failed check (the endpoint must
    never 500 out of a monitor bug), recorded with the exception.
    Shared by :class:`ObsServer` and the localization service's
    ``/healthz`` (:mod:`repro.serve.http`), so both report the same
    shape: ``{"status": ..., "checks": {name: {ok, detail}}}``.
    """
    report: Dict[str, object] = {}
    all_ok = True
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - monitor bugs degrade, not crash
            ok, detail = False, f"check error: {type(exc).__name__}: {exc}"
        report[name] = {"ok": bool(ok), "detail": detail}
        all_ok = all_ok and bool(ok)
    return all_ok, {"status": "ok" if all_ok else "degraded", "checks": report}


class _Handler(BaseHTTPRequestHandler):
    server: "ObsServer._HTTPServer"

    def do_GET(self):  # noqa: N802 - http.server API
        owner: "ObsServer" = self.server.owner
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(owner._snapshot(), prefix=owner.prefix)
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body.encode("utf-8"))
        elif path == "/metrics.json":
            body = render_json(owner._snapshot())
            self._reply(200, "application/json", body.encode("utf-8"))
        elif path == "/healthz":
            ok, report = owner.health()
            body = json.dumps(report, indent=2, sort_keys=True) + "\n"
            self._reply(200 if ok else 503, "application/json", body.encode("utf-8"))
        else:
            self._reply(
                404,
                "text/plain",
                b"not found; try /metrics, /metrics.json or /healthz\n",
            )

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by design
        pass


class ObsServer:
    """Serve the metrics registry over HTTP from a daemon thread.

    Parameters
    ----------
    snapshot_fn:
        Zero-arg callable returning a snapshot dict.  Defaults to the
        global registry's :func:`repro.obs.snapshot`; pass a closure to
        serve a specific registry or a file-backed snapshot.
    host, port:
        Bind address.  ``port=0`` (default) lets the OS pick a free
        port; read it back from :attr:`port` / :attr:`url` after
        :meth:`start`.
    prefix:
        Prometheus metric-name prefix (default ``repro_``).

    Use as a context manager or call :meth:`start`/:meth:`stop`::

        with ObsServer() as srv:
            print(srv.url)        # http://127.0.0.1:<port>
            ...workload...
    """

    class _HTTPServer(ThreadingHTTPServer):
        daemon_threads = True
        owner: "ObsServer"

        def service_actions(self):
            # First pass through the serve_forever poll loop: the server
            # is demonstrably live.  start() blocks on this event, so a
            # stop() issued immediately after start() can never race a
            # not-yet-entered serve loop, and scrapes after start() hit
            # a serving socket — event-based, no sleep/poll.
            self.owner._ready.set()

    def __init__(
        self,
        snapshot_fn: Optional[Callable[[], Dict[str, Dict[str, object]]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro_",
    ):
        self._snapshot = snapshot_fn if snapshot_fn is not None else _metrics.snapshot
        self.host = host
        self.prefix = prefix
        self._requested_port = int(port)
        self._httpd: Optional[ObsServer._HTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._checks: List[Tuple[str, HealthCheck]] = []
        self._ready = threading.Event()

    # -- health ----------------------------------------------------------
    def add_health_check(self, name: str, check: HealthCheck) -> "ObsServer":
        """Register a named check consulted by ``/healthz``; chainable."""
        self._checks.append((name, check))
        return self

    def health(self) -> Tuple[bool, Dict[str, object]]:
        """Run every check: (all_ok, JSON-ready report)."""
        return run_health_checks(self._checks)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ObsServer":
        if self._httpd is not None:
            raise RuntimeError("ObsServer already started")
        httpd = ObsServer._HTTPServer((self.host, self._requested_port), _Handler)
        httpd.owner = self
        self._httpd = httpd
        self._ready.clear()
        self._thread = threading.Thread(
            # A short poll interval keeps the readiness handshake fast;
            # service_actions (above) runs once per poll.
            target=lambda: httpd.serve_forever(poll_interval=0.05),
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=5.0)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("ObsServer is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
