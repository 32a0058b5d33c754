"""The localization service's HTTP surface (stdlib only).

:class:`LocalizationHTTPServer` fronts a
:class:`~repro.serve.registry.ModelRegistry` — one building is a
one-site registry — with a threaded HTTP/1.1 server; each site's
runtime owns its :class:`~repro.serve.batcher.MicroBatcher` and
tracking sessions:

* ``POST /v1/locate`` — one observation document; the request parks in
  the micro-batching queue and is answered from a shared
  ``locate_many`` dispatch.  Honors a deadline from the
  ``X-Deadline-Ms`` header and/or ``deadline_ms`` in the body (the
  tighter one wins); answers 429 + ``Retry-After`` when admission
  control rejects, 504 when the deadline expires first — including
  *at enqueue time*, so a dead-on-arrival request never occupies a
  bounded-queue slot.
* ``POST /v1/locate/batch`` — ``{"observations": [...]}``; already a
  batch, so it goes straight through the vectorized engine.  Sheds
  first under pressure (bulk priority class).
* ``POST /v1/track/{session}`` — one scan into a *stateful* tracking
  session (see :mod:`repro.serve.sessions`): first POST creates the
  session's filter, every POST rides the ``track`` micro-batcher so
  concurrent sessions share one vectorized measurement pass.  Same
  deadline and admission semantics as ``/v1/locate``.  ``GET`` reads
  the current estimate, ``DELETE`` closes the session (exactly once).
* ``GET /healthz`` — model / dispatcher / queue-headroom / breaker /
  session / lifecycle / registry / RSSI-drift checks as
  ``{"status", "checks": {name: {ok, detail}}}`` (200 ok / 503
  degraded; a draining instance reports 503 so load balancers eject
  it).  Every scan a site decodes feeds that site's
  :class:`~repro.obs.quality.APDriftMonitor`; the ``rssi_drift`` check
  reports each resident site's drifted APs but never fails.
* ``GET /metrics`` and ``GET /metrics.json`` — the
  :mod:`repro.obs.export` exporters over the live registry.  A scraper
  accepting ``application/openmetrics-text`` gets real cumulative-le
  histograms whose latency buckets carry trace-id exemplars.
* ``GET /debug/traces`` (+ ``?trace_id=``) — the flight recorder's
  retained traces (fleet-merged when running under ``--workers N``).

Every request is traced end to end: the edge adopts the client's W3C
``traceparent`` (or mints a :class:`~repro.obs.TraceContext`), the
edge span wraps the handler, the micro-batcher links the coalesced
request spans into its dispatch span, and engine chunk spans nest
beneath.  ``X-Request-Id`` is echoed (or assigned) on **every**
response — errors and early rejects included — and appears in JSON
error bodies; admission/deadline/drain decisions land as edge-span
attributes so a rejected request still leaves a one-span trace.
* ``POST /admin/reload`` — atomic hot-reload of the model, optionally
  from a new ``{"database": path}``.
* Site routes: ``/v1/sites/{site}/locate[|/batch]``, site-scoped
  ``/v1/sites/{site}/track/{session}`` and ``/v1/sites/{site}/admin/
  reload``, plus ``GET /v1/sites`` (the registry card).  The unprefixed
  paths above alias the registry's default site; in a fleet of more
  than one site request metrics and spans gain a ``site`` label.  Each
  request holds a lease pinning its site's runtime so eviction never
  races in-flight work (see docs/sites.md).
* ``POST /admin/drain`` — graceful drain: stop accepting data-plane
  work, flush the batcher, finish in-flight requests under the drain
  deadline (see :meth:`LocalizationHTTPServer.drain`).
* ``GET /`` — model card + endpoint index.

Overload behaviour is adaptive, not constant: an
:class:`~repro.serve.resilience.AdmissionController` sheds by priority
class (control-plane endpoints are never shed) on queue depth and
rolling p99 latency, and every 429/503 carries a ``Retry-After``
computed from the batcher's live drain rate
(:func:`~repro.serve.resilience.compute_retry_after_s`).  A
:class:`~repro.serve.resilience.ChaosPolicy` can inject dispatch
latency, connection resets and slow-loris response writes for
resilience tests (``repro serve --chaos``).

Every request lands in ``serve.http_requests{endpoint=...,code=...}``
and ``serve.http_latency_ms{endpoint=...}``; the batcher adds queue
depth, batch-size and wait histograms.  Answer bytes for a locate are
:func:`repro.serve.wire.canonical_json` of the estimate document —
bit-for-bit what a direct ``locate_many`` caller would encode.
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.algorithms.base import Observation
from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_openmetrics,
    render_prometheus,
)
from repro.obs.trace import SNAPSHOT_SCHEMA as TRACE_SCHEMA
from repro.serve.batcher import (
    DEFAULT_MAX_WAIT_MS,
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
)
from repro.serve.clock import SystemClock, waitable
from repro.serve.registry import ModelRegistry, SiteRuntime, UnknownSiteError
from repro.serve.resilience import (
    AdmissionController,
    ChaosPolicy,
    Priority,
    compute_retry_after_s,
)
from repro.serve.service import LocalizationService
from repro.serve.sessions import (
    BadTimestampError,
    SessionClosedError,
    UnknownSessionError,
)
from repro.serve.wire import (
    WireError,
    canonical_json,
    estimate_to_json,
    observation_from_json,
    track_estimate_to_json,
)

__all__ = ["LocalizationHTTPServer"]

#: Header carrying the client's remaining deadline budget in
#: milliseconds; flows client → HTTP → MicroBatcher → dispatch, and
#: :class:`repro.serve.client.ServiceClient` re-stamps the *remaining*
#: budget on every retry hop.
DEADLINE_HEADER = "X-Deadline-Ms"

#: How long past its deadline budget a handler still waits on the answer.
#: The dispatcher enforces the deadline; the slack only bounds a dispatch
#: that is itself slow.
DEADLINE_SLACK_S = 30.0


def waitable_budget(budget_s: float) -> bool:
    """Whether a deadline budget (seconds) is one a handler can wait on:
    > 0, and with :data:`DEADLINE_SLACK_S` added still
    :func:`~repro.serve.clock.waitable`.  NaN and infinity fail too."""
    return budget_s > 0 and waitable(budget_s + DEADLINE_SLACK_S)


#: W3C trace-context header; parsed leniently (a malformed value mints
#: a fresh context instead of erroring).
TRACEPARENT_HEADER = "traceparent"

#: Client-correlatable request id: echoed (or assigned) on *every*
#: response — including 4xx/5xx and early-reject paths — and injected
#: into JSON error bodies, so a client's ``ClientReport`` joins against
#: the server-side trace.  When the server assigns one, it *is* the
#: trace id.
REQUEST_ID_HEADER = "X-Request-Id"

#: Trace id of the request, echoed on every response for joining.
TRACE_ID_HEADER = "X-Trace-Id"

#: Request ids are client-chosen; keep them boring (else reassigned).
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Control-plane endpoints that still record a trace (admin actions are
#: exactly what an operator wants in the flight recorder).
_TRACED_CONTROL = frozenset({"reload", "drain"})

#: Endpoints that carry localization traffic (shed / drained / chaos'd);
#: everything else is control plane and always answered.  Track *reads*
#: (GET) and closes (DELETE) stay control plane so clients can fetch a
#: last estimate and clean up even while an instance drains.
DATA_PLANE = frozenset({"locate", "locate_batch", "track"})

#: Path prefix of the tracking-session endpoints.
TRACK_PREFIX = "/v1/track/"

#: Path prefix of the site-scoped endpoints.
SITES_PREFIX = "/v1/sites/"

#: Session ids are client-chosen path segments; keep them boring.
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Site ids live in paths and metric labels; same discipline.
_SITE_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Endpoints whose metric series / span attributes carry a ``site``
#: label in a fleet of more than one site.  Control-plane scrapes
#: (metrics, health, index) stay unlabelled, and a one-site fleet never
#: adds the label at all (:meth:`~repro.serve.registry.ModelRegistry.
#: site_label`) — its series names are the single-building ones.
_SITE_LABELLED = frozenset(
    {"locate", "locate_batch", "track", "track_status", "track_close", "reload"}
)

#: ``Content-Length = 1*DIGIT`` (RFC 9110); anything else loses framing.
_CONTENT_LENGTH_RE = re.compile(r"[0-9]+")

#: Hard cap on request bodies (a locate document is a few KB; anything
#: near this is a mistake or an attack).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Cap on observations per /v1/locate/batch request.
MAX_BATCH_REQUEST = 4096

#: A health check: () -> (ok, detail).  ``detail`` may be any
#: JSON-serializable value (string, dict of per-site findings, ...).
HealthCheck = Callable[[], Tuple[bool, object]]


def run_health_checks(
    checks: List[Tuple[str, HealthCheck]]
) -> Tuple[bool, Dict[str, object]]:
    """Run named checks: (all_ok, JSON-ready ``/healthz`` report).

    A check that raises is itself a failed check (the endpoint must
    never 500 out of a monitor bug), recorded with the exception.  The
    report's shape is ``{"status": ..., "checks": {name: {ok, detail}}}``.
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


class _ApiError(Exception):
    """An error with a wire representation (status + JSON body)."""

    def __init__(self, status: int, error: str, detail: str = "", **extra):
        super().__init__(detail or error)
        self.status = status
        self.doc = {"error": error, **({"detail": detail} if detail else {}), **extra}
        self.headers: Dict[str, str] = {}


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps client connections alive between requests — a load
    # generator (or a real deployment behind a proxy) reuses sockets
    # instead of paying a TCP handshake per observation.
    protocol_version = "HTTP/1.1"
    # Each response leaves in two writes (header buffer, then body); with
    # Nagle on, the body segment waits for the client's delayed ACK of
    # the headers — ~40 ms per request on loopback.  TCP_NODELAY turns a
    # latency disaster into sub-millisecond turnarounds.
    disable_nagle_algorithm = True
    server: "LocalizationHTTPServer._HTTPServer"

    # -- plumbing --------------------------------------------------------
    def _reply(self, status: int, body: bytes, content_type: str = "application/json",
               headers: Optional[Dict[str, str]] = None, trickle_s: float = 0.0) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            # Request identity rides on every reply this request produces —
            # success, error, 404 and early rejects alike.
            for key, value in getattr(self, "_trace_headers", {}).items():
                self.send_header(key, value)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            if trickle_s > 0.0 and body:
                # Chaos slow-loris: dribble the body out in small chunks so
                # a client without a read timeout would hang here.
                step = max(1, len(body) // 8)
                for i in range(0, len(body), step):
                    self.wfile.write(body[i:i + step])
                    self.wfile.flush()
                    time.sleep(trickle_s)
            else:
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up first; its problem, not the service's

    def _read_json(self) -> object:
        length = self._content_length
        if length <= 0:
            raise _ApiError(400, "empty_body", "POST body must be a JSON document")
        if length > MAX_BODY_BYTES:
            raise _ApiError(413, "body_too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise _ApiError(400, "bad_json", str(exc)) from None

    def _discard_body(self) -> None:
        """Consume an unread request body before an early reply.

        Paths that answer without ever reading the body — the draining
        503, an admission shed raised before parsing, a 404 with a
        payload — would otherwise leave the body bytes in the socket,
        where a keep-alive client's *next* request line would be parsed
        starting mid-payload (a framing desync that turns every later
        request on the connection into a 501).  Oversized bodies are
        not worth reading to save the connection: hang up instead.
        """
        length = self._content_length
        if self._body_read or length <= 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)
        self._body_read = True

    def log_message(self, fmt, *args):  # noqa: D102 - metrics, not stderr noise
        pass

    # -- routing ---------------------------------------------------------
    def do_GET(self):  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self):  # noqa: N802 - http.server API
        self._route("POST")

    def do_DELETE(self):  # noqa: N802 - http.server API
        self._route("DELETE")

    def _route(self, method: str) -> None:
        owner = self.server.owner
        registry = owner.registry
        self._body_read = False  # per-request: the handler instance spans a connection
        path = self.path.split("?", 1)[0]
        routes = {
            ("POST", "/v1/locate"): ("locate", owner._handle_locate),
            ("POST", "/v1/locate/batch"): ("locate_batch", owner._handle_locate_batch),
            ("POST", "/admin/reload"): ("reload", owner._handle_reload),
            ("POST", "/admin/drain"): ("drain", owner._handle_drain),
            ("GET", "/healthz"): ("healthz", owner._handle_healthz),
            ("GET", "/metrics"): ("metrics", owner._handle_metrics),
            ("GET", "/metrics.json"): ("metrics_json", owner._handle_metrics_json),
            ("GET", "/debug/traces"): ("debug_traces", owner._handle_debug_traces),
            ("GET", "/v1/sites"): ("sites", owner._handle_sites),
            ("GET", "/"): ("index", owner._handle_index),
        }
        entry = routes.get((method, path))
        if entry is None and path.startswith(TRACK_PREFIX) and len(path) > len(TRACK_PREFIX):
            session_id = path[len(TRACK_PREFIX):]
            track_routes = {
                "POST": ("track", owner._handle_track_step),
                "GET": ("track_status", owner._handle_track_get),
                "DELETE": ("track_close", owner._handle_track_close),
            }
            if method in track_routes:
                endpoint_name, track_handler = track_routes[method]
                entry = (
                    endpoint_name,
                    lambda h, _f=track_handler, _sid=session_id: _f(h, _sid),
                )
        # Site routes: /v1/sites/{site}/... — the paths above alias the
        # registry's default site.
        site = registry.default_site
        if entry is None and path.startswith(SITES_PREFIX) and len(path) > len(SITES_PREFIX):
            site_id, _, tail = path[len(SITES_PREFIX):].partition("/")
            entry = owner._site_entry(method, site_id, tail)
            # Label with the site only when it is a real fleet member:
            # client-invented ids must not mint series.
            site = site_id if _SITE_ID_RE.match(site_id) and site_id in registry else "unknown"
        endpoint = "unknown" if entry is None else entry[0]
        req_labels: Dict[str, str] = {"endpoint": endpoint}
        span_extra: Dict[str, str] = {}
        site_label = registry.site_label(site)
        if site_label is not None and endpoint in _SITE_LABELLED:
            req_labels["site"] = span_extra["site"] = site_label
        trickle_s = 0.0
        # Request identity: adopt the client's W3C traceparent (or mint
        # a fresh context) and echo/assign X-Request-Id.  The headers
        # land on every reply via _reply, including the 404 and the
        # early-reject paths below.
        client_ctx = obs.TraceContext.from_traceparent(
            self.headers.get(TRACEPARENT_HEADER)
        )
        ctx = client_ctx if client_ctx is not None else obs.TraceContext.mint()
        request_id = (self.headers.get(REQUEST_ID_HEADER) or "").strip()
        if not _REQUEST_ID_RE.match(request_id):
            request_id = ctx.trace_id
        self._trace_headers = {
            REQUEST_ID_HEADER: request_id,
            TRACE_ID_HEADER: ctx.trace_id,
        }
        # The one Content-Length parse every body read and discard uses.
        lengths = self.headers.get_all("Content-Length") or ["0"]
        if len(lengths) != 1 or not _CONTENT_LENGTH_RE.fullmatch(lengths[0].strip()):
            # The body's framing is lost: answer, then hang up rather
            # than parse its bytes as the next request line.
            obs.counter("serve.http_requests", code="400", **req_labels).inc()
            self._reply(400, canonical_json({
                "error": "bad_content_length",
                "detail": "Content-Length must be one run of decimal digits",
                "request_id": request_id,
            }), headers={"Connection": "close"})
            return
        self._content_length = int(lengths[0])
        if entry is None:
            known = {p for _, p in routes} | {
                TRACK_PREFIX + "{session}",
                SITES_PREFIX + "{site}/locate[|/batch]",
                SITES_PREFIX + "{site}/track/{session}",
                SITES_PREFIX + "{site}/admin/reload",
            }
            status, body, content_type, headers = (
                404,
                canonical_json(
                    {"error": "not_found", "paths": sorted(known),
                     "request_id": request_id}
                ),
                "application/json",
                {},
            )
        else:
            handler = entry[1]
            data_plane = endpoint in DATA_PLANE
            chaos = owner.chaos
            if data_plane and chaos is not None and chaos.reset_connection():
                # Injected connection reset: hang up without an answer.
                # The one fault class the availability floor does NOT
                # forgive when chaos isn't asking for it explicitly.
                obs.counter("serve.http_requests", code="reset", **req_labels).inc()
                self.close_connection = True
                return
            # Data-plane requests (and admin actions, and anything the
            # client explicitly asked to trace) leave a trace in the
            # flight recorder; metrics/health scrapes stay untraced so
            # the ok-ring holds requests, not monitoring noise.
            traced = (
                data_plane or client_ctx is not None or endpoint in _TRACED_CONTROL
            )
            recorder = obs.get_recorder() if traced else None
            if recorder is not None:
                recorder.begin(
                    ctx, endpoint=endpoint, method=method, request_id=request_id
                )
            if data_plane and not owner._admit_data_plane():
                status, body, content_type, headers = owner._draining_response(request_id)
                if traced:
                    # A drained-away request still leaves a one-span
                    # trace saying why it never ran.
                    with obs.bind(ctx):
                        with obs.span(
                            "serve.request", endpoint=endpoint, method=method,
                            decision="draining", http_status=status, **span_extra,
                        ):
                            pass
                if recorder is not None:
                    recorder.finish(
                        ctx.trace_id, status="draining", pin=True, reason="draining"
                    )
                obs.counter("serve.http_requests", code=str(status), **req_labels).inc()
                self._discard_body()
                self._reply(status, body, content_type, headers)
                return

            def invoke() -> _Route:
                try:
                    return handler(self)
                except _ApiError as exc:
                    exc.doc.setdefault("request_id", request_id)
                    # The admission/breaker/deadline decision lands on
                    # the edge span, so a rejected request's one-span
                    # trace says why (shed, deadline_expired, ...).
                    obs.annotate(
                        decision=str(exc.doc.get("error")), http_status=exc.status
                    )
                    return (
                        exc.status, canonical_json(exc.doc), "application/json",
                        exc.headers,
                    )
                except Exception as exc:  # noqa: BLE001 - the server must keep serving
                    obs.counter("serve.http_errors", endpoint=endpoint,
                                kind=type(exc).__name__).inc()
                    obs.annotate(decision="internal_error", http_status=500)
                    return (
                        500,
                        canonical_json({
                            "error": "internal",
                            "detail": f"{type(exc).__name__}: {exc}",
                            "request_id": request_id,
                        }),
                        "application/json",
                        {},
                    )

            t0 = time.perf_counter()
            try:
                if traced:
                    with obs.bind(ctx):
                        with obs.span(
                            "serve.request", endpoint=endpoint, method=method,
                            **span_extra,
                        ):
                            status, body, content_type, headers = invoke()
                else:
                    status, body, content_type, headers = invoke()
            finally:
                if data_plane:
                    owner._exit_data_plane()
            latency_ms = 1000.0 * (time.perf_counter() - t0)
            obs.histogram("serve.http_latency_ms", **req_labels).observe(
                latency_ms, trace_id=ctx.trace_id if traced else None
            )
            if recorder is not None:
                trace_status = "ok" if status < 400 else f"http_{status}"
                recorder.finish(
                    ctx.trace_id,
                    status=trace_status,
                    wall_ms=latency_ms,
                    reason="deadline_miss" if status == 504 else None,
                )
            if data_plane and status != 429:
                # Feed the admission controller's rolling p99 with
                # latencies of requests that actually traversed the
                # service (shed fast-rejects would dilute the signal).
                owner.admission.note_latency_ms(latency_ms)
            if data_plane and chaos is not None and chaos.slowloris():
                trickle_s = chaos.slowloris_delay_s
        obs.counter("serve.http_requests", code=str(status), **req_labels).inc()
        self._discard_body()
        self._reply(status, body, content_type, headers, trickle_s=trickle_s)


_Route = Tuple[int, bytes, str, Dict[str, str]]


class LocalizationHTTPServer:
    """Serve a :class:`ModelRegistry` over HTTP with micro-batching.

    Parameters
    ----------
    service:
        One loaded building, served as a one-site registry
        (:meth:`~repro.serve.registry.ModelRegistry.from_service`).
        Pass either this or ``registry``.
    host, port:
        Bind address; ``port=0`` picks a free port (read :attr:`url`).
    max_batch, max_wait_ms, max_queue:
        Micro-batcher knobs for both dispatchers, ``http`` (locates) and
        ``track`` (session steps); see
        :class:`~repro.serve.batcher.MicroBatcher`.  The default window
        is greedy dispatch: a lone request goes out at once, and
        requests queued behind a running dispatch coalesce into the
        next one.  A positive ``max_wait_ms`` holds each request up to
        that long for company.  ``max_batch=1`` disables coalescing —
        the serving bench's baseline.
    default_deadline_ms:
        Deadline applied to locate requests that do not send their own
        (header or body; None: wait as long as it takes).  Like a
        request's own budget it must be > 0 and small enough to wait
        on, else ValueError.
    clock:
        Injectable time source shared with the batcher.
    retry_after_s:
        *Floor* on the adaptive ``Retry-After`` hint.  The served value
        is computed per rejection from the queue depth and the
        batcher's live drain rate; this floor is what clients see
        before any drain-rate data exists.
    admission:
        A ready :class:`~repro.serve.resilience.AdmissionController`,
        or None to build one from ``max_queue`` and ``p99_limit_ms``.
    p99_limit_ms:
        Optional latency brake for the built-in admission controller:
        bulk traffic sheds when the rolling p99 exceeds it, normal
        traffic at twice it.
    chaos:
        Optional :class:`~repro.serve.resilience.ChaosPolicy` injecting
        dispatch latency / connection resets / slow-loris writes (tier
        faults are the service's business — pass the policy there too).
    drain_deadline_s:
        Default bound on how long :meth:`drain` waits for in-flight
        requests before reporting them unfinished.
    track_filter, session_capacity, session_ttl_s:
        Tracking-session knobs: which filter ``/v1/track`` sessions run
        (kalman / bayes / particle), the session-store bound (LRU
        evicts beyond it) and the idle TTL.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so N worker processes can share one
        listening port and the kernel load-balances accepted
        connections among them (``repro serve --workers N``).
    metrics_source:
        Optional zero-arg callable returning the metrics snapshot for
        ``/metrics`` / ``/metrics.json`` instead of the process-local
        registry — the multi-process supervisor plugs in the fleet
        merge here so any worker answers with fleet totals.
    metrics_state_source:
        Optional zero-arg callable returning a full
        ``MetricsRegistry.dump_state`` (buckets + exemplars) for the
        OpenMetrics content negotiation on ``/metrics`` — the fleet
        analogue of ``metrics_source``, needed because a snapshot
        collapses the buckets an OpenMetrics histogram (and its
        exemplars) is made of.
    trace_source:
        Optional zero-arg callable returning a flight-recorder
        snapshot doc for ``GET /debug/traces`` instead of the
        process-local recorder — the multi-process supervisor plugs in
        the fleet-merged view so any worker can answer for a trace
        that lives in a sibling's recorder.
    admin_hook:
        Optional callable invoked after a *locally handled* admin
        action (``{"cmd": "reload"/"drain", ...}``) so a worker can
        broadcast it to its siblings.  Failures are counted, never
        surfaced to the admin caller.
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` to serve.  The
        server pins its default site for its lifetime (the unprefixed
        routes alias it) and routes ``/v1/sites/{site}/...`` through
        per-site runtimes, each with its own micro-batcher, tracking
        sessions and breaker board — batches never coalesce across
        sites.  The batching/tracking knobs above are pushed into the
        registry's per-site runtime config where not already set.
        ``drain()`` stops every resident site's dispatchers; ``stop()``
        closes the registry (it is single-use, like the server).

    Use as a context manager or ``start()``/``stop()``.
    """

    class _HTTPServer(ThreadingHTTPServer):
        daemon_threads = True
        # socketserver's default listen backlog is 5: a burst of N>5
        # clients connecting at once gets connection-reset at the door.
        request_queue_size = 128
        owner: "LocalizationHTTPServer"

        def service_actions(self):
            self.owner._ready.set()  # start() waits for the first poll-loop pass

    def __init__(
        self,
        service: Optional[LocalizationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = 256,
        default_deadline_ms: Optional[float] = None,
        clock=None,
        retry_after_s: int = 1,
        admission: Optional[AdmissionController] = None,
        p99_limit_ms: Optional[float] = None,
        chaos: Optional[ChaosPolicy] = None,
        drain_deadline_s: float = 10.0,
        track_filter: str = "kalman",
        session_capacity: int = 10000,
        session_ttl_s: float = 300.0,
        reuse_port: bool = False,
        metrics_source: Optional[Callable[[], dict]] = None,
        metrics_state_source: Optional[Callable[[], dict]] = None,
        trace_source: Optional[Callable[[], dict]] = None,
        admin_hook: Optional[Callable[[Dict[str, object]], None]] = None,
        registry: Optional[ModelRegistry] = None,
    ):
        if [service, registry].count(None) != 1:
            raise ValueError("pass either a LocalizationService or a ModelRegistry")
        if default_deadline_ms is not None and not waitable_budget(
            default_deadline_ms / 1000.0
        ):
            raise ValueError(
                "default_deadline_ms must be finite, > 0 and small enough "
                f"to wait on, got {default_deadline_ms}"
            )
        if service is not None:
            registry = ModelRegistry.from_service(service)
        self.registry = registry
        self.host = host
        self.reuse_port = bool(reuse_port)
        self.metrics_source = metrics_source
        self.metrics_state_source = metrics_state_source
        self.trace_source = trace_source
        self.admin_hook = admin_hook
        self._requested_port = int(port)
        self._clock = clock if clock is not None else SystemClock()
        self.default_deadline_ms = default_deadline_ms
        self.retry_after_s = int(retry_after_s)
        self.admission = admission if admission is not None else AdmissionController(
            max_queue=max_queue, p99_limit_ms=p99_limit_ms
        )
        self.chaos = chaos
        self.drain_deadline_s = float(drain_deadline_s)
        # Site runtimes own batchers and sessions.  Push this server's
        # knobs into the registry's runtime config (where the caller
        # didn't set their own) — tracking shares the batching knobs and
        # the clock, so deadline math is one coordinate system — then pin
        # the default site for the server's lifetime: the unprefixed
        # routes and the health checks run against it, and it can never
        # be evicted out from under them.
        registry.configure_runtimes(
            batch_config={
                "max_batch": max_batch,
                "max_wait_ms": max_wait_ms,
                "max_queue": max_queue,
            },
            track_config={
                "kind": track_filter,
                "capacity": session_capacity,
                "ttl_s": session_ttl_s,
                "max_batch": max_batch,
                "max_wait_ms": max_wait_ms,
                "max_queue": max_queue,
            },
            clock=self._clock,
        )
        self._default_runtime = registry.acquire(None)
        self.service = self._default_runtime.service
        self.batcher = self._default_runtime.batcher
        self.sessions = self._default_runtime.sessions
        self._checks: List[Tuple[str, HealthCheck]] = [
            ("model", self.service.health_check),
            ("dispatcher", self._dispatcher_check),
            ("queue", self._queue_check),
            ("breakers", self.service.breaker_health),
            ("sessions", self._sessions_check),
            ("lifecycle", self._lifecycle_check),
            ("registry", self._registry_check),
            ("rssi_drift", self._drift_check),
        ]
        self._httpd: Optional[LocalizationHTTPServer._HTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        # Drain lifecycle: data-plane requests register in/out so drain
        # can wait for the last one; the flag and the counter share one
        # condition so admit-vs-drain cannot race.
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._draining = False
        self._drain_report: Optional[Dict[str, object]] = None

    # -- health ----------------------------------------------------------
    def _dispatcher_check(self):
        if self._draining:
            # A drained batcher is stopped by design; don't double-report.
            return True, "micro-batcher drained (instance draining)"
        return self.batcher.alive, f"micro-batcher thread alive: {self.batcher.alive}"

    def _queue_check(self):
        depth, cap = self.batcher.queue_depth(), self.batcher.max_queue
        return depth < cap, {"depth": depth, "capacity": cap}

    def _sessions_check(self):
        """Session-store occupancy (+ the track dispatcher's liveness)."""
        ok, detail = self.sessions.health_check()
        if not self._draining and self._httpd is not None:
            ok = ok and self.sessions.alive
        return ok, detail

    def _registry_check(self):
        """Fleet occupancy: resident sites / capacity / loads in flight."""
        status = self.registry.status()
        return True, {
            "resident": len(status["resident"]),
            "capacity": status["capacity"],
            "default": status["default"],
            "loading": status["loading"],
            "evictions": status["evictions"],
        }

    def _lifecycle_check(self):
        if self._draining:
            # Deliberately unhealthy: a draining instance must drop out
            # of its load balancer's rotation.
            return False, {"phase": "draining", "report": self._drain_report}
        return True, {"phase": "serving"}

    def _drift_check(self):
        """Each resident site's RSSI drift, keyed by site id; never fails.

        Drift is a detail, not an ejection: the monitor compares live
        traffic with the whole survey, so traffic clustered at a few
        spots can mark APs drifted on a server whose answers are fine.
        """
        return True, {
            runtime.site_id: runtime.drift_monitor().health()[1]
            for runtime in self.registry.resident()
        }

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "LocalizationHTTPServer":
        if self._httpd is not None:
            raise RuntimeError("LocalizationHTTPServer already started")
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise RuntimeError("SO_REUSEPORT is not available on this platform")
            # Manual bind dance (bind_and_activate=False) so the option
            # lands on the socket *before* bind — required for the
            # kernel to admit a second worker onto the same port.
            # (ThreadingHTTPServer grew allow_reuse_port only in 3.11;
            # this works on every supported Python.)
            httpd = LocalizationHTTPServer._HTTPServer(
                (self.host, self._requested_port), _Handler, bind_and_activate=False
            )
            try:
                httpd.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                httpd.server_bind()
                httpd.server_activate()
            except BaseException:
                httpd.server_close()
                raise
        else:
            httpd = LocalizationHTTPServer._HTTPServer(
                (self.host, self._requested_port), _Handler
            )
        httpd.owner = self
        self._httpd = httpd
        self._ready.clear()
        self._thread = threading.Thread(
            target=lambda: httpd.serve_forever(poll_interval=0.05),
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=5.0)
        return self

    def stop(self) -> None:
        """Stop serving, unpin the default site and close the registry.

        Idempotent, and also frees a server whose ``start()`` never ran
        or failed: the constructor already started the default site.
        """
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join(timeout=5.0)
            self._httpd = self._thread = None
        runtime, self._default_runtime = self._default_runtime, None
        if runtime is not None:
            self.registry.release(runtime)
        self.registry.close()

    def __enter__(self) -> "LocalizationHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("LocalizationHTTPServer is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- overload / drain machinery --------------------------------------
    def _retry_after_for(self, batcher: MicroBatcher) -> int:
        """Adaptive Retry-After from live queue depth and drain rate."""
        return compute_retry_after_s(
            batcher.queue_depth(),
            drain_rate=batcher.drain_rate(),
            max_batch=batcher.max_batch,
            max_wait_s=batcher.max_wait_s,
            floor_s=self.retry_after_s,
        )

    def _shed(self, reason: str, batcher: MicroBatcher) -> _ApiError:
        """The 429 for a shed or a full queue, timed by that queue."""
        retry_after = self._retry_after_for(batcher)
        # Queue sheds (watermark or full) keep the wire name pre-dating
        # the admission controller ("queue_full"); the latency brake is new.
        error = "queue_full" if "queue" in reason else "overloaded"
        err = _ApiError(429, error, reason, retry_after_s=retry_after)
        err.headers["Retry-After"] = str(retry_after)
        return err

    def _admit_data_plane(self) -> bool:
        """Register one data-plane request, atomically vs. drain.

        The draining check and the in-flight increment happen under one
        lock, so :meth:`drain` can never observe zero in-flight while a
        request that already passed the check is about to start.
        """
        with self._inflight_cond:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def _exit_data_plane(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    def _draining_response(self, request_id: Optional[str] = None) -> _Route:
        retry_after = self._retry_after_for(self.batcher)
        doc: Dict[str, object] = {
            "error": "draining", "detail": "instance is draining; retry elsewhere",
        }
        if request_id:
            doc["request_id"] = request_id
        body = canonical_json(doc)
        return 503, body, "application/json", {"Retry-After": str(retry_after)}

    def in_flight(self) -> int:
        with self._inflight_cond:
            return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, deadline_s: Optional[float] = None) -> Dict[str, object]:
        """Graceful drain: refuse new data-plane work, finish the old.

        1. Flip the draining flag (atomically vs. request admission) —
           new locate traffic answers 503 + ``Retry-After``, ``/healthz``
           flips unhealthy so load balancers eject this instance;
           control-plane endpoints keep answering.
        2. Wait for in-flight data-plane requests to finish, bounded by
           ``deadline_s`` (default: the constructor's
           ``drain_deadline_s``).
        3. Stop every resident site's dispatchers, which drain every
           already-accepted queued request before their threads exit.
           The registry stays open, so tracking reads and closes keep
           answering from the session stores; :meth:`stop` closes it.

        Returns a report: ``{"drained", "waited_s", "unfinished"}``.
        ``unfinished == 0`` is the graceful-exit contract the CI chaos
        smoke asserts.  Idempotent: a second call waits on the same
        drain rather than re-running it.
        """
        with self._inflight_cond:
            already = self._draining
            self._draining = True
        if not already:
            obs.counter("serve.drain.initiated").inc()
        limit = self.drain_deadline_s if deadline_s is None else float(deadline_s)
        t0 = time.monotonic()  # real time: bounds a real wait, even with ManualClock
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = limit - (time.monotonic() - t0)
                if remaining <= 0:
                    break
                self._inflight_cond.wait(timeout=min(remaining, 0.05))
            unfinished = self._inflight
        if not already:
            # Drains the accepted backlog: every queued future resolves,
            # including queued tracking-session steps.
            self.registry.drain()
        report: Dict[str, object] = {
            "drained": unfinished == 0,
            "waited_s": round(time.monotonic() - t0, 4),
            "unfinished": unfinished,
        }
        self._drain_report = report
        obs.counter("serve.drain.completed",
                    result="clean" if unfinished == 0 else "timeout").inc()
        obs.gauge("serve.drain.unfinished").set(unfinished)
        return report

    # -- endpoint handlers ----------------------------------------------
    def _deadline_from(self, handler: _Handler, doc: Optional[dict]) -> Optional[float]:
        """Resolve the request's deadline budget in seconds (or None).

        The tightest of the ``X-Deadline-Ms`` header and the body's
        ``deadline_ms`` wins; ``default_deadline_ms`` applies only when
        neither is present.  Invalid values — non-numeric, non-finite or
        too large to wait on (:func:`waitable_budget`) — are 400s; a
        non-positive *header* budget is a 504 (the client's clock says
        the request is already dead — distinct from a malformed body
        deadline).
        """
        budgets: List[float] = []
        body_ms = (doc or {}).get("deadline_ms")
        if body_ms is not None:
            try:
                body_s = float(body_ms) / 1000.0
            except (TypeError, ValueError, OverflowError):
                raise _ApiError(400, "bad_deadline",
                                f"deadline_ms not a number: {body_ms!r}") from None
            if not waitable_budget(body_s):
                raise _ApiError(400, "bad_deadline",
                                "deadline_ms must be finite, > 0 and small "
                                f"enough to wait on, got {body_ms}")
            budgets.append(body_s)
        header_ms = handler.headers.get(DEADLINE_HEADER)
        if header_ms is not None:
            try:
                header_s = float(header_ms) / 1000.0
            except (TypeError, ValueError):
                raise _ApiError(400, "bad_deadline",
                                f"{DEADLINE_HEADER} not a number: {header_ms!r}") from None
            if header_s <= 0:
                raise _ApiError(504, "deadline_exceeded",
                                f"{DEADLINE_HEADER} budget already spent ({header_ms}ms)")
            if not waitable_budget(header_s):
                raise _ApiError(400, "bad_deadline",
                                f"{DEADLINE_HEADER} must be finite and small enough "
                                f"to wait on, got {header_ms!r}")
            budgets.append(header_s)
        if not budgets and self.default_deadline_ms is not None:
            budgets.append(float(self.default_deadline_ms) / 1000.0)
        return min(budgets) if budgets else None

    # -- site leases ------------------------------------------------------
    def _site_entry(self, method: str, site_id: str, tail: str):
        """Route one ``/v1/sites/{site}/...`` path to a handler closure."""
        if not _SITE_ID_RE.match(site_id):
            return None
        if method == "POST" and tail == "locate":
            return ("locate", lambda h, _s=site_id: self._handle_locate(h, site=_s))
        if method == "POST" and tail == "locate/batch":
            return (
                "locate_batch",
                lambda h, _s=site_id: self._handle_locate_batch(h, site=_s),
            )
        if method == "POST" and tail == "admin/reload":
            return ("reload", lambda h, _s=site_id: self._handle_reload(h, site=_s))
        if tail.startswith("track/") and len(tail) > len("track/"):
            session_id = tail[len("track/"):]
            track_routes = {
                "POST": ("track", self._handle_track_step),
                "GET": ("track_status", self._handle_track_get),
                "DELETE": ("track_close", self._handle_track_close),
            }
            if method in track_routes:
                name, fn = track_routes[method]
                return (
                    name,
                    lambda h, _f=fn, _sid=session_id, _s=site_id: _f(h, _sid, site=_s),
                )
        return None

    @contextmanager
    def _leased(self, site: Optional[str]) -> Iterator[SiteRuntime]:
        """Pin the site's runtime for the duration of one request.

        The runtime cannot be evicted while the request — including its
        ``future.result()`` wait — is in flight; the lease is released
        when the response is built.
        """
        try:
            runtime = self.registry.acquire(site)
        except UnknownSiteError as exc:
            raise _ApiError(
                404, "unknown_site", str(exc), sites=self.registry.site_ids()
            ) from None
        except RuntimeError as exc:
            # Registry closed by a stop racing this request.
            raise _ApiError(503, "draining", str(exc)) from None
        try:
            yield runtime
        finally:
            self.registry.release(runtime)

    @staticmethod
    def _decode(view: SiteRuntime, docs: List[object]) -> List[Observation]:
        """Decode a request's observation documents for the leased site.

        A malformed document is a 400 ``bad_observation``.  The decoded
        scans feed the site's drift monitor in one pass; it skips scans
        it cannot align, so the feed never fails a request and never
        touches an answer.
        """
        try:
            observations = [
                observation_from_json(d, expect_site=view.site_id) for d in docs
            ]
        except WireError as exc:
            raise _ApiError(400, "bad_observation", str(exc)) from None
        view.drift_monitor().observe_many(observations)
        return observations

    def _handle_locate(self, handler: _Handler, site: Optional[str] = None) -> _Route:
        with self._leased(site) as view:
            shed = self.admission.admit(Priority.NORMAL, view.batcher.queue_depth())
            if shed is not None:
                raise self._shed(shed, batcher=view.batcher)
            doc = handler._read_json()
            (observation,) = self._decode(view, [doc])
            budget_s = self._deadline_from(handler, doc if isinstance(doc, dict) else None)
            deadline = None if budget_s is None else self._clock.monotonic() + budget_s
            if self.chaos is not None:
                chaos_s = self.chaos.dispatch_latency_s()
                if chaos_s > 0:
                    time.sleep(chaos_s)
            try:
                future = view.batcher.submit(observation, deadline=deadline)
            except DeadlineExceededError as exc:
                # Refused at enqueue: already dead on arrival, never queued.
                raise _ApiError(504, "deadline_exceeded", str(exc)) from None
            except QueueFullError as exc:
                raise self._shed(str(exc), view.batcher) from None
            try:
                # The dispatcher enforces the queue-side deadline; the extra
                # slack here only bounds a dispatch that is itself slow.
                estimate = future.result(
                    timeout=None if budget_s is None else budget_s + DEADLINE_SLACK_S
                )
            except DeadlineExceededError as exc:
                raise _ApiError(504, "deadline_exceeded", str(exc)) from None
        return 200, canonical_json(estimate_to_json(estimate)), "application/json", {}

    def _handle_locate_batch(
        self, handler: _Handler, site: Optional[str] = None
    ) -> _Route:
        with self._leased(site) as view:
            # Bulk priority: first to shed under queue pressure or latency.
            shed = self.admission.admit(Priority.BULK, view.batcher.queue_depth())
            if shed is not None:
                raise self._shed(shed, batcher=view.batcher)
            doc = handler._read_json()
            if not isinstance(doc, dict) or not isinstance(doc.get("observations"), list):
                raise _ApiError(400, "bad_request", "body must be {'observations': [...]}")
            docs = doc["observations"]
            if not docs:
                raise _ApiError(400, "bad_request", "'observations' must not be empty")
            if len(docs) > MAX_BATCH_REQUEST:
                raise _ApiError(
                    413, "batch_too_large",
                    f"{len(docs)} observations exceed the {MAX_BATCH_REQUEST} cap; split the request",
                )
            observations = self._decode(view, docs)
            # A non-positive header budget 504s before any kernel time is
            # spent on a batch the client has already given up on.
            self._deadline_from(handler, None)
            if self.chaos is not None:
                chaos_s = self.chaos.dispatch_latency_s()
                if chaos_s > 0:
                    time.sleep(chaos_s)
            # Already a batch: no coalescing window to gain, straight through
            # the chunked engine.
            estimates = view.service.locate_many(observations)
        body = canonical_json(
            {"estimates": [estimate_to_json(e) for e in estimates]}
        )
        return 200, body, "application/json", {}

    # -- tracking sessions ----------------------------------------------
    @staticmethod
    def _check_session_id(session_id: str) -> None:
        if not _SESSION_ID_RE.match(session_id):
            raise _ApiError(
                400, "bad_session_id",
                "session ids are 1-128 chars of [A-Za-z0-9._:-]",
            )

    def _handle_track_step(
        self, handler: _Handler, session_id: str, site: Optional[str] = None
    ) -> _Route:
        self._check_session_id(session_id)
        with self._leased(site) as view:
            return self._track_step(handler, session_id, view)

    def _track_step(
        self, handler: _Handler, session_id: str, view
    ) -> _Route:
        sessions = view.sessions
        shed = self.admission.admit(Priority.NORMAL, sessions.batcher.queue_depth())
        if shed is not None:
            raise self._shed(shed, sessions.batcher)
        doc = handler._read_json()
        (observation,) = self._decode(view, [doc])
        dt_s = None
        if isinstance(doc, dict) and doc.get("dt_s") is not None:
            try:
                dt_s = float(doc["dt_s"])
            except (TypeError, ValueError):
                raise _ApiError(400, "bad_dt",
                                f"dt_s not a number: {doc['dt_s']!r}") from None
            if dt_s <= 0:
                raise _ApiError(400, "bad_dt", f"dt_s must be > 0, got {doc['dt_s']}")
            if not math.isfinite(dt_s):
                # A NaN/infinite step would poison the session's filter.
                raise _ApiError(400, "bad_dt", f"dt_s must be finite, got {doc['dt_s']}")
        ts = None
        if isinstance(doc, dict) and doc.get("ts") is not None:
            # Client scan timestamp (seconds, any consistent epoch):
            # the session derives Δt from consecutive ts values, with
            # an explicit dt_s always winning (see sessions.step).
            try:
                ts = float(doc["ts"])
            except (TypeError, ValueError):
                raise _ApiError(400, "bad_ts",
                                f"ts not a number: {doc['ts']!r}") from None
            if not math.isfinite(ts):
                raise _ApiError(400, "bad_ts", f"ts must be finite, got {doc['ts']}")
        budget_s = self._deadline_from(handler, doc if isinstance(doc, dict) else None)
        # Deadlines live on the *track* batcher's clock (the default
        # construction shares the server clock, so they coincide).
        deadline = (
            None if budget_s is None else sessions.clock.monotonic() + budget_s
        )
        if self.chaos is not None:
            chaos_s = self.chaos.dispatch_latency_s()
            if chaos_s > 0:
                time.sleep(chaos_s)
        try:
            future, created = sessions.step(
                session_id, observation, dt_s, deadline=deadline, ts=ts
            )
        except DeadlineExceededError as exc:
            raise _ApiError(504, "deadline_exceeded", str(exc)) from None
        except QueueFullError as exc:
            raise self._shed(str(exc), sessions.batcher) from None
        try:
            estimate, seq = future.result(
                timeout=None if budget_s is None else budget_s + DEADLINE_SLACK_S
            )
        except DeadlineExceededError as exc:
            raise _ApiError(504, "deadline_exceeded", str(exc)) from None
        except SessionClosedError as exc:
            # Closed (delete/TTL/LRU) between enqueue and apply: the
            # scan was NOT applied; 410 tells the client its session is
            # gone for good (vs the 404 of an id that never existed).
            raise _ApiError(410, "session_closed", str(exc)) from None
        except BadTimestampError as exc:
            # ts rewound past the rejection window: the scan was NOT
            # applied (any Δt would corrupt the filter state).
            raise _ApiError(400, "bad_timestamp", str(exc)) from None
        body = canonical_json(
            track_estimate_to_json(estimate, session_id, seq, created=created)
        )
        return 200, body, "application/json", {}

    def _handle_track_get(
        self, handler: _Handler, session_id: str, site: Optional[str] = None
    ) -> _Route:
        self._check_session_id(session_id)
        try:
            with self._leased(site) as view:
                estimate, seq = view.sessions.current(session_id)
        except UnknownSessionError as exc:
            raise _ApiError(404, "unknown_session", str(exc)) from None
        if estimate is None:
            doc: Dict[str, object] = {
                "valid": False,
                "position": None,
                "location_name": None,
                "score": None,
                "reason": "no scans applied yet",
                "session": {"id": session_id, "seq": 0, "created": False},
            }
        else:
            doc = track_estimate_to_json(estimate, session_id, seq)
        return 200, canonical_json(doc), "application/json", {}

    def _handle_track_close(
        self, handler: _Handler, session_id: str, site: Optional[str] = None
    ) -> _Route:
        self._check_session_id(session_id)
        try:
            with self._leased(site) as view:
                report = view.sessions.close(session_id)
        except UnknownSessionError as exc:
            # Also the answer for a *second* DELETE: close is exactly-once.
            raise _ApiError(404, "unknown_session", str(exc)) from None
        body = canonical_json(
            {"closed": True, "session": {"id": session_id, "seq": report["steps"]}}
        )
        return 200, body, "application/json", {}

    def _handle_reload(
        self, handler: _Handler, site: Optional[str] = None
    ) -> _Route:
        database = None
        body_site = None
        if handler._content_length > 0:
            doc = handler._read_json()
            if not isinstance(doc, dict):
                raise _ApiError(400, "bad_request", "reload body must be a JSON object")
            database = doc.get("database")
            body_site = doc.get("site")
        if database is not None and not (isinstance(database, str) and database):
            raise _ApiError(400, "bad_request", "'database' must be a non-empty string")
        if body_site is not None:
            if not isinstance(body_site, str):
                raise _ApiError(400, "bad_request", "'site' must be a string")
            if site is not None and body_site != site:
                raise _ApiError(
                    400, "bad_request",
                    f"body site {body_site!r} contradicts path site {site!r}",
                )
            site = body_site
        # The registry swaps the site's model (loading the site first if
        # cold), bumps its generation and rebinds any live trackers on
        # it, keeping their filter state where it can.
        try:
            info = dict(self.registry.reload(site, database))
        except UnknownSiteError as exc:
            raise _ApiError(
                404, "unknown_site", str(exc), sites=self.registry.site_ids()
            ) from None
        except Exception as exc:  # noqa: BLE001 - old model keeps serving
            raise _ApiError(
                500, "reload_failed", f"{type(exc).__name__}: {exc}",
                serving="previous model",
            ) from None
        rebound = info.pop("sessions", {"sessions": 0, "kept": 0, "reset": 0})
        self._notify_admin({"cmd": "reload", "database": database, "site": info["site"]})
        return (
            200,
            canonical_json({"reloaded": True, "model": info, "sessions": rebound}),
            "application/json",
            {},
        )

    def _handle_sites(self, handler: _Handler) -> _Route:
        """``GET /v1/sites``: the registry's fleet card (control plane)."""
        return 200, canonical_json(self.registry.status()), "application/json", {}

    def _notify_admin(self, event: Dict[str, object]) -> None:
        """Tell the admin hook (sibling-worker broadcast) what just
        happened locally; hook failures never fail the admin caller."""
        if self.admin_hook is None:
            return
        try:
            self.admin_hook(event)
        except Exception as exc:  # noqa: BLE001 - broadcast is best-effort
            obs.counter("serve.admin_hook_errors", kind=type(exc).__name__).inc()

    def _handle_drain(self, handler: _Handler) -> _Route:
        deadline_s = None
        if handler._content_length > 0:
            doc = handler._read_json()
            if not isinstance(doc, dict):
                raise _ApiError(400, "bad_request", "drain body must be a JSON object")
            if doc.get("deadline_s") is not None:
                try:
                    deadline_s = float(doc["deadline_s"])
                except (TypeError, ValueError):
                    raise _ApiError(400, "bad_request",
                                    f"deadline_s not a number: {doc['deadline_s']!r}") from None
                if not math.isfinite(deadline_s):
                    # NaN never runs out: the drain would ignore its bound.
                    raise _ApiError(400, "bad_request",
                                    f"deadline_s must be finite, got {doc['deadline_s']}")
        with self._inflight_cond:
            already = self._draining
        if not already:
            # drain() blocks until in-flight work finishes; answer the
            # admin caller now and let the wait happen off-thread.  The
            # report lands on /healthz (lifecycle check) when done.
            threading.Thread(
                target=self.drain, args=(deadline_s,),
                name="repro-serve-drain", daemon=True,
            ).start()
            self._notify_admin({"cmd": "drain", "deadline_s": deadline_s})
        body = canonical_json({
            "draining": True,
            "already_draining": already,
            "in_flight": self.in_flight(),
        })
        return 200, body, "application/json", {}

    def _handle_healthz(self, handler: _Handler) -> _Route:
        ok, report = run_health_checks(self._checks)
        body = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
        return (200 if ok else 503), body, "application/json", {}

    def _metrics_snapshot(self) -> dict:
        if self.metrics_source is not None:
            return self.metrics_source()
        return obs.snapshot()

    def _handle_metrics(self, handler: _Handler) -> _Route:
        accept = handler.headers.get("Accept") or ""
        if "application/openmetrics-text" in accept:
            # OpenMetrics negotiation: real cumulative-le histograms
            # with trace-id exemplars, rendered from full bucket state
            # (a snapshot has already collapsed the buckets away).
            if self.metrics_state_source is not None:
                state = self.metrics_state_source()
            else:
                state = obs.get_registry().dump_state()
            body = render_openmetrics(state).encode("utf-8")
            return 200, body, OPENMETRICS_CONTENT_TYPE, {}
        body = render_prometheus(self._metrics_snapshot()).encode("utf-8")
        return 200, body, PROMETHEUS_CONTENT_TYPE, {}

    def _handle_metrics_json(self, handler: _Handler) -> _Route:
        body = render_json(self._metrics_snapshot()).encode("utf-8")
        return 200, body, "application/json", {}

    def _handle_debug_traces(self, handler: _Handler) -> _Route:
        """The flight recorder's window: retained traces as JSON.

        ``?trace_id=<32hex>`` filters to one trace.  With a
        ``trace_source`` installed (the worker fleet), the answer is
        the fleet-merged view, so *any* worker can produce a trace
        that was served (and recorded) by a sibling.
        """
        query = handler.path.partition("?")[2]
        want: Optional[str] = None
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "trace_id" and value:
                want = value.strip().lower()
        if self.trace_source is not None:
            doc = self.trace_source()
        else:
            recorder = obs.get_recorder()
            doc = (
                recorder.snapshot()
                if recorder is not None
                else {"schema": TRACE_SCHEMA, "stats": {}, "traces": []}
            )
        if want is not None:
            doc = dict(doc)
            doc["traces"] = [
                t for t in doc.get("traces", []) if t.get("trace_id") == want
            ]
        body = (json.dumps(doc, sort_keys=True, default=str) + "\n").encode("utf-8")
        return 200, body, "application/json", {}

    def _handle_index(self, handler: _Handler) -> _Route:
        status = self.registry.status()
        doc = {
            "service": "repro-localization",
            "model": self.service.describe(),
            "batching": {
                "max_batch": self.batcher.max_batch,
                "max_wait_ms": 1000.0 * self.batcher.max_wait_s,
                "max_queue": self.batcher.max_queue,
            },
            "tracking": {
                "filter": self.sessions.kind,
                "session_capacity": self.sessions.store.capacity,
                "session_ttl_s": self.sessions.store.ttl_s,
            },
            "endpoints": [
                "POST /v1/locate",
                "POST /v1/locate/batch",
                "POST /v1/track/{session}",
                "GET /v1/track/{session}",
                "DELETE /v1/track/{session}",
                "POST /admin/reload",
                "POST /admin/drain",
                "GET /healthz",
                "GET /metrics",
                "GET /metrics.json",
                "GET /debug/traces",
                "GET /v1/sites",
                "POST /v1/sites/{site}/locate",
                "POST /v1/sites/{site}/locate/batch",
                "POST /v1/sites/{site}/track/{session}",
                "GET /v1/sites/{site}/track/{session}",
                "DELETE /v1/sites/{site}/track/{session}",
                "POST /v1/sites/{site}/admin/reload",
            ],
            "sites": {
                "default": status["default"],
                "capacity": status["capacity"],
                "known": status["sites"],
                "resident": [entry["site"] for entry in status["resident"]],
            },
        }
        return 200, canonical_json(doc), "application/json", {}
