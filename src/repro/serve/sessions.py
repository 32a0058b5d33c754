"""Stateful tracking sessions for the localization service.

Production localization is a *stream* of scans per moving device —
§6.2's "combination of the historical location value and the current
signal strength value" — not isolated requests.  This module is the
serving-side home of :mod:`repro.algorithms.tracking`:

* :class:`SessionStore` — a bounded map from session id to a live
  tracker.  TTL expiry (a device that stopped reporting ages out) and
  LRU eviction (the store never exceeds ``capacity``) both close the
  session exactly once; an explicit ``DELETE`` does the same.  All
  transitions land in ``serve.sessions.*`` metrics.
* :class:`TrackerFactory` — builds the site-configured filter (kalman /
  bayes / particle) against the service's *current* model generation,
  and rebinds live trackers to a new generation after a hot reload
  without discarding filter state (see each tracker's ``rebind``).
* :class:`TrackingSessions` — the engine: store + factory + a second
  :class:`~repro.serve.batcher.MicroBatcher` named ``track``.  Steps
  from many concurrent sessions are coalesced; trackers that expose
  the measurement split (:attr:`~repro.algorithms.tracking.base.Tracker.
  measurement_localizer`) get their static fixes from **one** vectorized
  ``locate_many`` call per batch instead of N scalar ``locate`` calls —
  the KalmanTracker's per-step ``localizer.locate`` was the hot spot.
  Per-session application happens under the session lock, exactly once;
  a session closed while a step was queued fails *that* step with
  :class:`SessionClosedError` (via :class:`~repro.serve.batcher.
  BatchFailure`) without touching the rest of the batch.

:mod:`repro.serve.http` mounts this as ``POST/GET/DELETE
/v1/track/{session}``; docs/tracking.md covers filters and tradeoffs.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.algorithms.probabilistic import ProbabilisticLocalizer
from repro.algorithms.tracking import (
    DiscreteBayesTracker,
    KalmanTracker,
    ParticleFilterTracker,
    RSSIField,
    Tracker,
)
from repro.serve.batcher import DEFAULT_MAX_WAIT_MS, BatchFailure, MicroBatcher
from repro.serve.clock import SystemClock

__all__ = [
    "TRACKER_KINDS",
    "SessionError",
    "UnknownSessionError",
    "SessionClosedError",
    "BadTimestampError",
    "TrackerFactory",
    "TrackingSession",
    "SessionStore",
    "TrackingSessions",
]

#: Filters a site can configure (``repro serve --track-filter``).
TRACKER_KINDS = ("kalman", "bayes", "particle")


class SessionError(RuntimeError):
    """Base class for tracking-session lifecycle errors."""


class UnknownSessionError(SessionError):
    """No live session under that id (never created, expired, or deleted)."""

    def __init__(self, session_id: str):
        super().__init__(f"no live tracking session {session_id!r}")
        self.session_id = session_id


class SessionClosedError(SessionError):
    """The session closed (delete/TTL/LRU) after this step was queued."""

    def __init__(self, session_id: str, reason: Optional[str]):
        super().__init__(
            f"tracking session {session_id!r} closed ({reason or 'closed'}) "
            "before this scan could be applied"
        )
        self.session_id = session_id
        self.reason = reason


class BadTimestampError(SessionError):
    """A client ``ts`` rewound past the rejection window.

    Small regressions (clock skew between a device's cores, NTP
    stepping) are *clamped* to a minimal Δt and counted; a rewind
    beyond ``max_ts_rewind_s`` means the client's clock is lying and
    the scan is rejected — applying it with any Δt would corrupt the
    filter state.
    """

    def __init__(self, session_id: str, ts: float, last_ts: float, limit_s: float):
        super().__init__(
            f"session {session_id!r}: ts {ts} rewinds {last_ts - ts:.3f}s "
            f"behind the previous scan (limit {limit_s}s)"
        )
        self.session_id = session_id
        self.ts = ts
        self.last_ts = last_ts


class TrackerFactory:
    """Build/rebind per-session trackers against the service's live model.

    ``build()`` reads the current :class:`~repro.serve.service.
    LocalizationService` model generation; shared fit products (the
    bayes emission model, the particle radio field) are computed once
    per generation and reused across sessions.  ``rebind(tracker)``
    points an existing tracker at the current generation, preserving
    filter state where the tracker can (see each ``rebind``); it
    returns True iff state survived.
    """

    def __init__(self, service, kind: str = "kalman", bounds=None, **tracker_kwargs):
        if kind not in TRACKER_KINDS:
            raise ValueError(f"unknown tracker kind {kind!r}; pick one of {TRACKER_KINDS}")
        self.service = service
        self.kind = kind
        self.bounds = bounds
        self.tracker_kwargs = dict(tracker_kwargs)
        self._lock = threading.Lock()
        self._generation: Optional[int] = None
        self._emission: Optional[ProbabilisticLocalizer] = None
        self._field: Optional[RSSIField] = None

    def _materials(self):
        """The current model plus per-generation shared fit products."""
        model = self.service.model()
        with self._lock:
            if self._generation != model.generation:
                self._emission = None
                self._field = None
                if self.kind == "bayes":
                    # The serving chain's localizer need not expose
                    # log_likelihoods; the bayes emission is its own
                    # probabilistic fit on the same database.
                    self._emission = ProbabilisticLocalizer().fit(model.db)
                elif self.kind == "particle":
                    self._field = RSSIField(model.db)
                self._generation = model.generation
        return model

    def _bounds_for(self, model) -> Tuple[float, float, float, float]:
        if self.bounds is not None:
            x0, y0, x1, y1 = self.bounds
            return float(x0), float(y0), float(x1), float(y1)
        pos = model.db.positions()
        pad = 5.0  # particles may roam a little past the survey hull
        return (
            float(pos[:, 0].min() - pad),
            float(pos[:, 1].min() - pad),
            float(pos[:, 0].max() + pad),
            float(pos[:, 1].max() + pad),
        )

    def build(self) -> Tracker:
        model = self._materials()
        if self.kind == "kalman":
            return KalmanTracker(model.localizer, **self.tracker_kwargs)
        if self.kind == "bayes":
            return DiscreteBayesTracker(self._emission, model.db, **self.tracker_kwargs)
        return ParticleFilterTracker(
            self._field, self._bounds_for(model), **self.tracker_kwargs
        )

    def rebind(self, tracker: Tracker) -> bool:
        model = self._materials()
        if self.kind == "kalman":
            return tracker.rebind(model.localizer)
        if self.kind == "bayes":
            return tracker.rebind(self._emission, model.db)
        return tracker.rebind(self._field)


class TrackingSession:
    """One device's live filter plus its lifecycle state.

    ``lock`` guards the tracker and the closed flag: a step applies iff
    the session is still open *at apply time*, which is what makes the
    close lifecycle exactly-once — a scan queued before a close either
    applied before it (and counted) or fails with
    :class:`SessionClosedError`, never both, never silently neither.
    """

    __slots__ = (
        "session_id", "tracker", "lock", "created_at", "last_seen",
        "steps", "closed", "close_reason", "last_estimate", "generation",
        "last_ts", "origin_trace",
    )

    def __init__(self, session_id: str, tracker: Tracker, now: float):
        self.session_id = session_id
        self.tracker = tracker
        self.lock = threading.Lock()
        self.created_at = now
        self.last_seen = now
        self.steps = 0
        self.closed = False
        self.close_reason: Optional[str] = None
        self.last_estimate = None
        #: Trace id of the request that created this session — the
        #: lineage every later step's ``track.step`` span carries, so a
        #: device's whole stream joins back to one origin trace (and
        #: survives hot reloads: rebind never touches it).
        self.origin_trace: Optional[str] = None
        #: Latest client timestamp applied (None before the first
        #: ``ts``-carrying scan).  Monotonic by construction: a clamped
        #: regression never moves it backwards.
        self.last_ts: Optional[float] = None

    def close(self, reason: str) -> bool:
        """Flip to closed; True only for the one call that did the flip."""
        with self.lock:
            if self.closed:
                return False
            self.closed = True
            self.close_reason = reason
            return True


class SessionStore:
    """Bounded, TTL'd, LRU-evicting map of live tracking sessions.

    Every access path (create, touch, read, delete) first sweeps
    sessions whose ``last_seen`` is older than ``ttl_s`` — expired
    sessions are unreachable even if no background thread runs.  The
    ``OrderedDict`` is kept in recency order (touch = ``move_to_end``),
    so TTL sweeping and LRU eviction pop from the same end and the
    store can never exceed ``capacity``.  All closes (explicit / TTL /
    LRU) funnel through :meth:`TrackingSession.close`, once each.

    Metrics: ``serve.sessions.created/expired/evicted/closed`` counters
    and the ``serve.sessions.active`` gauge.
    """

    def __init__(
        self,
        factory: Callable[[], Tracker],
        capacity: int = 10000,
        ttl_s: float = 300.0,
        clock=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self._factory = factory
        self.capacity = int(capacity)
        self.ttl_s = float(ttl_s)
        self._clock = clock if clock is not None else SystemClock()
        self._sessions: "OrderedDict[str, TrackingSession]" = OrderedDict()
        self._lock = threading.Lock()

    # -- internals -------------------------------------------------------
    def _sweep_locked(self, now: float) -> List[TrackingSession]:
        """Pop expired sessions (store lock held); caller closes them."""
        expired = []
        while self._sessions:
            _, sess = next(iter(self._sessions.items()))
            if now - sess.last_seen < self.ttl_s:
                break
            self._sessions.popitem(last=False)
            expired.append(sess)
        return expired

    def _finish(self, expired: Sequence[TrackingSession],
                evicted: Sequence[TrackingSession]) -> None:
        """Close removed sessions outside the store lock (their own
        session locks may be held by an in-flight step)."""
        for sess in expired:
            sess.close("expired")
            obs.counter("serve.sessions.expired").inc()
        for sess in evicted:
            sess.close("evicted")
            obs.counter("serve.sessions.evicted").inc()
        if expired or evicted:
            self._note_active()

    def _note_active(self) -> None:
        with self._lock:
            n = len(self._sessions)
        obs.gauge("serve.sessions.active").set(n)

    # -- access ----------------------------------------------------------
    def obtain(self, session_id: str) -> Tuple[TrackingSession, bool]:
        """Get-or-create the session; returns ``(session, created)``.

        The tracker for a new session is built *outside* the store lock
        (a bayes build is O(n²) in grid size); a concurrent create for
        the same id simply wins the race and the loser's tracker is
        discarded.
        """
        now = self._clock.monotonic()
        with self._lock:
            expired = self._sweep_locked(now)
            sess = self._sessions.get(session_id)
            if sess is not None:
                sess.last_seen = now
                self._sessions.move_to_end(session_id)
        self._finish(expired, ())
        if sess is not None:
            return sess, False
        tracker = self._factory()
        fresh = TrackingSession(session_id, tracker, self._clock.monotonic())
        with self._lock:
            now = self._clock.monotonic()
            expired = self._sweep_locked(now)
            sess = self._sessions.get(session_id)
            if sess is not None:  # lost the create race; reuse the winner
                sess.last_seen = now
                self._sessions.move_to_end(session_id)
                created = False
            else:
                evicted = []
                while len(self._sessions) >= self.capacity:
                    _, victim = self._sessions.popitem(last=False)
                    evicted.append(victim)
                self._sessions[session_id] = fresh
                sess, created = fresh, True
        if created:
            obs.counter("serve.sessions.created").inc()
            self._finish(expired, evicted)
        else:
            self._finish(expired, ())
        self._note_active()
        return sess, created

    def get(self, session_id: str) -> TrackingSession:
        """The live session, touching its recency; raises
        :class:`UnknownSessionError` for absent *or expired* ids."""
        now = self._clock.monotonic()
        with self._lock:
            expired = self._sweep_locked(now)
            sess = self._sessions.get(session_id)
            if sess is not None:
                sess.last_seen = now
                self._sessions.move_to_end(session_id)
        self._finish(expired, ())
        if sess is None:
            raise UnknownSessionError(session_id)
        return sess

    def close(self, session_id: str, reason: str = "closed") -> TrackingSession:
        """Remove and close the session exactly once.

        The pop happens under the store lock, so of two concurrent
        DELETEs exactly one gets the session and the other sees
        :class:`UnknownSessionError` — the idempotent-delete contract.
        """
        now = self._clock.monotonic()
        with self._lock:
            expired = self._sweep_locked(now)
            sess = self._sessions.pop(session_id, None)
        self._finish(expired, ())
        if sess is None:
            raise UnknownSessionError(session_id)
        sess.close(reason)
        obs.counter("serve.sessions.closed").inc()
        self._note_active()
        return sess

    def rebind(self, rebinder: Callable[[Tracker], bool]) -> Dict[str, int]:
        """Point every live tracker at the current model generation.

        Runs ``rebinder`` under each session's lock (so it cannot race
        an in-flight step); returns counts of sessions whose filter
        state survived (``kept``) vs reset (``reset``).
        """
        with self._lock:
            sessions = list(self._sessions.values())
        kept = reset = 0
        for sess in sessions:
            with sess.lock:
                if sess.closed:
                    continue
                if rebinder(sess.tracker):
                    kept += 1
                else:
                    reset += 1
        obs.counter("serve.sessions.rebound", outcome="kept").inc(kept)
        obs.counter("serve.sessions.rebound", outcome="reset").inc(reset)
        return {"sessions": kept + reset, "kept": kept, "reset": reset}

    def active(self) -> int:
        with self._lock:
            return len(self._sessions)

    def occupancy(self) -> Dict[str, object]:
        """JSON-safe store occupancy for ``/healthz``."""
        now = self._clock.monotonic()
        with self._lock:
            expired = self._sweep_locked(now)
            n = len(self._sessions)
        self._finish(expired, ())
        return {"active": n, "capacity": self.capacity, "ttl_s": self.ttl_s}


class _StepJob:
    """One queued scan: which session, which observation, which Δt.

    ``dt_s`` is None when the client sent a ``ts`` instead — the Δt is
    then *derived at apply time* under the session lock (concurrent
    steps of one session would otherwise race on ``last_ts``).
    """

    __slots__ = ("session", "observation", "dt_s", "ts", "ctx")

    def __init__(self, session: TrackingSession, observation,
                 dt_s: Optional[float], ts: Optional[float] = None,
                 ctx=None):
        self.session = session
        self.observation = observation
        self.dt_s = dt_s
        self.ts = ts
        # The originating request's TraceContext (or None): re-bound
        # around the per-session apply so each coalesced step's
        # ``track.step`` span lands in its own request's trace.
        self.ctx = ctx


class TrackingSessions:
    """The serving-side tracking engine: store + factory + micro-batcher.

    :meth:`step` queues one scan for one session on the ``track``
    batcher; the dispatch groups the batch's jobs by measurement
    localizer, answers each group with **one** ``locate_many`` call,
    then applies each measurement to its session under the session
    lock.  Bayes trackers group the same way on their emission model —
    one ``log_likelihood_matrix`` per batch feeds every session's
    update; trackers with neither split (particle) step serially
    inside the same dispatch.  Results resolve each
    job's future with ``(estimate, seq)``; per-job failures (a closed
    session, a bad Δt or timestamp) ride :class:`~repro.serve.batcher.
    BatchFailure` so they never fail their batch-mates.
    """

    def __init__(
        self,
        service,
        kind: str = "kalman",
        capacity: int = 10000,
        ttl_s: float = 300.0,
        max_batch: int = 64,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = 512,
        clock=None,
        bounds=None,
        tracker_kwargs: Optional[Dict[str, object]] = None,
        default_dt_s: float = 1.0,
        max_ts_rewind_s: float = 60.0,
        min_dt_s: float = 1e-3,
        name: Optional[str] = None,
    ):
        if default_dt_s <= 0:
            raise ValueError(f"default_dt_s must be > 0, got {default_dt_s}")
        if max_ts_rewind_s < 0:
            raise ValueError(f"max_ts_rewind_s must be >= 0, got {max_ts_rewind_s}")
        if min_dt_s <= 0:
            raise ValueError(f"min_dt_s must be > 0, got {min_dt_s}")
        self.service = service
        self.clock = clock if clock is not None else SystemClock()
        self.factory = TrackerFactory(
            service, kind=kind, bounds=bounds, **(tracker_kwargs or {})
        )
        self.store = SessionStore(
            self.factory.build, capacity=capacity, ttl_s=ttl_s, clock=self.clock
        )
        # ``name`` labels this dispatcher's metric series; a registry
        # names per-site ones ``track@<site>`` in a fleet of more than
        # one site.
        self.batcher = MicroBatcher(
            self._step_batch,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
            clock=self.clock,
            name=name or "track",
        )
        self.default_dt_s = float(default_dt_s)
        #: Rewind tolerance for client timestamps: smaller regressions
        #: clamp to ``min_dt_s``, larger ones reject the scan.
        self.max_ts_rewind_s = float(max_ts_rewind_s)
        self.min_dt_s = float(min_dt_s)

    @property
    def kind(self) -> str:
        return self.factory.kind

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "TrackingSessions":
        self.batcher.start()
        return self

    def stop(self) -> None:
        """Stop the step dispatcher, draining every accepted step first."""
        self.batcher.stop()

    def __enter__(self) -> "TrackingSessions":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def alive(self) -> bool:
        return self.batcher.alive

    # -- the API the HTTP layer calls ------------------------------------
    def step(self, session_id: str, observation, dt_s: Optional[float] = None,
             deadline: Optional[float] = None, ts: Optional[float] = None):
        """Queue one scan; returns ``(future, created)``.

        The future resolves with ``(estimate, seq)`` — ``seq`` is the
        1-based count of scans applied to the session — or fails with
        the batcher's deadline/queue errors, :class:`SessionClosedError`
        or :class:`BadTimestampError`.

        Δt precedence: an explicit ``dt_s`` always wins; otherwise a
        client ``ts`` (seconds, any consistent epoch) derives Δt from
        the session's previous ``ts`` with a monotonic-regression
        guard; with neither, ``default_dt_s`` applies.
        """
        if dt_s is not None:
            dt: Optional[float] = float(dt_s)
            if not 0 < dt < math.inf:
                raise ValueError(f"dt_s must be finite and > 0, got {dt_s}")
        elif ts is not None:
            dt = None  # resolved at apply time, under the session lock
        else:
            dt = self.default_dt_s
        if ts is not None:
            ts = float(ts)
            if not math.isfinite(ts):
                raise ValueError(f"ts must be finite, got {ts}")
        session, created = self.store.obtain(session_id)
        ctx = obs.current_context()
        if created and ctx is not None:
            session.origin_trace = ctx.trace_id
        future = self.batcher.submit(
            _StepJob(session, observation, dt, ts, ctx=ctx), deadline=deadline
        )
        return future, created

    def current(self, session_id: str):
        """``(last_estimate, seq)`` for a live session (estimate may be
        None before the first applied scan)."""
        sess = self.store.get(session_id)
        with sess.lock:
            return sess.last_estimate, sess.steps

    def close(self, session_id: str) -> Dict[str, object]:
        sess = self.store.close(session_id)
        return {"steps": sess.steps}

    def rebind(self) -> Dict[str, int]:
        """Re-point every live session at the current model generation
        (called after a successful hot reload)."""
        return self.store.rebind(self.factory.rebind)

    def health_check(self):
        """(ok, detail) for ``/healthz``: store occupancy + dispatcher."""
        detail = dict(self.store.occupancy())
        detail["filter"] = self.kind
        return True, detail

    # -- the batched dispatch --------------------------------------------
    def _resolve_dt_locked(self, session: TrackingSession, job: _StepJob) -> float:
        """Turn a job's (dt_s, ts) into the Δt to step with.

        Runs under the session lock: concurrent steps of one session
        serialize here, so each sees its predecessor's ``last_ts``.
        An explicit ``dt_s`` always wins; a ``ts`` still advances
        ``last_ts`` (to its max — the guard stays monotonic either
        way).  Derived Δt: forward gap if ``ts`` advanced; a small
        rewind (device clock skew, NTP stepping) clamps to ``min_dt_s``
        and counts ``tracking.bad_timestamps{kind=clamped}``; a rewind
        past ``max_ts_rewind_s`` raises :class:`BadTimestampError`
        (counted as ``kind=rejected``) — the clock is lying and no Δt
        would be right.
        """
        ts, last = job.ts, session.last_ts
        if ts is not None and last is not None and last - ts > self.max_ts_rewind_s:
            obs.counter("tracking.bad_timestamps", kind="rejected").inc()
            raise BadTimestampError(
                session.session_id, ts, last, self.max_ts_rewind_s
            )
        if job.dt_s is not None:
            dt = job.dt_s
        elif last is None:
            # First ts-carrying scan: nothing to difference against.
            dt = self.default_dt_s
        elif ts > last:
            dt = ts - last
        else:
            obs.counter("tracking.bad_timestamps", kind="clamped").inc()
            dt = self.min_dt_s
        if ts is not None and (last is None or ts > last):
            session.last_ts = ts
        return dt

    def _apply(self, job: _StepJob, measurement=None, loglik=None):
        """Apply one job under its originating request's trace context.

        The batcher dispatches under the *first* job's context; each
        job here re-binds its own, so its ``track.step`` span (stamped
        with the session id and the session's origin-trace lineage)
        lands in its own request's trace — N coalesced steps, N
        correctly-attributed traces, one shared dispatch span linking
        them.
        """
        if job.ctx is None:
            return self._apply_inner(job, measurement, loglik)
        session = job.session
        with obs.bind(job.ctx):
            with obs.span(
                "track.step",
                session=session.session_id,
                lineage=session.origin_trace,
            ):
                return self._apply_inner(job, measurement, loglik)

    def _apply_inner(self, job: _StepJob, measurement=None, loglik=None):
        session = job.session
        try:
            with session.lock:
                if session.closed:
                    raise SessionClosedError(session.session_id, session.close_reason)
                dt = self._resolve_dt_locked(session, job)
                if measurement is not None:
                    est = session.tracker.step_with_measurement(
                        measurement, job.observation, dt
                    )
                elif loglik is not None:
                    est = session.tracker.step_with_loglik(
                        loglik, job.observation, dt
                    )
                else:
                    est = session.tracker.step(job.observation, dt)
                session.steps += 1
                session.last_estimate = est
                seq = session.steps
            obs.counter("serve.track.steps").inc()
            return est, seq
        except SessionClosedError as exc:
            obs.counter("serve.track.step_errors", kind="session_closed").inc()
            return BatchFailure(exc)
        except Exception as exc:  # noqa: BLE001 - one bad step, one failed future
            obs.counter("serve.track.step_errors", kind=type(exc).__name__).inc()
            return BatchFailure(exc)

    def _step_batch(self, jobs: Sequence[_StepJob]):
        """Dispatch one coalesced batch of session steps.

        Groups jobs by measurement localizer identity, runs one
        ``locate_many`` per group (normally exactly one group: every
        kalman session of one model generation shares the chain), then
        applies each measurement under its session's lock.  Trackers
        with an *emission* split instead (bayes) group the same way:
        one ``log_likelihood_matrix`` call per emission model, each row
        fed to ``step_with_loglik`` — bit-identical to serial stepping
        because the matrix rows are bit-identical to per-observation
        ``log_likelihoods``.  Trackers with neither split (particle)
        step serially inside the same dispatch.
        """
        results = [None] * len(jobs)
        groups: Dict[int, Tuple[object, List[int]]] = {}
        em_groups: Dict[int, Tuple[object, List[int]]] = {}
        for i, job in enumerate(jobs):
            loc = job.session.tracker.measurement_localizer
            if loc is not None:
                groups.setdefault(id(loc), (loc, []))[1].append(i)
                continue
            em = job.session.tracker.emission_localizer
            if em is not None:
                em_groups.setdefault(id(em), (em, []))[1].append(i)
            else:
                results[i] = self._apply(job)
        for loc, idxs in groups.values():
            try:
                measurements = loc.locate_many([jobs[i].observation for i in idxs])
            except Exception as exc:  # noqa: BLE001 - fail this group only
                for i in idxs:
                    results[i] = BatchFailure(exc)
                continue
            obs.histogram("serve.track.measurement_batch").observe(len(idxs))
            for i, m in zip(idxs, measurements):
                results[i] = self._apply(jobs[i], measurement=m)
        for em, idxs in em_groups.values():
            try:
                matrix = em.log_likelihood_matrix(
                    [jobs[i].observation for i in idxs]
                )
            except Exception as exc:  # noqa: BLE001 - fail this group only
                for i in idxs:
                    results[i] = BatchFailure(exc)
                continue
            obs.histogram("serve.track.emission_batch").observe(len(idxs))
            for k, i in enumerate(idxs):
                results[i] = self._apply(jobs[i], loglik=matrix[k])
        return results
