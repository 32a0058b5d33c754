"""The localization service layer: HTTP front door over the toolkit.

The ROADMAP's production target needs more than a library: it needs a
process that accepts observations from the network and answers them at
the throughput the vectorized scoring engine (PR 3) already delivers
offline.  This package is that front door, stdlib-only like the rest
of the serving substrate:

* :mod:`repro.serve.batcher` — :class:`MicroBatcher`, the concurrency
  heart: single requests from many connections queue, and whatever is
  queued (up to ``max_batch``) is dispatched as **one**
  ``locate_many`` call as soon as the dispatcher is free, so live
  traffic rides the same chunked kernels as bulk scoring.  A lone
  request goes out at once; an optional ``max_wait_ms`` window holds
  requests for company.  Bounded queue (admission control),
  per-request deadlines, injectable clock.
* :mod:`repro.serve.service` — :class:`LocalizationService`, model
  lifecycle: load + warm a fitted localizer from a training database,
  atomic hot-reload, and the dispatch path the batcher calls.
* :mod:`repro.serve.wire` — the JSON wire format (observations in,
  estimates out), deterministic so HTTP answers are bit-for-bit
  comparable with direct ``locate_many`` results.
* :mod:`repro.serve.http` — :class:`LocalizationHTTPServer`:
  ``POST /v1/locate``, ``POST /v1/locate/batch``, ``GET /healthz``,
  ``GET /metrics``, ``POST /admin/reload``; 429 + ``Retry-After`` on
  overflow; full :mod:`repro.obs` instrumentation.
* :mod:`repro.serve.sessions` — stateful tracking sessions
  (:class:`TrackingSessions`): a bounded TTL+LRU :class:`SessionStore`
  of live filters (kalman / bayes / particle) behind
  ``POST/GET/DELETE /v1/track/{session}``, with concurrent session
  steps coalesced onto one vectorized measurement pass.
* :mod:`repro.serve.resilience` — the degraded-conditions substrate:
  per-tier circuit breakers (:class:`TierBreakerBoard`), adaptive
  admission control (:class:`AdmissionController`, priority classes,
  drain-rate-derived ``Retry-After``) and the chaos harness
  (:class:`ChaosPolicy`) behind ``repro serve --chaos``.
* :mod:`repro.serve.client` — :class:`ServiceClient`, the reference
  stdlib client: bounded retries with exponential backoff + full
  jitter, a retry budget, ``Retry-After`` obedience and
  ``X-Deadline-Ms`` deadline propagation.
* :mod:`repro.serve.clock` — real and manual time sources (the manual
  one drives wait-timeout tests without real sleeps).
* :mod:`repro.serve.registry` — multi-site fleet serving
  (``repro serve --sites <fleet>``): a :class:`ModelRegistry` maps
  site ids to fitted models with a bounded LRU of resident sites —
  lazy single-flight loading, pinned-while-in-flight eviction, and
  per-site generation counters that survive evict/reload cycles.
  Routed through ``/v1/sites/{id}/...``; docs/sites.md has the story.
* :mod:`repro.serve.workers` — multi-process scale-out
  (``repro serve --workers N``): a :class:`Supervisor` preforks N
  workers sharing one ``SO_REUSEPORT`` port, restarts crashed ones,
  fans out admin commands, and aggregates fleet metrics — frozen model
  packs (:mod:`repro.core.frozenpack`) keep the N model copies at one
  set of physical pages via mmap.

``repro serve <training.tdb>`` (see :mod:`repro.cli`) runs it from the
command line; docs/serving.md documents endpoints and knobs,
docs/resilience.md the overload/breaker/drain behaviour.
"""

from repro.serve.batcher import (
    BatchFailure,
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
)
from repro.serve.client import ClientReport, RetryBudget, ServiceClient
from repro.serve.clock import ManualClock, SystemClock
from repro.serve.http import DEADLINE_HEADER, LocalizationHTTPServer
from repro.serve.resilience import (
    AdmissionController,
    ChaosError,
    ChaosPolicy,
    CircuitBreaker,
    Priority,
    TierBreakerBoard,
    compute_retry_after_s,
)
from repro.serve.registry import (
    FLEET_MANIFEST,
    ModelRegistry,
    SiteDefinition,
    SiteRuntime,
    UnknownSiteError,
    load_fleet,
    write_fleet_manifest,
)
from repro.serve.service import LocalizationService
from repro.serve.sessions import (
    BadTimestampError,
    SessionClosedError,
    SessionStore,
    TrackerFactory,
    TrackingSession,
    TrackingSessions,
    UnknownSessionError,
)
from repro.serve.workers import (
    ControlChannel,
    FleetMetrics,
    Supervisor,
    WorkerSpec,
    worker_main,
)
from repro.serve.wire import (
    WireError,
    canonical_json,
    estimate_to_json,
    observation_from_json,
    track_estimate_to_json,
)

__all__ = [
    "AdmissionController",
    "BadTimestampError",
    "BatchFailure",
    "ChaosError",
    "ChaosPolicy",
    "CircuitBreaker",
    "ClientReport",
    "ControlChannel",
    "DEADLINE_HEADER",
    "DeadlineExceededError",
    "FLEET_MANIFEST",
    "FleetMetrics",
    "LocalizationHTTPServer",
    "LocalizationService",
    "ManualClock",
    "MicroBatcher",
    "ModelRegistry",
    "Priority",
    "QueueFullError",
    "RetryBudget",
    "ServiceClient",
    "SessionClosedError",
    "SessionStore",
    "SiteDefinition",
    "SiteRuntime",
    "Supervisor",
    "SystemClock",
    "TierBreakerBoard",
    "TrackerFactory",
    "TrackingSession",
    "TrackingSessions",
    "UnknownSessionError",
    "UnknownSiteError",
    "WireError",
    "WorkerSpec",
    "canonical_json",
    "compute_retry_after_s",
    "estimate_to_json",
    "load_fleet",
    "observation_from_json",
    "track_estimate_to_json",
    "worker_main",
    "write_fleet_manifest",
]
