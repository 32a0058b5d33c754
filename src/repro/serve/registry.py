"""Multi-site model registry: site-routed serving for a fleet of buildings.

The toolkit localizes one building; a fleet serves thousands.  This
module turns "one :class:`~repro.serve.service.LocalizationService`
per process" into "one :class:`ModelRegistry` per process, many sites
behind it":

* :class:`SiteDefinition` — a site id plus how to build its model
  (database path or object, algorithm, geometry).  Fleets live on disk
  as a directory of ``.tdb``/``.tdbx`` packs with a ``fleet.json``
  manifest (:func:`write_fleet_manifest` / :func:`load_fleet`).
* :class:`SiteRuntime` — everything serving one resident site: the
  fitted service, a per-site locate :class:`~repro.serve.batcher.
  MicroBatcher` (batches never coalesce across sites — one dispatch,
  one model), per-site :class:`~repro.serve.sessions.TrackingSessions`
  and a per-site RSSI drift monitor
  (:class:`~repro.obs.quality.APDriftMonitor`) fed every scan the site
  decodes, all created lazily on first use.  Evicting a site drops its
  live drift window with it.
* :class:`ModelRegistry` — the bounded LRU of resident runtimes, and
  the only owner of serving runtimes: a single building is served as
  a one-site registry (:func:`one_site_fleet`,
  :meth:`ModelRegistry.from_service`).
  First request for a cold site pays one model load (*single-flight*:
  a thundering herd coalesces onto one loader; followers wait on its
  event).  Loads run **outside** the registry lock, so a cold site
  never blocks requests for warm ones.  Eviction removes the
  least-recently-used *unpinned* runtime — a site with in-flight work
  (``pins > 0``) is never unloaded, even if that temporarily
  overflows capacity.  Per-site generation counters survive eviction:
  the registry remembers each site's last generation and seeds the
  rebuilt service with it, so generations stay strictly monotonic
  per site across evict/reload cycles (the PR 5/8 hot-reload
  machinery, now fleet-wide).

Metrics (all site-labelled — bounded by fleet size, not traffic):
``serve.site.requests{site=,cache=hit|miss|coalesced}``,
``serve.site.loads{site=,result=}``, ``serve.site.evictions{site=}``,
``serve.site_load_ms`` and the ``serve.sites.resident`` gauge.  The
request, batch and session series a server exports for a site carry
the site only in a fleet of more than one (:meth:`ModelRegistry.
site_label`), so a one-building server keeps its unlabelled names.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.core.geometry import Point
from repro.core.trainingdb import TrainingDatabase
from repro.obs.quality import APDriftMonitor
from repro.serve.batcher import MicroBatcher
from repro.serve.service import LocalizationService
from repro.serve.sessions import TrackingSessions

__all__ = [
    "FLEET_MANIFEST",
    "ModelRegistry",
    "SiteDefinition",
    "SiteRuntime",
    "UnknownSiteError",
    "load_fleet",
    "one_site_fleet",
    "write_fleet_manifest",
]

#: Manifest filename inside a fleet directory.
FLEET_MANIFEST = "fleet.json"
_FLEET_SCHEMA = "repro.fleet/1"
_PACK_SUFFIXES = (".tdb", ".tdbx")


class UnknownSiteError(KeyError):
    """The requested site id is not in the fleet."""

    def __init__(self, site_id: str, known: Tuple[str, ...] = ()):
        super().__init__(site_id)
        self.site_id = site_id
        self.known = tuple(known)

    def __str__(self) -> str:
        return f"unknown site {self.site_id!r}"


@dataclass
class SiteDefinition:
    """How to build one site's model (the registry's unit of config)."""

    site_id: str
    database: Union[str, TrainingDatabase]
    algorithm: str = "fallback"
    ap_positions: Optional[Dict[str, Point]] = None
    bounds: Optional[Tuple[float, float, float, float]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def manifest_entry(self, root: Optional[str] = None) -> Dict[str, object]:
        """JSON-safe manifest record (database path made root-relative)."""
        if isinstance(self.database, TrainingDatabase):
            raise ValueError(
                f"site {self.site_id!r} wraps an in-memory database; "
                "only path-backed sites can be written to a manifest"
            )
        path = str(self.database)
        if root is not None:
            try:
                path = os.path.relpath(path, root)
            except ValueError:  # e.g. different drive on Windows
                pass
        entry: Dict[str, object] = {"database": path, "algorithm": self.algorithm}
        if self.ap_positions is not None:
            entry["ap_positions"] = {
                bssid: [float(p.x), float(p.y)]
                for bssid, p in sorted(self.ap_positions.items())
            }
        if self.bounds is not None:
            entry["bounds"] = [float(v) for v in self.bounds]
        if self.meta:
            entry["meta"] = dict(self.meta)
        return entry


def write_fleet_manifest(
    root: Union[str, os.PathLike],
    sites: Dict[str, SiteDefinition],
    default: Optional[str] = None,
) -> str:
    """Write ``<root>/fleet.json`` describing the fleet; returns its path."""
    root = str(root)
    if default is not None and default not in sites:
        raise ValueError(f"default site {default!r} not in fleet {sorted(sites)}")
    doc = {
        "schema": _FLEET_SCHEMA,
        "default": default if default is not None else (sorted(sites)[0] if sites else None),
        "sites": {
            sid: sites[sid].manifest_entry(root) for sid in sorted(sites)
        },
    }
    path = os.path.join(root, FLEET_MANIFEST)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _definition_from_entry(site_id: str, entry: Dict[str, object], root: str) -> SiteDefinition:
    if not isinstance(entry, dict) or "database" not in entry:
        raise ValueError(f"fleet manifest: site {site_id!r} needs a 'database' path")
    database = str(entry["database"])
    if not os.path.isabs(database):
        database = os.path.join(root, database)
    ap_positions = None
    raw_aps = entry.get("ap_positions")
    if raw_aps is not None:
        ap_positions = {
            str(bssid): Point(float(xy[0]), float(xy[1]))
            for bssid, xy in raw_aps.items()
        }
    bounds = entry.get("bounds")
    if bounds is not None:
        bounds = tuple(float(v) for v in bounds)
        if len(bounds) != 4:
            raise ValueError(f"site {site_id!r}: bounds must be [x0, y0, x1, y1]")
    return SiteDefinition(
        site_id=site_id,
        database=database,
        algorithm=str(entry.get("algorithm", "fallback")),
        ap_positions=ap_positions,
        bounds=bounds,
        meta=dict(entry.get("meta") or {}),
    )


def load_fleet(path: Union[str, os.PathLike]) -> Tuple[Dict[str, SiteDefinition], Optional[str]]:
    """Load a fleet from a manifest file or directory.

    ``path`` may be a ``fleet.json`` file, or a directory — with a
    manifest it is parsed; without one every ``*.tdb``/``*.tdbx`` pack
    becomes a site named after its stem (a frozen pack shadows a heap
    twin of the same stem).  Returns ``(sites, default_site)``.
    """
    path = str(path)
    if os.path.isdir(path):
        manifest = os.path.join(path, FLEET_MANIFEST)
        if os.path.exists(manifest):
            return load_fleet(manifest)
        sites: Dict[str, SiteDefinition] = {}
        for name in sorted(os.listdir(path)):
            stem, ext = os.path.splitext(name)
            if ext not in _PACK_SUFFIXES:
                continue
            if stem in sites and ext == ".tdb":
                continue  # .tdbx already claimed this site id
            sites[stem] = SiteDefinition(stem, os.path.join(path, name))
        if not sites:
            raise ValueError(f"no fleet manifest or model packs under {path!r}")
        return sites, sorted(sites)[0]
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != _FLEET_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {_FLEET_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    root = os.path.dirname(os.path.abspath(path))
    raw_sites = doc.get("sites") or {}
    sites = {
        str(sid): _definition_from_entry(str(sid), entry, root)
        for sid, entry in raw_sites.items()
    }
    if not sites:
        raise ValueError(f"{path}: fleet has no sites")
    default = doc.get("default")
    if default is not None and str(default) not in sites:
        raise ValueError(f"{path}: default site {default!r} not in {sorted(sites)}")
    return sites, (str(default) if default is not None else sorted(sites)[0])


def one_site_fleet(
    database: Union[str, TrainingDatabase],
    algorithm: str = "fallback",
    ap_positions: Optional[Dict[str, Point]] = None,
    bounds: Optional[Tuple[float, float, float, float]] = None,
) -> Dict[str, SiteDefinition]:
    """The fleet of one building that ``repro serve DB`` hands the registry.

    The site id is the pack's file stem — the id :func:`load_fleet`
    gives the same pack in a bare directory — or ``default`` for an
    in-memory database.
    """
    if isinstance(database, TrainingDatabase):
        site_id = "default"
    else:
        site_id = os.path.splitext(os.path.basename(str(database)))[0]
    return {site_id: SiteDefinition(site_id, database, algorithm, ap_positions, bounds)}


class SiteRuntime:
    """One resident site: fitted service + lazily started per-site plumbing.

    The service is built (and warmed) when the registry loads the
    site; the locate batcher, tracking sessions and drift monitor are
    created on first use so a site that only ever sees batch requests
    never starts a dispatcher thread it doesn't need.  ``pins`` counts
    in-flight leases — the registry never evicts a pinned runtime.  The
    registry names the dispatchers through the configs' ``name`` keys
    and labels the drift monitor's series with ``site_label``
    (:meth:`ModelRegistry.site_label`).
    """

    def __init__(
        self,
        definition: SiteDefinition,
        service: LocalizationService,
        batch_config: Optional[Dict[str, object]] = None,
        track_config: Optional[Dict[str, object]] = None,
        clock=None,
        site_label: Optional[str] = None,
    ):
        self.definition = definition
        self.site_id = definition.site_id
        self._site_label = site_label
        self.service = service
        self.pins = 0  # guarded by the owning registry's lock
        self._clock = clock
        self._batch_config = dict(batch_config or {})
        self._track_config = dict(track_config or {})
        self._lock = threading.Lock()
        self._batcher: Optional[MicroBatcher] = None
        self._sessions: Optional[TrackingSessions] = None
        self._drift: Optional[APDriftMonitor] = None
        self._closed = False

    @property
    def generation(self) -> int:
        return self.service.model().generation

    @property
    def batcher(self) -> MicroBatcher:
        """This site's locate dispatcher (started on first access).

        Per-site by construction: a batch dispatched here only ever
        contains this site's observations, scored by this site's model.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"site runtime {self.site_id!r} is closed")
            if self._batcher is None:
                self._batcher = MicroBatcher(
                    self.service.locate_many, clock=self._clock, **self._batch_config
                ).start()
            return self._batcher

    @property
    def sessions(self) -> TrackingSessions:
        """This site's tracking engine (own factory, own ``track`` batcher)."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"site runtime {self.site_id!r} is closed")
            if self._sessions is None:
                config = dict(self._track_config)
                config.setdefault("bounds", self.definition.bounds)
                self._sessions = TrackingSessions(
                    self.service, clock=self._clock, **config
                ).start()
            return self._sessions

    def drift_monitor(self) -> APDriftMonitor:
        """This site's RSSI drift monitor, judged against the served survey.

        Labelled with ``site_label`` and per-AP-capped so fleet
        ``/metrics`` stays bounded (``sites × cap`` series, not
        ``sites × APs``).  A reload swaps the survey, so the next call
        starts a fresh monitor and live window against the new one.
        """
        db = self.service.model().db
        with self._lock:
            if self._drift is None or self._drift.db is not db:
                self._drift = APDriftMonitor(db, site=self._site_label)
            return self._drift

    def rebind_sessions(self) -> Optional[Dict[str, int]]:
        """Re-point live trackers after a reload; None if never tracked."""
        with self._lock:
            sessions = self._sessions
        if sessions is None:
            return None
        return sessions.rebind()

    def describe(self) -> Dict[str, object]:
        info = self.service.describe()
        info["site"] = self.site_id
        return info

    def drain(self) -> None:
        """Stop started dispatchers (accepted work finishes first).

        The session store stays readable: tracking reads and closes
        keep answering from it while a server drains.
        """
        with self._lock:
            started = [d for d in (self._batcher, self._sessions) if d is not None]
        for dispatcher in started:
            dispatcher.stop()

    def close(self) -> None:
        """Drain, then refuse any further use of this runtime."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain()


class _Flight:
    """Single-flight slot: one leader loads, followers wait on the event."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error: Optional[BaseException] = None


class ModelRegistry:
    """Bounded LRU of resident :class:`SiteRuntime`\\ s, keyed by site id.

    Parameters
    ----------
    sites:
        ``{site_id: SiteDefinition}``, or a fleet directory / manifest
        path (anything :func:`load_fleet` accepts).
    capacity:
        Max resident sites.  Pinned runtimes may overflow this
        temporarily — correctness (never unload in-flight work) beats
        the bound; the overflow is trimmed at the next release.
    default_site:
        Site the unprefixed routes (``/v1/locate``...) alias.  Defaults
        to the manifest's ``default`` (or the lexicographically first
        site).
    service_kwargs:
        Extra :class:`LocalizationService` keywords applied to every
        site build (e.g. ``breakers=False``, ``chaos=policy``).

    Each site's :class:`MicroBatcher` / :class:`TrackingSessions` knobs
    and clock come from :meth:`configure_runtimes`.
    """

    def __init__(
        self,
        sites: Union[str, os.PathLike, Dict[str, SiteDefinition]],
        capacity: int = 8,
        default_site: Optional[str] = None,
        service_kwargs: Optional[Dict[str, object]] = None,
    ):
        if isinstance(sites, (str, os.PathLike)):
            sites, manifest_default = load_fleet(sites)
            if default_site is None:
                default_site = manifest_default
        if not sites:
            raise ValueError("a ModelRegistry needs at least one site")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sites: Dict[str, SiteDefinition] = dict(sites)
        if default_site is None:
            default_site = sorted(self._sites)[0]
        if default_site not in self._sites:
            raise UnknownSiteError(default_site, tuple(sorted(self._sites)))
        self.capacity = int(capacity)
        self.default_site = default_site
        self._clock = None
        self._batch_config: Dict[str, object] = {}
        self._track_config: Dict[str, object] = {}
        self._service_kwargs = dict(service_kwargs or {})
        # Ready services the first load adopts instead of building one
        # (see from_service).
        self._prebuilt: Dict[str, LocalizationService] = {}
        self._lock = threading.Lock()
        self._resident: "OrderedDict[str, SiteRuntime]" = OrderedDict()
        self._loading: Dict[str, _Flight] = {}
        self._generations: Dict[str, int] = {}
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._loads = 0
        self._evictions = 0
        self._closed = False

    @classmethod
    def from_service(cls, service: LocalizationService) -> "ModelRegistry":
        """A one-site registry around an already-built service.

        The site is :func:`one_site_fleet`'s for the service's database.
        Its first load adopts ``service`` itself — same model,
        generation and breaker board — so every answer is the service's
        own; a lone site is never evicted, so it is never rebuilt.
        """
        model = service.model()
        registry = cls(one_site_fleet(
            model.database_path or model.db,
            service.algorithm,
            service.ap_positions,
            service.bounds,
        ))
        registry._prebuilt[registry.default_site] = service
        return registry

    def configure_runtimes(
        self,
        batch_config: Optional[Dict[str, object]] = None,
        track_config: Optional[Dict[str, object]] = None,
        clock=None,
    ) -> "ModelRegistry":
        """Set each site runtime's batcher/tracking keywords and clock.

        The HTTP server pushes its batching/tracking flags here before
        the first site loads, so one ``ModelRegistry(path)`` plus the
        usual server flags configures the whole fleet.  The first value
        set for a key (or the clock) wins; later calls only fill gaps.
        """
        for key, value in (batch_config or {}).items():
            self._batch_config.setdefault(key, value)
        for key, value in (track_config or {}).items():
            self._track_config.setdefault(key, value)
        if clock is not None and self._clock is None:
            self._clock = clock
        return self

    # -- fleet introspection ---------------------------------------------
    def site_ids(self) -> List[str]:
        return sorted(self._sites)

    def __contains__(self, site_id: str) -> bool:
        return site_id in self._sites

    def __len__(self) -> int:
        with self._lock:
            return len(self._resident)

    def site_label(self, site_id: str) -> Optional[str]:
        """The ``site`` label of ``site_id``'s request and dispatcher series.

        None in a one-site fleet: request labels and span attributes
        then carry no ``site``, and its dispatchers are named ``http``
        and ``track`` rather than ``http@<site>`` and ``track@<site>``
        — the series names a one-building server has always exported.
        """
        return site_id if len(self._sites) > 1 else None

    def resolve(self, site_id: Optional[str]) -> str:
        """Map ``None`` → default site; unknown ids raise."""
        if site_id is None:
            return self.default_site
        if site_id not in self._sites:
            raise UnknownSiteError(site_id, tuple(sorted(self._sites)))
        return site_id

    def generation_of(self, site_id: str) -> int:
        """Last known generation for a site (0 if never loaded)."""
        with self._lock:
            return self._generations.get(site_id, 0)

    # -- acquire / release -----------------------------------------------
    def acquire(self, site_id: Optional[str] = None) -> SiteRuntime:
        """Pin and return the site's runtime, loading it if cold.

        Every ``acquire`` must be paired with :meth:`release` (or use
        :meth:`lease`): the pin is what keeps the runtime safe from
        eviction while a request is in flight on it.
        """
        sid = self.resolve(site_id)
        waited = False
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError("ModelRegistry is closed")
                runtime = self._resident.get(sid)
                if runtime is not None:
                    self._resident.move_to_end(sid)
                    runtime.pins += 1
                    # Exactly one requests increment per acquire: hit
                    # (was resident), coalesced (waited on another's
                    # load) or miss (did the load itself).
                    if waited:
                        self._coalesced += 1
                        cache = "coalesced"
                    else:
                        self._hits += 1
                        cache = "hit"
                    obs.counter("serve.site.requests", site=sid, cache=cache).inc()
                    return runtime
                flight = self._loading.get(sid)
                if flight is None:
                    flight = _Flight()
                    self._loading[sid] = flight
                    leader = True
                    self._misses += 1
                else:
                    leader = False
            if leader:
                obs.counter("serve.site.requests", site=sid, cache="miss").inc()
                return self._load(sid, flight)
            # Follower: wait for the leader's load, then retry the LRU —
            # the herd pays one model fit, not N.
            waited = True
            flight.event.wait()
            if flight.error is not None:
                raise flight.error

    def release(self, runtime: SiteRuntime) -> None:
        """Unpin; trims any pinned-overflow the bound deferred."""
        victims: List[SiteRuntime] = []
        with self._lock:
            if runtime.pins <= 0:
                raise RuntimeError(
                    f"release without acquire on site {runtime.site_id!r}"
                )
            runtime.pins -= 1
            victims = self._evict_overflow_locked()
        for victim in victims:
            victim.close()

    @contextmanager
    def lease(self, site_id: Optional[str] = None) -> Iterator[SiteRuntime]:
        runtime = self.acquire(site_id)
        try:
            yield runtime
        finally:
            self.release(runtime)

    # -- loading ----------------------------------------------------------
    def _build_runtime(self, sid: str) -> SiteRuntime:
        """Build + warm one site's service.  Runs *outside* the registry
        lock: a cold-site fit never stalls warm-site acquires."""
        definition = self._sites[sid]
        with self._lock:
            base = self._generations.get(sid, 0)
            service = self._prebuilt.pop(sid, None)
        if service is None:
            service = LocalizationService(
                definition.database,
                algorithm=definition.algorithm,
                ap_positions=definition.ap_positions,
                bounds=definition.bounds,
                generation_base=base,
                **self._service_kwargs,
            )
        label = self.site_label(sid)
        suffix = "" if label is None else f"@{label}"
        return SiteRuntime(
            definition,
            service,
            batch_config={**self._batch_config, "name": "http" + suffix},
            track_config={**self._track_config, "name": "track" + suffix},
            clock=self._clock,
            site_label=label,
        )

    def _load(self, sid: str, flight: _Flight) -> SiteRuntime:
        started = time.perf_counter()
        try:
            with obs.span("serve.site_load", site=sid):
                runtime = self._build_runtime(sid)
        except BaseException as exc:
            with self._lock:
                self._loading.pop(sid, None)
                flight.error = exc
            flight.event.set()
            obs.counter("serve.site.loads", site=sid, result="failed").inc()
            raise
        victims: List[SiteRuntime] = []
        with self._lock:
            self._loading.pop(sid, None)
            runtime.pins += 1  # the leader's own lease
            self._resident[sid] = runtime
            self._resident.move_to_end(sid)
            self._generations[sid] = runtime.generation
            self._loads += 1
            victims = self._evict_overflow_locked()
            resident = len(self._resident)
        flight.event.set()
        for victim in victims:
            victim.close()
        obs.counter("serve.site.loads", site=sid, result="ok").inc()
        obs.histogram("serve.site_load_ms").observe(
            (time.perf_counter() - started) * 1000.0
        )
        obs.gauge("serve.sites.resident").set(resident)
        return runtime

    def _evict_overflow_locked(self) -> List[SiteRuntime]:
        """LRU-evict unpinned runtimes down to capacity (lock held).

        Returns the victims; the caller closes them *after* dropping
        the lock (close drains dispatcher threads — never hold the
        registry lock across that).
        """
        victims: List[SiteRuntime] = []
        if len(self._resident) <= self.capacity:
            return victims
        for sid in list(self._resident):  # oldest first
            if len(self._resident) <= self.capacity:
                break
            runtime = self._resident[sid]
            if runtime.pins > 0:
                continue  # in-flight work: never unload
            del self._resident[sid]
            victims.append(runtime)
            self._evictions += 1
            obs.counter("serve.site.evictions", site=sid).inc()
        if victims:
            obs.gauge("serve.sites.resident").set(len(self._resident))
        return victims

    # -- reload ------------------------------------------------------------
    def reload(
        self, site_id: Optional[str] = None, database: Optional[str] = None
    ) -> Dict[str, object]:
        """Hot-reload one site's model (loading the site first if cold).

        With ``database`` the site's definition is repointed too, so a
        later evict + cold load rebuilds from the *new* pack rather
        than silently reverting.  Live trackers on the site rebind to
        the fresh generation, keeping their filter state where they can.
        """
        with self.lease(site_id) as runtime:
            info = runtime.service.reload(database)
            if database is not None:
                runtime.definition.database = str(database)
            rebound = runtime.rebind_sessions()
            with self._lock:
                self._generations[runtime.site_id] = runtime.generation
            info = dict(info)
            info["site"] = runtime.site_id
            if rebound is not None:
                info["sessions"] = rebound
            return info

    # -- lifecycle ---------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-safe registry card (``GET /v1/sites``, CLI status)."""
        with self._lock:
            resident = [
                {
                    "site": sid,
                    "generation": self._generations.get(sid, 0),
                    "pins": runtime.pins,
                }
                for sid, runtime in self._resident.items()  # LRU → MRU
            ]
            loading = sorted(self._loading)
            counters = {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
                "loads": self._loads,
                "evictions": self._evictions,
            }
            generations = dict(self._generations)
        return {
            "capacity": self.capacity,
            "default": self.default_site,
            "sites": self.site_ids(),
            "resident": resident,
            "loading": loading,
            "generations": generations,
            **counters,
        }

    def resident(self) -> List[SiteRuntime]:
        """The resident runtimes, LRU first.

        Unpinned: a snapshot for reporting (``/healthz``), not a lease —
        a runtime in it may be evicted while the caller reads it.
        """
        with self._lock:
            return list(self._resident.values())

    def drain(self) -> None:
        """Stop every resident runtime's dispatchers, keeping them resident.

        Accepted work finishes first.  Unlike :meth:`close` the registry
        stays open, so a draining server still answers tracking reads
        and closes from the session stores.
        """
        for runtime in self.resident():
            runtime.drain()

    def close(self) -> None:
        """Stop every resident runtime (drains their dispatchers)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            victims = list(self._resident.values())
            self._resident.clear()
        for victim in victims:
            victim.close()
        obs.gauge("serve.sites.resident").set(0)

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
