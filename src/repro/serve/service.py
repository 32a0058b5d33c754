"""Model lifecycle for the localization service.

:class:`LocalizationService` owns the fitted localizer a server
dispatches against: it loads a training database, builds and fits the
configured algorithm (the degraded-mode fallback chain by default),
and exposes *atomic hot-reload* — ``reload()`` builds and fits a
complete replacement model off to the side and only then swaps one
reference, so in-flight requests keep scoring against a consistent
model and a failed reload leaves the old model serving.  Dispatch
never takes the reload lock; it reads one attribute.

Resilience: when the model is a fallback chain, each tier runs behind
a per-tier circuit breaker (:class:`~repro.serve.resilience.TierBreakerBoard`)
— a tier that keeps *raising* is skipped for a cooldown instead of
being paid for on every request, and its state rides ``/healthz``.
The board outlives hot-reloads on purpose: a reload that did not fix
a wedged tier should not reset its quarantine.  A
:class:`~repro.serve.resilience.ChaosPolicy` with tier faults wraps
the fitted tiers in :class:`~repro.serve.resilience.ChaosTier`
proxies, so injected failures exercise exactly the breaker path real
failures would.

The service is transport-agnostic: :mod:`repro.serve.http` puts it
behind HTTP, tests and benches call :meth:`locate_many` directly.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.algorithms.base import (
    LocationEstimate,
    Localizer,
    Observation,
    make_localizer,
)
from repro.algorithms.fallback import FallbackLocalizer
from repro.core.trainingdb import TrainingDatabase
from repro.serve.resilience import ChaosPolicy, ChaosTier, TierBreakerBoard

__all__ = ["LocalizationService"]


class _Model:
    """One immutable generation: a fitted localizer and its provenance."""

    __slots__ = ("localizer", "db", "database_path", "generation")

    def __init__(self, localizer: Localizer, db: TrainingDatabase,
                 database_path: Optional[str], generation: int):
        self.localizer = localizer
        self.db = db
        self.database_path = database_path
        self.generation = generation


class LocalizationService:
    """Load/warm/serve/reload a fitted localizer.

    Parameters
    ----------
    database:
        Path to a ``.tdb`` training database, or an already-loaded
        :class:`TrainingDatabase` (tests, benches).
    algorithm:
        Registry name (default ``"fallback"`` — the degraded-mode
        chain, the right default for a service that must answer).
    ap_positions, bounds:
        Forwarded to localizers that want ranging geometry / site
        bounds (``fallback``, ``geometric``, ``multilateration``).
    warm:
        Fit (and thereby precompute every kernel's fitted arrays) at
        construction time so the first request pays nothing.
    breakers:
        Per-tier circuit breakers around the fallback chain (default
        on; pass ``None``/``False`` to disable, or a ready
        :class:`~repro.serve.resilience.TierBreakerBoard` to share one).
        With breakers closed the chain's answers are byte-identical to
        the unguarded chain — the wire-parity suite enforces that.
    chaos:
        Optional :class:`~repro.serve.resilience.ChaosPolicy`; when its
        ``tier_error_rate`` is set, fitted fallback tiers are wrapped
        in fault-injecting proxies (tests, benches, ``--chaos``).
    generation_base:
        Starting point for the generation counter (first build is
        ``generation_base + 1``).  The multi-site
        :class:`~repro.serve.registry.ModelRegistry` seeds this with the
        site's last known generation so evict + reload keeps the
        per-site sequence strictly monotonic.
    """

    def __init__(
        self,
        database: Union[str, TrainingDatabase],
        algorithm: str = "fallback",
        ap_positions: Optional[Dict[str, object]] = None,
        bounds=None,
        warm: bool = True,
        breakers: Union[TierBreakerBoard, bool, None] = True,
        chaos: Optional[ChaosPolicy] = None,
        generation_base: int = 0,
    ):
        self.algorithm = algorithm
        self.ap_positions = ap_positions
        self.bounds = bounds
        self._reload_lock = threading.Lock()
        self._model: Optional[_Model] = None
        self._generation = int(generation_base)
        self._initial: Union[str, TrainingDatabase, None] = database
        if isinstance(breakers, TierBreakerBoard):
            self.breaker_board: Optional[TierBreakerBoard] = breakers
        else:
            self.breaker_board = TierBreakerBoard() if breakers else None
        self.chaos = chaos
        if warm:
            self.reload(database)

    # -- model lifecycle -------------------------------------------------
    def _build(self, database: Union[str, TrainingDatabase]) -> _Model:
        if isinstance(database, TrainingDatabase):
            db, path = database, None
        else:
            path = str(database)
            # Magic-sniffing load: a frozen pack (.tdbx) opens as
            # read-only mmap views — no zlib.decompress, no per-record
            # copies on the serving path — so a hot reload of a pack is
            # "open, verify checksums, swap one reference".
            from repro.core.frozenpack import load_database

            db = load_database(path)
        kwargs: Dict[str, object] = {}
        if self.algorithm in ("geometric", "multilateration"):
            if self.ap_positions is None:
                raise ValueError(f"algorithm {self.algorithm!r} needs ap_positions")
            kwargs["ap_positions"] = self.ap_positions
        elif self.algorithm == "fallback":
            if self.ap_positions is not None:
                kwargs["ap_positions"] = self.ap_positions
            if self.bounds is not None:
                kwargs["bounds"] = self.bounds
        with obs.span("serve.model_fit", algorithm=self.algorithm):
            localizer = make_localizer(self.algorithm, **kwargs).fit(db)
        if isinstance(localizer, FallbackLocalizer):
            if self.chaos is not None and self.chaos.tier_error_rate > 0:
                localizer._fitted = [
                    ChaosTier(tier, self.chaos) for tier in localizer._fitted
                ]
            localizer.tier_guard = self.breaker_board
        self._generation += 1
        return _Model(localizer, db, path, self._generation)

    def reload(self, database: Union[str, TrainingDatabase, None] = None) -> Dict[str, object]:
        """Build + fit a replacement model, then swap it in atomically.

        ``database=None`` re-reads the current model's database path
        (picking up a regenerated ``.tdb`` in place).  Any failure —
        unreadable file, un-fittable model — raises *without touching*
        the serving model; the swap is the last statement.
        """
        with self._reload_lock:
            if database is None:
                if self._model is not None and self._model.database_path is not None:
                    database = self._model.database_path
                elif self._model is None and self._initial is not None:
                    database = self._initial  # warm=False: first explicit load
                else:
                    raise ValueError("no database path to reload from; pass one")
            try:
                model = self._build(database)
            except Exception:
                obs.counter("serve.reloads", result="failed").inc()
                raise
            self._model = model  # the atomic swap: one reference store
            obs.counter("serve.reloads", result="ok").inc()
            obs.gauge("serve.model_generation").set(model.generation)
            obs.gauge("serve.model_locations").set(len(model.db))
            obs.gauge("serve.model_aps").set(len(model.db.bssids))
            return self.describe()

    def model(self) -> _Model:
        model = self._model
        if model is None:
            raise RuntimeError("LocalizationService has no model; call reload()")
        return model

    @property
    def loaded(self) -> bool:
        return self._model is not None

    def describe(self) -> Dict[str, object]:
        """JSON-safe model card (served on ``GET /`` and after reload)."""
        model = self.model()
        info: Dict[str, object] = {
            "algorithm": self.algorithm,
            "database": model.database_path,
            "generation": model.generation,
            "locations": len(model.db),
            "aps": len(model.db.bssids),
            "frozen": getattr(model.db, "frozen_pack", None) is not None,
        }
        if isinstance(model.localizer, FallbackLocalizer):
            info["tiers"] = [
                getattr(t, "name", "") or type(t).__name__
                for t in model.localizer._fitted or []
            ]
            if model.localizer.fit_errors:
                info["tier_fit_errors"] = dict(model.localizer.fit_errors)
        return info

    # -- dispatch --------------------------------------------------------
    def locate_many(self, observations: Sequence[Observation]) -> List[LocationEstimate]:
        """Score a batch against the current model generation.

        The model reference is read once, so a concurrent reload cannot
        split one batch across two generations.
        """
        return self.model().localizer.locate_many(observations)

    def health_check(self):
        """(ok, detail) for /healthz: a loaded, fitted model."""
        if not self.loaded:
            return False, "no model loaded"
        return True, self.describe()

    def breaker_health(self):
        """(ok, detail) for /healthz: per-tier circuit-breaker states.

        Degraded only when every tier's breaker is open (the chain can
        no longer answer from anywhere); one open breaker is a detail,
        not an ejection — lower tiers are still serving.
        """
        if self.breaker_board is None:
            return True, "breakers disabled"
        return self.breaker_board.health()
