"""The localizer interface and the observation/estimate types.

The paper's two-phase structure (§3) is the interface:

* **Phase 1 (training)** — :meth:`Localizer.fit` consumes a
  :class:`~repro.core.trainingdb.TrainingDatabase` and learns "certain
  mapping relationship between the locations and signal strengths".
* **Phase 2 (working)** — :meth:`Localizer.locate` consumes one
  :class:`Observation` (a window of scan sweeps at the unknown spot)
  and returns a :class:`LocationEstimate`.

Algorithms register themselves under a short name so experiments and
the CLI can construct them by string (``make_localizer("probabilistic")``).
"""

from __future__ import annotations

import abc
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from repro import obs
from repro.algorithms.engine import run_batched
from repro.core.geometry import Point
from repro.core.trainingdb import TrainingDatabase


def _nan_column_mean(samples: np.ndarray) -> np.ndarray:
    """Column means ignoring NaN, NaN for all-NaN columns — silently.

    Equivalent to ``np.nanmean(..., axis=0)`` without the "Mean of empty
    slice" RuntimeWarning: an AP that was never heard is an expected
    state, not a numerical anomaly.
    """
    finite = np.isfinite(samples)
    counts = finite.sum(axis=0)
    sums = np.where(finite, samples, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


@dataclass(frozen=True)
class Observation:
    """A Phase-2 measurement window at one (unknown) position.

    ``samples`` is an ``(n_sweeps, n_aps)`` matrix in the same BSSID
    column order as the training database, NaN marking misses — the
    toolkit-wide RSSI layout.  Helpers expose the summaries different
    algorithms want: the paper's Phase-2 protocol "uses only the average
    signal strength value" (:meth:`mean_rssi`), while the distribution-
    aware extensions read the full matrix.
    """

    samples: np.ndarray
    bssids: Sequence[str] = ()

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 2:
            raise ValueError(f"observation samples must be 2-D, got shape {arr.shape}")
        if self.bssids and len(self.bssids) != arr.shape[1]:
            raise ValueError(
                f"{len(self.bssids)} BSSIDs for {arr.shape[1]} sample columns"
            )

    @property
    def n_aps(self) -> int:
        return self.samples.shape[1]

    @property
    def n_sweeps(self) -> int:
        return self.samples.shape[0]

    def mean_rssi(self) -> np.ndarray:
        """Per-AP mean over detected sweeps (NaN if never heard)."""
        return _nan_column_mean(self.samples)

    def detection_rate(self) -> np.ndarray:
        if self.n_sweeps == 0:
            return np.zeros(self.n_aps)
        return np.isfinite(self.samples).mean(axis=0)

    def heard_mask(self) -> np.ndarray:
        """Boolean per-AP: heard in at least one sweep."""
        return np.isfinite(self.samples).any(axis=0)

    def truncated(self, n_sweeps: int) -> "Observation":
        """The first ``n_sweeps`` sweeps (averaging-window ablations)."""
        if n_sweeps < 1:
            raise ValueError(f"n_sweeps must be >= 1, got {n_sweeps}")
        return Observation(self.samples[:n_sweeps], self.bssids)

    def reordered(self, bssid_order: Sequence[str]) -> "Observation":
        """Columns permuted into ``bssid_order``.

        Requires this observation to carry BSSIDs.  Target BSSIDs absent
        from the observation become all-NaN columns (AP never heard);
        observation columns absent from the target are dropped.  This is
        how localizers align a wild observation to their training
        database's column order.
        """
        if not self.bssids:
            raise ValueError("observation carries no BSSIDs; cannot reorder")
        col = {b: j for j, b in enumerate(self.bssids)}
        out = np.full((self.n_sweeps, len(bssid_order)), np.nan)
        for j, b in enumerate(bssid_order):
            src = col.get(b)
            if src is not None:
                out[:, j] = self.samples[:, src]
        return Observation(out, bssids=list(bssid_order))


@dataclass(frozen=True)
class LocationEstimate:
    """A Phase-2 answer.

    ``position`` is the coordinate estimate (feet).  ``location_name``
    is set when the algorithm answers in training-point/location terms
    (the probabilistic approach "does not return the coordinate values
    of the observed location, but returns the most approximate training
    location instead").  ``score`` is algorithm-specific confidence
    (likelihood, inverse distance, vote share); ``valid`` mirrors the
    paper's notion of an estimation that the system is willing to report
    at all.
    """

    position: Optional[Point]
    location_name: Optional[str] = None
    score: float = 0.0
    valid: bool = True
    details: Dict[str, object] = field(default_factory=dict)

    def error_to(self, true_position: Point) -> float:
        """Euclidean deviation (ft); +inf for invalid/position-less answers."""
        if not self.valid or self.position is None:
            return float("inf")
        return self.position.distance_to(true_position)


def invalid_estimate(reason: str, **details) -> LocationEstimate:
    """A positionless, invalid estimate carrying a machine-readable reason.

    The toolkit-wide convention for declining to answer: ``reason`` goes
    in ``details["reason"]`` where the CLI, the fallback chain and the
    benchmarks all look for it.
    """
    return LocationEstimate(
        position=None, valid=False, details={"reason": reason, **details}
    )


def _algorithm_label(localizer: "Localizer") -> str:
    return localizer.name or type(localizer).__name__


def _count_estimate(label: str, estimate: LocationEstimate) -> None:
    obs.counter("locate.valid" if estimate.valid else "locate.invalid", algorithm=label).inc()


def _instrument_locate(fn: Callable) -> Callable:
    """Wrap a ``locate`` implementation with latency + validity metrics.

    Requests served through :meth:`Localizer.locate_many` suppress the
    per-call emission (``_obs_in_batch``) so each observation is counted
    exactly once whether it arrives singly or in a batch; nested tiers
    (the fallback chain calling its member localizers) are separate
    objects and keep their own per-algorithm series.
    """

    @functools.wraps(fn)
    def locate(self, observation):
        if getattr(self, "_obs_in_batch", False):
            return fn(self, observation)
        label = _algorithm_label(self)
        with obs.span(f"locate.{label}"):
            t0 = time.perf_counter()
            estimate = fn(self, observation)
        obs.histogram("locate.latency_ms", algorithm=label).observe(
            1000.0 * (time.perf_counter() - t0)
        )
        _count_estimate(label, estimate)
        if estimate.valid:
            obs.histogram("quality.confidence", algorithm=label).observe(estimate.score)
        return estimate

    locate._obs_instrumented = True
    return locate


def _instrument_locate_many(fn: Callable) -> Callable:
    """Wrap a ``locate_many`` with batch latency + per-request validity."""

    @functools.wraps(fn)
    def locate_many(self, observations):
        if getattr(self, "_obs_in_batch", False):
            return fn(self, observations)
        label = _algorithm_label(self)
        self._obs_in_batch = True
        try:
            with obs.span(f"locate_many.{label}"):
                t0 = time.perf_counter()
                estimates = fn(self, observations)
        finally:
            self._obs_in_batch = False
        obs.histogram("locate.batch_ms", algorithm=label).observe(
            1000.0 * (time.perf_counter() - t0)
        )
        obs.counter("locate.batched", algorithm=label).inc(len(estimates))
        # One aggregated emission per batch, not one lookup per estimate:
        # a per-request loop here costs ~5% of the whole PERF-BATCH path.
        n_valid = sum(1 for e in estimates if e.valid)
        if n_valid:
            obs.counter("locate.valid", algorithm=label).inc(n_valid)
            # Estimation-confidence histogram (per localizer): one
            # lookup + one lock for the whole batch via observe_many.
            obs.histogram("quality.confidence", algorithm=label).observe_many(
                e.score for e in estimates if e.valid
            )
        if n_valid != len(estimates):
            obs.counter("locate.invalid", algorithm=label).inc(len(estimates) - n_valid)
        return estimates

    locate_many._obs_instrumented = True
    return locate_many


class Localizer(abc.ABC):
    """Phase-1 fit / Phase-2 locate, the toolkit's algorithm contract.

    Every concrete ``locate``/``locate_many`` override is transparently
    instrumented at class-creation time (latency histograms and
    valid/invalid counters on the global :mod:`repro.obs` registry);
    the raw implementation stays reachable as ``locate.__wrapped__``.
    """

    #: Registry name, set by :func:`register_algorithm`.
    name: str = ""

    #: Re-entrancy flag: True while this object is inside locate_many.
    _obs_in_batch: bool = False

    #: Vectorized single-chunk kernel.  Subclasses define this as a
    #: method ``_locate_chunk(observations) -> List[LocationEstimate]``
    #: (answer-identical, observation for observation, to ``locate``)
    #: and the base ``locate_many`` routes batches through the chunked
    #: engine automatically.  ``None`` falls back to the loop.
    _locate_chunk = None

    #: Per-instance :class:`~repro.algorithms.engine.BatchConfig`
    #: override; ``None`` uses the process-wide default.
    batch_config = None

    #: Kernel-specific cap on the engine chunk size, for kernels whose
    #: per-observation working set is large (e.g. a dense lattice).
    _batch_chunk_cap: Optional[int] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for attr, wrapper in (
            ("locate", _instrument_locate),
            ("locate_many", _instrument_locate_many),
        ):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "_obs_instrumented", False):
                setattr(cls, attr, wrapper(fn))

    @abc.abstractmethod
    def fit(self, db: TrainingDatabase) -> "Localizer":
        """Phase 1: learn the location ↔ signal-strength mapping."""

    @abc.abstractmethod
    def locate(self, observation: Observation) -> LocationEstimate:
        """Phase 2: resolve one observation to a location."""

    def locate_many(self, observations: Sequence[Observation]) -> List[LocationEstimate]:
        """Batch Phase 2: chunked, vectorized scoring.

        Localizers that define ``_locate_chunk`` are evaluated through
        the batched scoring engine (fixed-size chunks bound the working
        set).  Localizers without a kernel fall back to the
        per-observation loop.  Either way, results are answer-identical
        to calling :meth:`locate` per observation.
        """
        observations = list(observations)
        if self._locate_chunk is None:
            return [self.locate(o) for o in observations]
        return run_batched(
            self._locate_chunk,
            observations,
            label=_algorithm_label(self),
            config=self.batch_config,
            max_chunk=self._batch_chunk_cap,
        )

    def _check_fitted(self, attr: str) -> None:
        if not hasattr(self, attr) or getattr(self, attr) is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted — call fit(training_db) first"
            )

    @staticmethod
    def _aligned(observation: Observation, bssids: Sequence[str]) -> Observation:
        """Align an observation's columns to the training BSSID order.

        Observations that carry BSSIDs are permuted to match (scan tools
        list APs in discovery order, which rarely equals survey order);
        bare observations are trusted to already be in training order.
        """
        if observation.bssids and list(observation.bssids) != list(bssids):
            return observation.reordered(bssids)
        return observation

    @staticmethod
    def _mean_rows(
        observations: Sequence[Observation], bssids: Sequence[str]
    ) -> np.ndarray:
        """``(M, A)`` matrix of aligned per-observation mean RSSI.

        Row ``m`` is exactly ``_aligned(observations[m], bssids)
        .mean_rssi()`` — the kernels' shared first step, so batch and
        single paths consume bit-identical inputs.  When every
        observation has the same sweep count (the common bulk-request
        shape) the means are computed as one stacked ``(M, S, A)``
        reduction; numpy's axis reduction order depends only on the
        reduction length, so the stacked sums equal the per-observation
        sums bit for bit.
        """
        aligned = [Localizer._aligned(o, bssids) for o in observations]
        if len(aligned) > 1 and len({a.samples.shape[0] for a in aligned}) == 1:
            stacked = np.stack([a.samples for a in aligned])
            finite = np.isfinite(stacked)
            counts = finite.sum(axis=1)
            sums = np.where(finite, stacked, 0.0).sum(axis=1)
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return np.vstack([a.mean_rssi() for a in aligned])


# The default batch loop is instrumented too, so subclasses that never
# override locate_many still emit batch metrics (their inner locate
# calls are suppressed by the re-entrancy flag — one count per request).
Localizer.locate_many = _instrument_locate_many(Localizer.locate_many)


_REGISTRY: Dict[str, Callable[..., Localizer]] = {}


def register_algorithm(name: str) -> Callable[[Type[Localizer]], Type[Localizer]]:
    """Class decorator: register a localizer under ``name``."""

    def deco(cls: Type[Localizer]) -> Type[Localizer]:
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def make_localizer(name: str, **kwargs) -> Localizer:
    """Construct a registered localizer by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_algorithms() -> List[str]:
    return sorted(_REGISTRY)
