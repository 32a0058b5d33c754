"""Quality telemetry: is live RSSI still the RSSI we trained on?

Fingerprinting dies silently: an AP gets moved, replaced, or its power
level changes, live RSSI drifts away from the training database, and
accuracy decays with no error anywhere — the dominant failure mode the
RADAR and Horus lines of work both call out.  This module watches for
it at serve time:

* :class:`APDriftMonitor` — per-AP live-vs-training health.  Live
  observations stream in; per AP it tracks the **mean shift** (live
  mean minus the training mean from
  ``TrainingDatabase.mean_matrix()``) and a **KS-style distribution
  distance** (sup-norm between the live empirical CDF and the training
  reference CDF, a per-location Gaussian mixture built from
  ``mean_matrix``/``std_matrix``).  Crossing either threshold marks
  the AP *drifted* and increments ``quality.drift_alerts{ap=...}``.
  ``repro serve`` keeps one monitor per resident site, feeds it every
  scan the site decodes, and reports :meth:`APDriftMonitor.health` per
  site in the ``rssi_drift`` check of ``/healthz``.

Unlike the rest of :mod:`repro.obs` this module uses numpy (it reasons
about RSSI matrices); it is therefore *not* imported by
``repro.obs.__init__`` — import it explicitly::

    from repro.obs.quality import APDriftMonitor
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _metrics

__all__ = ["APDriftMonitor"]


def _gaussian_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class APDriftMonitor:
    """Streaming per-AP drift detection against a training database.

    Parameters
    ----------
    db:
        A fitted :class:`~repro.core.trainingdb.TrainingDatabase` (duck
        typed: needs ``bssids``, ``mean_matrix()``, ``std_matrix()``).
    mean_shift_db:
        Absolute live-vs-training mean divergence (dB) that marks an AP
        drifted.  6 dB ≈ halving/doubling received power twice over.
    ks_threshold:
        KS-style distance (sup-norm of CDF difference, in [0, 1]) that
        marks an AP drifted even when means agree (e.g. a bimodal live
        distribution from an AP now heard through a new wall).
    min_samples:
        Per-AP live readings required before the AP is judged at all —
        below it the AP reports ``insufficient data`` and never trips.
    bin_width_db / rssi_range:
        Fixed binning grid for the live empirical distribution.  2 dB
        bins over [-100, -20] dBm keep state tiny (40 ints per AP) and
        bound the CDF discretization error well under any sane
        ``ks_threshold``.
    site:
        Optional site id: every emitted ``quality.*`` series gains a
        ``site`` label (fleet mode) and a ``quality.drifted_aps{site=}``
        summary gauge is kept.  Without it, series names are exactly
        the single-site ones.
    max_ap_series:
        Cardinality cap on the per-AP gauge/alert series this monitor
        emits per scrape.  With more judged APs than the cap, only the
        ``max_ap_series`` most severe (mean shift and KS distance
        measured in units of their thresholds) get per-AP series — so
        a fleet's ``/metrics`` grows as ``sites × cap``, never
        ``sites × APs``.  The :meth:`status` report itself always
        covers every AP; ``None`` disables the cap.
    """

    def __init__(
        self,
        db,
        mean_shift_db: float = 6.0,
        ks_threshold: float = 0.35,
        min_samples: int = 50,
        bin_width_db: float = 2.0,
        rssi_range: Tuple[float, float] = (-100.0, -20.0),
        min_std: float = 0.5,
        site: Optional[str] = None,
        max_ap_series: Optional[int] = 12,
    ):
        if mean_shift_db <= 0 or not 0 < ks_threshold <= 1:
            raise ValueError(
                f"thresholds out of range: mean_shift_db={mean_shift_db}, "
                f"ks_threshold={ks_threshold}"
            )
        lo, hi = rssi_range
        if hi <= lo or bin_width_db <= 0:
            raise ValueError(f"bad binning: range={rssi_range}, width={bin_width_db}")
        if max_ap_series is not None and max_ap_series < 1:
            raise ValueError(f"max_ap_series must be >= 1 or None, got {max_ap_series}")
        self.db = db
        self.bssids: List[str] = list(db.bssids)
        self.mean_shift_db = float(mean_shift_db)
        self.ks_threshold = float(ks_threshold)
        self.min_samples = int(min_samples)
        self.min_std = float(min_std)
        self.site = site
        self.max_ap_series = max_ap_series
        self._lo = float(lo)
        self._width = float(bin_width_db)
        self._n_bins = int(math.ceil((hi - lo) / bin_width_db))
        # Handler threads feed the window while /healthz judges it.
        self._lock = threading.Lock()
        # The training reference is built by the first status() that
        # judges an AP: constructing a monitor (a cold site load on the
        # request path) only allocates the zeroed live window below.
        self.train_mean: Optional[np.ndarray] = None
        self.train_cdf: Optional[np.ndarray] = None

        # live accumulation
        A = len(self.bssids)
        self._n = np.zeros(A, dtype=np.int64)
        self._sum = np.zeros(A)
        self._hist = np.zeros((A, self._n_bins), dtype=np.int64)
        self._drifted = np.zeros(A, dtype=bool)

    def _build_reference(self) -> None:
        """Training means and reference CDFs (lock held; runs once)."""
        mean = np.asarray(self.db.mean_matrix(), dtype=float)  # (L, A)
        std = np.asarray(self.db.std_matrix(self.min_std), dtype=float)
        heard = np.isfinite(mean)
        counts = heard.sum(axis=0)
        self.train_mean = np.where(
            counts > 0,
            np.where(heard, mean, 0.0).sum(axis=0) / np.maximum(counts, 1),
            np.nan,
        )
        # Reference CDF at each bin's upper edge: an equal-weight
        # Gaussian mixture over the training locations that heard the
        # AP — exactly the distribution the probabilistic localizer
        # scores against, so "drifted" means "the model's world moved".
        edges = self._lo + self._width * np.arange(1, self._n_bins + 1)
        train_cdf = np.full((len(self.bssids), self._n_bins), np.nan)
        for a in range(len(self.bssids)):
            rows = np.nonzero(heard[:, a])[0]
            if rows.size == 0:
                continue
            for e, edge in enumerate(edges):
                acc = 0.0
                for l in rows:
                    acc += _gaussian_cdf((edge - mean[l, a]) / std[l, a])
                train_cdf[a, e] = acc / rows.size
        self.train_cdf = train_cdf

    # ------------------------------------------------------------------
    def _aligned(self, observation) -> np.ndarray:
        """The ``(sweeps, aps)`` matrix in training column order (or ValueError)."""
        samples = observation
        if hasattr(samples, "samples"):
            if getattr(samples, "bssids", None) and list(samples.bssids) != self.bssids:
                samples = samples.reordered(self.bssids)
            samples = samples.samples
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != len(self.bssids):
            raise ValueError(
                f"observation has {samples.shape[1]} AP columns, "
                f"monitor expects {len(self.bssids)}"
            )
        return samples

    def _fold(self, samples: np.ndarray) -> None:
        finite = np.isfinite(samples)
        rows, cols = np.nonzero(finite)
        # Clip before the integer cast, which an absurd reading overflows.
        bins = np.clip(
            (samples[rows, cols] - self._lo) / self._width, 0, self._n_bins - 1
        ).astype(int)
        with self._lock:
            self._n += finite.sum(axis=0)
            self._sum += np.where(finite, samples, 0.0).sum(axis=0)
            np.add.at(self._hist, (cols, bins), 1)

    def observe(self, observation) -> None:
        """Feed one live observation (or a raw ``(sweeps, aps)`` matrix).

        Observations carrying BSSIDs are aligned to the training column
        order; bare matrices are trusted to already be in it.
        """
        self._fold(self._aligned(observation))

    def observe_many(self, observations: Sequence) -> None:
        """Feed a request's observations, all rows folded in one pass.

        Skips (rather than raises on) a scan it cannot align: the
        serving path feeds every decoded scan, and must never fail.
        """
        aligned = []
        for observation in observations:
            try:
                aligned.append(self._aligned(observation))
            except ValueError:
                continue
        if aligned:
            self._fold(np.concatenate(aligned))

    # ------------------------------------------------------------------
    def status(self, emit: bool = True) -> Dict[str, Dict[str, object]]:
        """Per-AP drift report; also emits gauges/alert counters.

        Alert counters fire on the *transition* into drifted (one alert
        per incident, not per scrape); gauges always reflect the latest
        computed shift/distance.  Per-AP series respect the
        ``max_ap_series`` cap — the report covers every AP regardless,
        so nothing is lost, only the exposition is bounded.
        """
        with self._lock:
            report: Dict[str, Dict[str, object]] = {}
            judged: List[Tuple[str, float, float, bool, bool]] = []
            for a, bssid in enumerate(self.bssids):
                entry: Dict[str, object] = {"n": int(self._n[a])}
                if self._n[a] < self.min_samples:
                    entry["judged"] = False
                    entry["drifted"] = False
                    report[bssid] = entry
                    continue
                if self.train_cdf is None:
                    self._build_reference()
                live_mean = self._sum[a] / self._n[a]
                shift = live_mean - self.train_mean[a]
                live_cdf = np.cumsum(self._hist[a]) / self._n[a]
                if np.all(np.isfinite(self.train_cdf[a])):
                    ks = float(np.max(np.abs(live_cdf - self.train_cdf[a])))
                else:
                    ks = math.nan  # AP never heard in training: mean test only
                drifted = bool(
                    (math.isfinite(shift) and abs(shift) > self.mean_shift_db)
                    or (math.isfinite(ks) and ks > self.ks_threshold)
                )
                entry.update(
                    judged=True,
                    live_mean_dbm=float(live_mean),
                    train_mean_dbm=float(self.train_mean[a])
                    if math.isfinite(self.train_mean[a])
                    else None,
                    mean_shift_db=float(shift) if math.isfinite(shift) else None,
                    ks_distance=ks if math.isfinite(ks) else None,
                    drifted=drifted,
                )
                report[bssid] = entry
                judged.append((bssid, shift, ks, drifted, drifted and not self._drifted[a]))
                self._drifted[a] = drifted
            if emit:
                self._emit(judged)
            return report

    def _severity(self, shift: float, ks: float) -> float:
        """How far past its thresholds an AP is (unitless, max of both)."""
        s = abs(shift) / self.mean_shift_db if math.isfinite(shift) else 0.0
        k = ks / self.ks_threshold if math.isfinite(ks) else 0.0
        return max(s, k)

    def _emit(self, judged: List[Tuple[str, float, float, bool, bool]]) -> None:
        labels: Dict[str, str] = {"site": self.site} if self.site is not None else {}
        emitted = judged
        if self.max_ap_series is not None and len(judged) > self.max_ap_series:
            # Bounded exposition: only the most severe APs get per-AP
            # series.  (A previously emitted AP that drops out of the
            # top-K keeps its last gauge value — read the cap as "the
            # K series worth watching", not a complete census.)
            emitted = sorted(
                judged,
                key=lambda j: self._severity(j[1], j[2]),
                reverse=True,
            )[: self.max_ap_series]
        visible = {j[0] for j in emitted}
        for bssid, shift, ks, drifted, transition in judged:
            if bssid in visible:
                if math.isfinite(shift):
                    _metrics.gauge(
                        "quality.ap_mean_shift_db", ap=bssid, **labels
                    ).set(shift)
                if math.isfinite(ks):
                    _metrics.gauge(
                        "quality.ap_ks_distance", ap=bssid, **labels
                    ).set(ks)
                if transition:
                    _metrics.counter("quality.drift_alerts", ap=bssid, **labels).inc()
            if transition:
                # The aggregate alert never misses an incident, capped
                # per-AP series or not.
                _metrics.counter("quality.alert", kind="rssi_drift").inc()
        if self.site is not None:
            _metrics.gauge("quality.drifted_aps", site=self.site).set(
                sum(1 for j in judged if j[3])
            )

    def drifted_aps(self) -> List[str]:
        status = self.status()
        return [b for b, e in status.items() if e.get("drifted")]

    def health(self) -> Tuple[bool, Dict[str, object]]:
        """(ok, detail): ok while no judged AP has drifted.

        ``detail`` counts the APs and the judged ones, and lists the
        drifted ones with the thresholds that judged them.
        """
        status = self.status()
        drifted = [b for b, e in status.items() if e.get("drifted")]
        judged = sum(1 for e in status.values() if e.get("judged"))
        detail = {
            "aps": len(self.bssids),
            "aps_judged": judged,
            "drifted": drifted,
            "thresholds": {
                "mean_shift_db": self.mean_shift_db,
                "ks_distance": self.ks_threshold,
            },
        }
        return not drifted, detail

    def reset(self) -> None:
        """Forget the live window (e.g. after re-surveying the site)."""
        with self._lock:
            self._n[:] = 0
            self._sum[:] = 0.0
            self._hist[:] = 0
            self._drifted[:] = False

