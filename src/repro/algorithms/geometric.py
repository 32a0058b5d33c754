"""The geometric approach (paper §5.2).

Phase 1: fit each AP's inverse-square SS↔distance formula from the
training points (:mod:`repro.algorithms.regression`).  Phase 2, exactly
as the paper walks through it for APs A, B, C, D:

    "the observed signal strength vector <AO, BO, CO, DO> is used to
    calculate the distances to the four APs <dA, dB, dC, dD>.  As
    locations for APs A and B are known, we calculate the intersect
    points P1 of circle (A, dA) and circle (B, dB).  Similarly we can
    get three more intersect points P2 out of dB and dC, P3 out of dC
    and dD, P4 out of dD and dA.  Finally we can get the median point P
    of P1, P2, P3 and P4.  This median point P is the estimated
    location."

Two details the paper leaves implicit, resolved here explicitly:

* a circle pair generically yields **two** intersection points; we keep
  the candidate most consistent with the *other* APs' distance circles
  (smallest sum of absolute radial residuals), a disambiguation any
  working implementation needs;
* noisy distance estimates often produce non-intersecting circles; we
  use :func:`~repro.core.geometry.best_circle_intersection`'s
  least-squares fallback point so the pipeline never dies mid-estimate.

The pairing is the paper's ring ``(1,2), (2,3), …, (n,1)`` over the APs
ordered as configured, generalized to any ``n ≥ 3``.

Phase 2 runs as one array kernel over a batch: rows are grouped by
heard-AP mask (a group shares its ring, centres and concentric pairs)
and every step — ring intersection, the fallback point, candidate
scoring, the median and the radial residual — is a whole-array pass.
:meth:`GeometricLocalizer.locate` is that kernel on one row.  The scalar
helpers in :mod:`repro.core.geometry` remain the reference the kernel is
tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import (
    LocationEstimate,
    Localizer,
    Observation,
    invalid_estimate,
    register_algorithm,
)
from repro.algorithms.regression import (
    FitResult,
    PackedRanging,
    fit_per_ap,
    heard_groups,
)
from repro.core.geometry import Point, geometric_median
from repro.core.trainingdb import TrainingDatabase

#: ``circle_intersections``' length tolerance (tangency, concentricity).
_TOL = 1e-9

#: Signs of the half-chord offset giving a crossing pair's two points.
_CHORD_ENDS = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)


def _median_rows(points: np.ndarray) -> np.ndarray:
    """``(G, k, 2)`` → ``(G, 2)`` componentwise medians (``median_point``)."""
    ordered = np.sort(points, axis=1)
    k = ordered.shape[1]
    if k % 2:
        return ordered[:, k // 2]
    return (ordered[:, k // 2 - 1] + ordered[:, k // 2]) / 2.0


def _geometric_median_rows(points: np.ndarray) -> np.ndarray:
    """``(G, k, 2)`` → ``(G, 2)`` Weiszfeld medians, row by row (ablation)."""
    return np.array(
        [tuple(geometric_median([Point(x, y) for x, y in row])) for row in points.tolist()]
    )


def _ring_points(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``(n, 2)`` centres (ring order), ``(G, n)`` radii → ``(G, k, 2)``.

    One chosen point per ring pair ``(i, i+1 mod n)``: elementwise
    ``best_circle_intersection`` over every pair of every row.  Where
    the circles cross, the chord's two points; at tangency, the foot of
    the chord; otherwise the least-squares point on the line of centres
    (the middle of the gap, or past the nested circle).  Of two crossing
    points the one with the smaller total radial residual against the
    pair's other circles wins (the first on a tie) — in the paper's
    house the wrong one lies outside the building, far from the
    remaining circles.  Pairs whose centres coincide (gap ≤ 1e-12) have
    no usable point and are dropped, as ``best_circle_intersection``
    drops them; ``k`` pairs remain.
    """
    n = len(centers)
    first = np.arange(n)
    second = (first + 1) % n
    others = np.sort((first[:, None] + np.arange(2, n)) % n, axis=1)  # (n, n-2)
    delta = centers[second] - centers[first]
    gap = np.hypot(delta[:, 0], delta[:, 1])
    keep = gap > 1e-12
    first, second, others, gap = first[keep], second[keep], others[keep], gap[keep]
    unit = delta[keep] / gap[:, None]  # (k, 2), first → second
    normal = unit[:, ::-1] * np.array([-1.0, 1.0])  # unit turned +90°
    r1, r2 = radii[:, first], radii[:, second]  # (G, k)
    spread = np.abs(r1 - r2)
    miss = (gap <= _TOL) | (gap > r1 + r2 + _TOL) | (gap < spread - _TOL)
    r1_sq = r1 * r1
    chord = (gap * gap + r1_sq - r2 * r2) / (2.0 * gap)
    h_sq = r1_sq - chord * chord
    scale = np.maximum(np.maximum(np.maximum(1.0, r1), r2), gap)
    crossing = ~miss & (h_sq > (_TOL * scale) ** 2)
    outer = gap + r1
    along = np.where(
        miss,
        np.where(
            gap >= spread,
            (outer - r2) / 2.0,
            np.where(r1 > r2, (outer + r2) / 2.0, (gap - r1 - r2) / 2.0),
        ),
        chord,
    )
    point = centers[first] + unit * along[..., None]  # (G, k, 2)
    offset = normal * np.sqrt(np.maximum(0.0, h_sq))[..., None]
    cands = point + offset * _CHORD_ENDS  # (2, G, k, 2)
    to_others = cands[..., None, :] - centers[others]  # (2, G, k, n-2, 2)
    score = np.abs(
        np.hypot(to_others[..., 0], to_others[..., 1]) - radii[:, others]
    ).sum(axis=-1)  # (2, G, k)
    pick = np.where((score[1] < score[0])[..., None], cands[1], cands[0])
    return np.where(crossing[..., None], pick, point)


@register_algorithm("geometric")
class GeometricLocalizer(Localizer):
    """Inverse-square ranging + ring circle-intersection + median point.

    Parameters
    ----------
    ap_positions:
        BSSID → floor position of each AP (the Floor Plan Processor's
        AP layer provides this).  APs absent from the mapping are
        ignored.
    aggregator:
        ``"median"`` (the paper's componentwise median point, default),
        ``"geometric_median"`` (Weiszfeld; ablation) or ``"centroid"``.
    min_aps:
        Minimum ranged APs for a valid estimate (3 circles define a
        point; the paper's protocol uses 4).
    """

    #: ``(G, k, 2)`` ring points → ``(G, 2)`` position, per aggregator.
    _AGGREGATORS = {
        "median": _median_rows,
        "geometric_median": _geometric_median_rows,
        "centroid": lambda pts: pts.sum(axis=1) / pts.shape[1],
    }

    def __init__(
        self,
        ap_positions: Dict[str, Point],
        aggregator: str = "median",
        min_aps: int = 3,
    ):
        if not ap_positions:
            raise ValueError("geometric localizer needs AP positions")
        if aggregator not in self._AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {aggregator!r}; use one of {sorted(self._AGGREGATORS)}"
            )
        if min_aps < 3:
            raise ValueError(f"min_aps must be >= 3 (circle intersection), got {min_aps}")
        self.ap_positions = dict(ap_positions)
        self.aggregator = aggregator
        self.min_aps = int(min_aps)
        self._fits: Optional[Dict[str, FitResult]] = None
        self._bssids: Optional[List[str]] = None
        self._packed: Optional[PackedRanging] = None
        self._centers: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, db: TrainingDatabase) -> "GeometricLocalizer":
        self._bssids = list(db.bssids)
        self._fits = fit_per_ap(db, self.ap_positions)
        if len(self._fits) < self.min_aps:
            raise ValueError(
                f"only {len(self._fits)} AP(s) produced a usable SS↔distance fit; "
                f"need >= {self.min_aps}"
            )
        # Fit-time precomputation: branch endpoints and coefficients of
        # every fitted AP packed for the vectorized RSSI→distance pass.
        # A pack-loaded database frozen with the same AP map already
        # carries these arrays (mmap-shared, byte-identical by
        # construction); adopt them instead of rebuilding on the heap.
        from repro.core.frozenpack import frozen_ranging_for

        frozen = frozen_ranging_for(db, self.ap_positions)
        self._packed = (
            frozen if frozen is not None
            else PackedRanging.from_fits(self._fits, self._bssids)
        )
        self._centers = np.array(
            [[self.ap_positions[b].x, self.ap_positions[b].y] for b in self._packed.bssids]
        )
        return self

    @property
    def fits(self) -> Dict[str, FitResult]:
        """Per-AP Figure 4 fits (available after :meth:`fit`)."""
        self._check_fitted("_fits")
        return dict(self._fits)

    # ------------------------------------------------------------------
    def estimate_distances(self, observation: Observation) -> Dict[str, float]:
        """Phase-2 step 1: observed SS vector → per-AP distances (ft)."""
        row = self.estimate_distance_matrix([observation])[0]
        return {
            b: float(row[f])
            for f, b in enumerate(self._packed.bssids)
            if np.isfinite(row[f])
        }

    def estimate_distance_matrix(self, observations) -> np.ndarray:
        """Batched ranging: ``(n_obs, n_fitted_aps)`` distances (ft).

        Columns follow ``self._packed.bssids``; NaN marks unheard APs.
        """
        self._check_fitted("_fits")
        obs_rows = self._mean_rows(observations, self._bssids)
        if obs_rows.shape[1] != len(self._bssids):
            raise ValueError(
                f"observation has {obs_rows.shape[1]} AP columns, "
                f"training had {len(self._bssids)}"
            )
        return self._packed.distances(obs_rows)

    def locate(self, observation: Observation) -> LocationEstimate:
        return self._locate_chunk([observation])[0]

    def _locate_chunk(self, observations):
        """Phase 2 for a chunk of observations, as whole-array passes.

        Ranging is one closed-form ``(M, F)`` pass; the rows are then
        grouped by heard-AP mask and each group's ring geometry runs
        over all its rows at once.  :meth:`locate` is this kernel on
        one row, so single and batched answers agree bit for bit.
        """
        dist = self.estimate_distance_matrix(observations)
        out: List[Optional[LocationEstimate]] = [None] * len(dist)
        for cols, rows in heard_groups(dist):
            radii = dist[rows][:, cols]
            bssids = [self._packed.bssids[f] for f in cols]
            ranged = [dict(zip(bssids, r)) for r in radii.tolist()]
            centers = self._centers[cols]
            if len(cols) < self.min_aps:
                reason = f"only {len(cols)} ranged AP(s)"
            else:
                points = _ring_points(centers, radii)
                reason = None if points.shape[1] >= 2 else "fewer than 2 circle-pair intersections"
            if reason is not None:
                for i, distances in zip(rows, ranged):
                    out[i] = invalid_estimate(reason, distances=distances)
                continue
            position = self._AGGREGATORS[self.aggregator](points)
            # Mean radial residual of the answer against every circle.
            to_centers = centers - position[:, None, :]  # (G, n, 2)
            residual = np.abs(
                np.hypot(to_centers[..., 0], to_centers[..., 1]) - radii
            ).mean(axis=1)
            for i, distances, pos, pts, res in zip(
                rows, ranged, position.tolist(), points.tolist(), residual.tolist()
            ):
                out[i] = LocationEstimate(
                    position=Point(*pos),
                    location_name=None,
                    score=-res,
                    valid=True,
                    details={
                        "distances": distances,
                        "intersections": [Point(x, y) for x, y in pts],
                        "mean_radial_residual_ft": res,
                    },
                )
        return out
