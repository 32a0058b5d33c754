"""Least-squares multilateration (§2.4's geometric machinery, done right).

The paper describes the geometric family as "the most widespread and
mature of the localization approaches … used in the GPS and the Cricket
location system" and promises multi-lateration "explained in detail" —
this module is that procedure.  Given anchors ``O_i`` and ranges
``d_i``, subtracting the circle equation of a reference anchor from the
others linearizes the system:

.. math::

    2(x_i - x_r)x + 2(y_i - y_r)y =
        d_r^2 - d_i^2 + x_i^2 - x_r^2 + y_i^2 - y_r^2

which is solved in the least-squares sense, optionally followed by a
few Gauss–Newton refinement steps on the true nonlinear residuals.
Both solves take the minimum-norm least-squares answer (a stacked
pseudo-inverse), so collinear anchors still give the point on their
line rather than failing on a singular system.

Two front ends share the solver, which runs over a stack of rows that
share their anchors:

* :class:`MultilaterationLocalizer` — an RSSI localizer (fits per-AP
  inverse-square models like §5.2 but replaces the circle/median
  construction with least squares); the natural ablation against the
  paper's hand-rolled geometry.  A batch is grouped by heard-AP mask
  and each group is one stacked solve; :meth:`~MultilaterationLocalizer.locate`
  is that kernel on one row.
* :func:`solve_multilateration` — raw anchors+ranges, used by the UWB
  extension (§6.3) where ranges come from time-of-arrival.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.base import (
    LocationEstimate,
    Localizer,
    Observation,
    register_algorithm,
)
from repro.algorithms.regression import (
    FitResult,
    PackedRanging,
    fit_per_ap,
    heard_groups,
)
from repro.core.geometry import Point
from repro.core.trainingdb import TrainingDatabase


def _least_squares(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares per stacked system: ``(G, m, 2), (G, m) → (G, 2)``.

    The cutoff for small singular values is ``np.linalg.lstsq``'s default.
    """
    rcond = max(design.shape[-2:]) * np.finfo(float).eps
    return (np.linalg.pinv(design, rcond=rcond) * target[:, None, :]).sum(axis=-1)


def _multilaterate(
    anchors: np.ndarray, ranges: np.ndarray, refine_iterations: int = 3
) -> np.ndarray:
    """``(n, 2)`` anchors and ``(G, n)`` ranges → ``(G, 2)`` positions.

    Each row is linearized against its own reference anchor (the one
    with the shortest range, the most trustworthy circle), solved, then
    refined by Gauss–Newton on the nonlinear range residuals.
    """
    n = len(anchors)
    g = np.arange(len(ranges))[:, None]
    ref = np.argmin(ranges, axis=1)  # (G,)
    rest = np.array(
        [[j for j in range(n) if j != r] for r in range(n)], dtype=np.intp
    )[ref]  # (G, n-1)
    ref_xy, rest_xy = anchors[ref], anchors[rest]
    design = 2.0 * (rest_xy - ref_xy[:, None, :])
    target = (
        ranges[g, ref[:, None]] ** 2
        - ranges[g, rest] ** 2
        + (rest_xy**2).sum(axis=-1)
        - (ref_xy**2).sum(axis=-1)[:, None]
    )
    est = _least_squares(design, target)
    for _ in range(refine_iterations):
        diff = est[:, None, :] - anchors  # (G, n, 2)
        dist = np.hypot(diff[..., 0], diff[..., 1])
        jac = diff / np.maximum(dist, 1e-9)[..., None]
        est = est - _least_squares(jac, dist - ranges)
    return est


def _rms_residual(anchors: np.ndarray, ranges: np.ndarray, est: np.ndarray) -> np.ndarray:
    """``(G,)`` RMS range residual of each row's position."""
    dist = np.hypot(anchors[:, 0] - est[:, 0, None], anchors[:, 1] - est[:, 1, None])
    return np.sqrt(((dist - ranges) ** 2).mean(axis=1))


def solve_multilateration(
    anchors: Sequence[Point],
    ranges_ft: Sequence[float],
    refine_iterations: int = 3,
) -> Point:
    """Position from ≥3 anchors and their measured ranges.

    Linearized least squares (reference anchor = the one with the
    shortest range, the most trustworthy circle), then Gauss–Newton
    refinement of the nonlinear range residuals — the batched solver
    on one row.
    """
    if len(anchors) != len(ranges_ft):
        raise ValueError(f"{len(anchors)} anchors vs {len(ranges_ft)} ranges")
    if len(anchors) < 3:
        raise ValueError(f"multilateration needs >= 3 anchors, got {len(anchors)}")
    xy = np.array([[p.x, p.y] for p in anchors], dtype=float)
    d = np.asarray(ranges_ft, dtype=float)
    if (d < 0).any() or not np.isfinite(d).all():
        raise ValueError(f"ranges must be finite and non-negative, got {d}")
    x, y = _multilaterate(xy, d[None, :], refine_iterations)[0].tolist()
    return Point(x, y)


def residual_rms(anchors: Sequence[Point], ranges_ft: Sequence[float], p: Point) -> float:
    """RMS range residual at ``p`` — the solver's goodness-of-fit."""
    xy = np.array([[a.x, a.y] for a in anchors], dtype=float)
    d = np.asarray(ranges_ft, dtype=float)
    return float(_rms_residual(xy, d[None, :], np.array([[p.x, p.y]]))[0])


@register_algorithm("multilateration")
class MultilaterationLocalizer(Localizer):
    """RSSI → distances (per-AP inverse-square fits) → least squares.

    Same Phase 1 as the geometric approach; Phase 2 swaps the paper's
    ring-intersection/median construction for the closed-form solver,
    isolating how much of §5.2's error is the estimator rather than the
    ranging.
    """

    def __init__(self, ap_positions: Dict[str, Point], min_aps: int = 3):
        if not ap_positions:
            raise ValueError("multilateration needs AP positions")
        if min_aps < 3:
            raise ValueError(f"min_aps must be >= 3, got {min_aps}")
        self.ap_positions = dict(ap_positions)
        self.min_aps = int(min_aps)
        self._fits: Optional[Dict[str, FitResult]] = None
        self._bssids: Optional[List[str]] = None
        self._packed: Optional[PackedRanging] = None
        self._anchors: Optional[np.ndarray] = None

    def fit(self, db: TrainingDatabase) -> "MultilaterationLocalizer":
        self._bssids = list(db.bssids)
        self._fits = fit_per_ap(db, self.ap_positions)
        if len(self._fits) < self.min_aps:
            raise ValueError(
                f"only {len(self._fits)} usable AP fit(s); need >= {self.min_aps}"
            )
        # Adopt mmap-shared ranging tables from a frozen pack when its
        # AP-map fingerprint matches (byte-identical to from_fits).
        from repro.core.frozenpack import frozen_ranging_for

        frozen = frozen_ranging_for(db, self.ap_positions)
        self._packed = (
            frozen if frozen is not None
            else PackedRanging.from_fits(self._fits, self._bssids)
        )
        self._anchors = np.array(
            [[self.ap_positions[b].x, self.ap_positions[b].y] for b in self._packed.bssids]
        )
        return self

    def locate(self, observation: Observation) -> LocationEstimate:
        return self._locate_chunk([observation])[0]

    def _locate_chunk(self, observations):
        """Phase 2 for a chunk of observations, one stacked solve per mask.

        Ranging is one closed-form ``(M, F)`` pass; rows that heard the
        same APs then share their anchors and are solved together.
        :meth:`locate` is this kernel on one row, so single and batched
        answers agree bit for bit.
        """
        self._check_fitted("_fits")
        obs_rows = self._mean_rows(observations, self._bssids)
        if obs_rows.shape[1] != len(self._bssids):
            raise ValueError(
                f"observation has {obs_rows.shape[1]} AP columns, "
                f"training had {len(self._bssids)}"
            )
        dist = self._packed.distances(obs_rows)
        out: List[Optional[LocationEstimate]] = [None] * len(dist)
        for cols, rows in heard_groups(dist):
            if len(cols) < self.min_aps:
                for i in rows:
                    out[i] = LocationEstimate(
                        position=None,
                        valid=False,
                        details={"reason": f"only {len(cols)} ranged AP(s)"},
                    )
                continue
            anchors = self._anchors[cols]
            ranges = dist[np.ix_(rows, cols)]
            est = _multilaterate(anchors, ranges)
            rms = _rms_residual(anchors, ranges, est)
            used = [self._packed.bssids[f] for f in cols]
            for i, pos, r, res in zip(rows, est.tolist(), ranges.tolist(), rms.tolist()):
                out[i] = LocationEstimate(
                    position=Point(*pos),
                    score=-res,
                    valid=True,
                    details={"ranges_ft": dict(zip(used, r)), "residual_rms_ft": res},
                )
        return out
