"""Least-squares signal-strength ↔ distance fits (paper §5.2, Figure 4).

Phase 1 of the geometric approach "identif[ies] the relationship between
the distance and the signal strength … us[ing] a reverse square formula
… least-square regression".  The model is linear in its coefficients —

.. math::  SS = a\\,d^{-2} + b\\,d^{-1} + c

— so the fit is one ordinary least-squares solve on the design matrix
``[1/d², 1/d, 1]``.  :func:`fit_inverse_square` reproduces exactly the
Figure 4 computation; :func:`fit_log_distance` fits the physics-flavored
alternative ``RSSI = p₀ − 10·n·log₁₀(d)`` used by the ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.geometry import Point
from repro.core.trainingdb import TrainingDatabase
from repro.radio.pathloss import (
    InverseSquareModel,
    dbm_to_ss_units,
    invert_inverse_square,
)

__all__ = [
    "FitResult",
    "LogDistanceFit",
    "PackedRanging",
    "fit_inverse_square",
    "fit_log_distance",
    "fit_per_ap",
    "heard_groups",
]


@dataclass(frozen=True)
class FitResult:
    """One AP's fitted signal-strength model plus fit diagnostics."""

    model: InverseSquareModel
    r_squared: float
    rmse: float
    n_points: int

    def formula(self) -> str:
        """Human-readable Figure 4-style formula string."""
        a, b, c = self.model.coefficients
        return f"SS = {a:.2f}/d^2 + {b:.2f}/d + {c:.2f}"


def fit_inverse_square(
    distances_ft: np.ndarray,
    ss_units: np.ndarray,
    min_distance_ft: float = 1.0,
    max_distance_ft: float = 500.0,
) -> FitResult:
    """Least-squares fit of ``SS = a/d² + b/d + c``.

    NaN pairs are dropped; needs at least 3 finite points (3 unknowns).
    """
    d = np.asarray(distances_ft, dtype=float).ravel()
    ss = np.asarray(ss_units, dtype=float).ravel()
    if d.shape != ss.shape:
        raise ValueError(f"shape mismatch: distances {d.shape} vs ss {ss.shape}")
    keep = np.isfinite(d) & np.isfinite(ss) & (d > 0)
    d, ss = d[keep], ss[keep]
    if d.size < 3:
        raise ValueError(f"need >= 3 finite (distance, SS) pairs, got {d.size}")

    design = np.column_stack([d**-2, d**-1, np.ones_like(d)])
    coeffs, *_ = np.linalg.lstsq(design, ss, rcond=None)
    predicted = design @ coeffs
    resid = ss - predicted
    ss_tot = float(((ss - ss.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    model = InverseSquareModel(
        float(coeffs[0]),
        float(coeffs[1]),
        float(coeffs[2]),
        min_distance_ft=min_distance_ft,
        max_distance_ft=max_distance_ft,
    )
    return FitResult(
        model=model,
        r_squared=r2,
        rmse=float(np.sqrt((resid**2).mean())),
        n_points=int(d.size),
    )


@dataclass(frozen=True)
class LogDistanceFit:
    """Fitted ``RSSI = p0 − 10·n·log10(d)`` with diagnostics."""

    p0_dbm: float
    exponent: float
    r_squared: float
    rmse: float

    def rssi(self, distance_ft: np.ndarray) -> np.ndarray:
        d = np.maximum(np.asarray(distance_ft, dtype=float), 1e-6)
        return self.p0_dbm - 10.0 * self.exponent * np.log10(d)

    def invert(self, rssi_dbm: np.ndarray) -> np.ndarray:
        r = np.asarray(rssi_dbm, dtype=float)
        return 10.0 ** ((self.p0_dbm - r) / (10.0 * self.exponent))


def fit_log_distance(distances_ft: np.ndarray, rssi_dbm: np.ndarray) -> LogDistanceFit:
    """Least-squares fit of the log-distance model (dBm vs log10 d)."""
    d = np.asarray(distances_ft, dtype=float).ravel()
    r = np.asarray(rssi_dbm, dtype=float).ravel()
    keep = np.isfinite(d) & np.isfinite(r) & (d > 0)
    d, r = d[keep], r[keep]
    if d.size < 2:
        raise ValueError(f"need >= 2 finite (distance, RSSI) pairs, got {d.size}")
    design = np.column_stack([np.ones_like(d), -10.0 * np.log10(d)])
    coeffs, *_ = np.linalg.lstsq(design, r, rcond=None)
    resid = r - design @ coeffs
    ss_tot = float(((r - r.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return LogDistanceFit(
        p0_dbm=float(coeffs[0]),
        exponent=float(coeffs[1]),
        r_squared=r2,
        rmse=float(np.sqrt((resid**2).mean())),
    )


@dataclass(frozen=True)
class PackedRanging:
    """Every fitted AP's inversion constants, packed into arrays.

    Built once at fit time from a ``fit_per_ap`` result, this hoists the
    per-model constants of ``InverseSquareModel.invert`` — coefficients,
    branch endpoints, endpoint signal strengths — into arrays, so one
    call of the shared closed form
    (:func:`~repro.radio.pathloss.invert_inverse_square`) ranges a whole
    ``(M, n_fitted)`` matrix.  Both paths run that same function on the
    same constants, so the packed inversion is bit-for-bit identical to
    calling the scalar model per entry.
    """

    bssids: Tuple[str, ...]  # fitted APs, in training column order
    columns: np.ndarray  # (F,) training column index per fitted AP
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray  # monotone-branch endpoints
    hi: np.ndarray
    ss_lo: np.ndarray  # SS at the branch endpoints
    ss_hi: np.ndarray

    @classmethod
    def from_fits(
        cls, fits: Dict[str, FitResult], bssids: Sequence[str]
    ) -> "PackedRanging":
        ordered = [b for b in bssids if b in fits]
        lo_hi = [fits[b].model.monotone_branch() for b in ordered]
        models = [fits[b].model for b in ordered]
        return cls(
            bssids=tuple(ordered),
            columns=np.array([bssids.index(b) for b in ordered], dtype=int),
            a=np.array([m.a for m in models]),
            b=np.array([m.b for m in models]),
            c=np.array([m.c for m in models]),
            lo=np.array([lh[0] for lh in lo_hi]),
            hi=np.array([lh[1] for lh in lo_hi]),
            ss_lo=np.array([float(m.ss(lh[0])) for m, lh in zip(models, lo_hi)]),
            ss_hi=np.array([float(m.ss(lh[1])) for m, lh in zip(models, lo_hi)]),
        )

    def invert_matrix(self, ss: np.ndarray) -> np.ndarray:
        """``(M, F)`` signal strengths → ``(M, F)`` distances (ft)."""
        return invert_inverse_square(
            ss, self.a, self.b, self.c, self.lo, self.hi, self.ss_lo, self.ss_hi
        )

    def distances(self, obs_rows: np.ndarray) -> np.ndarray:
        """``(M, A)`` aligned mean dBm rows → ``(M, F)`` ranged distances.

        NaN marks (observation, AP) pairs that cannot be ranged (AP not
        heard): a NaN mean ranges to NaN.  Heard entries match the scalar
        path bit for bit:
        ``float(model.invert(float(dbm_to_ss_units(obs[j]))))``.
        """
        return self.invert_matrix(dbm_to_ss_units(obs_rows[:, self.columns]))


def heard_groups(distances: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Split ``(M, F)`` ranged rows by heard-AP mask.

    Yields ``(columns, rows)``: the finite (heard) column indices shared
    by a group and the row indices in it.  Rows that share a mask share
    every per-AP constant of Phase 2 (anchor centres, ring pairs), so
    the ranging localizers build those once per group and run the rest
    as whole-array passes.
    """
    heard = np.isfinite(distances)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, mask in enumerate(map(tuple, np.packbits(heard, axis=1).tolist())):
        groups.setdefault(mask, []).append(i)
    for rows in groups.values():
        yield np.flatnonzero(heard[rows[0]]), np.array(rows, dtype=np.intp)


def fit_per_ap(
    db: TrainingDatabase,
    ap_positions: Dict[str, Point],
) -> Dict[str, FitResult]:
    """Phase-1 regression for every AP: the Figure 4 computation, per AP.

    ``ap_positions`` maps **BSSID → floor position** (from the Floor
    Plan Processor's AP layer).  For each AP the training points supply
    (distance to AP, mean SS there) pairs.
    """
    fits: Dict[str, FitResult] = {}
    means = db.mean_matrix()  # (L, A) dBm
    positions = db.positions()  # (L, 2)
    for j, bssid in enumerate(db.bssids):
        if bssid not in ap_positions:
            continue
        ap = ap_positions[bssid]
        d = np.hypot(positions[:, 0] - ap.x, positions[:, 1] - ap.y)
        ss = dbm_to_ss_units(means[:, j])
        ss = np.where(np.isfinite(means[:, j]), ss, np.nan)
        finite_d = d[np.isfinite(ss) & (d > 0)]
        if finite_d.size < 3:
            continue  # AP heard at <3 training points: unusable for ranging
        # Bound the inversion by the surveyed range (with headroom): the
        # fit is pure extrapolation outside it.
        min_d = max(1.0, 0.5 * float(finite_d.min()))
        max_d = 1.5 * float(finite_d.max())
        try:
            fits[bssid] = fit_inverse_square(
                d, ss, min_distance_ft=min_d, max_distance_ft=max_d
            )
        except ValueError:
            continue
    return fits
