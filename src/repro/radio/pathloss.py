"""Path-loss models: RSSI as a function of AP–client distance.

Three models, all vectorized over NumPy arrays of distances (in feet):

* :class:`FreeSpaceModel` — Friis free-space loss; the physics baseline.
* :class:`LogDistanceModel` — the standard empirical indoor model
  ``PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀)``; path-loss exponent ``n ≈ 2–4``
  indoors.  This is what the simulator uses to *generate* RSSI.
* :class:`InverseSquareModel` — the paper's §5.2 *fitted* form
  ``SS = a/d² + b/d + c`` in positive "signal-strength units"; the
  geometric localizer fits one per AP from training data and inverts it
  to turn observed signal strength back into a distance.

Signal-strength units: the paper's Figure 4 fit produces large positive
values, consistent with the Windows-NDIS style scale many 2000s-era
scanning tools reported.  :func:`dbm_to_ss_units` uses the common
``SS = dBm + 100`` convention (so −40 dBm → 60 SS units), clamped at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

FEET_PER_METER = 3.280839895013123
SPEED_OF_LIGHT_FT_PER_NS = 0.9835710564304461  # ft travelled per nanosecond

#: Default 802.11b parameters used across the simulator.
DEFAULT_TX_POWER_DBM = 15.0  # typical consumer AP EIRP
DEFAULT_FREQ_MHZ = 2437.0  # channel 6
DEFAULT_REF_DISTANCE_FT = FEET_PER_METER  # 1 m reference


def dbm_to_ss_units(rssi_dbm: ArrayLike) -> np.ndarray:
    """dBm → positive signal-strength units (``dBm + 100``, floored at 0)."""
    return np.maximum(np.asarray(rssi_dbm, dtype=float) + 100.0, 0.0)


def ss_units_to_dbm(ss: ArrayLike) -> np.ndarray:
    """Positive signal-strength units → dBm."""
    return np.asarray(ss, dtype=float) - 100.0


def free_space_path_loss_db(distance_ft: ArrayLike, freq_mhz: float = DEFAULT_FREQ_MHZ) -> np.ndarray:
    """Friis free-space path loss in dB at ``distance_ft``.

    ``FSPL(dB) = 20·log₁₀(d_km) + 20·log₁₀(f_MHz) + 32.45`` with the
    distance converted from feet.  Distances below 0.1 ft are clamped to
    keep the near-field singularity out of the simulator.
    """
    d_km = np.maximum(np.asarray(distance_ft, dtype=float), 0.1) / FEET_PER_METER / 1000.0
    return 20.0 * np.log10(d_km) + 20.0 * np.log10(freq_mhz) + 32.45


@dataclass(frozen=True)
class FreeSpaceModel:
    """RSSI under Friis free-space propagation."""

    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    freq_mhz: float = DEFAULT_FREQ_MHZ

    def rssi(self, distance_ft: ArrayLike) -> np.ndarray:
        return self.tx_power_dbm - free_space_path_loss_db(distance_ft, self.freq_mhz)


@dataclass(frozen=True)
class LogDistanceModel:
    """Log-distance path loss: the simulator's generative model.

    ``RSSI(d) = P_tx − PL(d₀) − 10·n·log₁₀(d/d₀)``.  The default
    ``PL(d₀)`` is the free-space loss at the 1 m reference distance, and
    ``n = 3.0`` is a typical residential-indoor exponent (RADAR reports
    1.5–4 depending on the site).
    """

    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    exponent: float = 3.0
    ref_distance_ft: float = DEFAULT_REF_DISTANCE_FT
    ref_loss_db: float = None  # type: ignore[assignment]
    freq_mhz: float = DEFAULT_FREQ_MHZ

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.exponent}")
        if self.ref_distance_ft <= 0:
            raise ValueError(f"reference distance must be positive, got {self.ref_distance_ft}")
        if self.ref_loss_db is None:
            object.__setattr__(
                self,
                "ref_loss_db",
                float(free_space_path_loss_db(self.ref_distance_ft, self.freq_mhz)),
            )

    def path_loss_db(self, distance_ft: ArrayLike) -> np.ndarray:
        d = np.maximum(np.asarray(distance_ft, dtype=float), 0.1)
        return self.ref_loss_db + 10.0 * self.exponent * np.log10(d / self.ref_distance_ft)

    def rssi(self, distance_ft: ArrayLike) -> np.ndarray:
        return self.tx_power_dbm - self.path_loss_db(distance_ft)

    def invert(self, rssi_dbm: ArrayLike) -> np.ndarray:
        """Distance (ft) that would produce ``rssi_dbm`` under this model."""
        loss = self.tx_power_dbm - np.asarray(rssi_dbm, dtype=float)
        return self.ref_distance_ft * 10.0 ** ((loss - self.ref_loss_db) / (10.0 * self.exponent))


def invert_inverse_square(
    ss: ArrayLike,
    a: ArrayLike,
    b: ArrayLike,
    c: ArrayLike,
    lo: ArrayLike,
    hi: ArrayLike,
    ss_lo: ArrayLike,
    ss_hi: ArrayLike,
) -> np.ndarray:
    """Closed-form inversion of ``SS = a/d² + b/d + c`` on its monotone branch.

    ``[lo, hi]`` is the branch (:meth:`InverseSquareModel.monotone_branch`)
    and ``ss_lo``/``ss_hi`` the signal strengths at its ends; every
    argument broadcasts, so one call inverts a scalar or a whole
    ``(M, F)`` matrix against per-column coefficients.  In ``u = 1/d``
    the model is the quadratic ``a·u² + b·u + (c − SS) = 0``; the branch
    root is the one with ``2a·u + b ≥ 0``, taken without cancellation:

    * ``b ≥ 0``: ``u = 2(SS − c) / (b + √D)`` (also the linear case a → 0);
    * ``b < 0``: ``u = (√D − b) / (2a)``;

    with ``D = b² + 4a(SS − c)`` floored at 0, and ``d = 1/u`` clipped
    to ``[lo, hi]``.  Precedence: a degenerate branch (``ss_lo ≤ ss_hi``,
    no decrease to invert) answers its midpoint, the least-wrong total
    answer; then a hot signal (``SS ≥ ss_lo``) clamps to ``lo``, then a
    weak one (``SS ≤ ss_hi``) to ``hi``.  NaN (no reading) stays NaN.
    """
    ss = np.asarray(ss, dtype=float)
    # Entries the precedence rules overwrite (the unused root form, the
    # degenerate and clamped entries) may divide by zero or overflow.
    with np.errstate(all="ignore"):
        excess = ss - c
        sqrt_disc = np.sqrt(np.maximum(b * b + 4.0 * a * excess, 0.0))
        u = np.where(b >= 0.0, 2.0 * excess / (b + sqrt_disc), (sqrt_disc - b) / (2.0 * a))
        out = np.clip(1.0 / u, lo, hi)
    out = np.where(ss <= ss_hi, hi, out)
    out = np.where(ss >= ss_lo, lo, out)
    return np.where((ss_lo <= ss_hi) & ~np.isnan(ss), 0.5 * (lo + hi), out)


@dataclass(frozen=True)
class InverseSquareModel:
    """The paper's fitted form: ``SS = a/d² + b/d + c`` (SS units, d in ft).

    §5.2: "We use a reverse square formula to model this relationship …
    we used least-square regression approach and found the following
    formula for one AP".  An *unconstrained* least-squares fit regularly
    produces a curve that is not globally monotone (e.g. ``a < 0``: the
    curve rises to a peak at ``d* = −2a/b`` and decays beyond it —
    training grids rarely sample the near field densely enough to pin
    the ``1/d²`` term).  :meth:`invert` therefore restricts itself to
    the **monotone-decreasing branch** inside ``[min_distance,
    max_distance]`` — the physically meaningful one, since all usable
    ranging happens beyond the near-field peak — and solves the model's
    quadratic in ``1/d`` there in closed form
    (:func:`invert_inverse_square`); signal strengths outside the
    branch's range clamp to the branch endpoints (hot signal → near
    edge, weak signal → far edge).
    """

    a: float
    b: float
    c: float
    min_distance_ft: float = 1.0
    max_distance_ft: float = 500.0

    def ss(self, distance_ft: ArrayLike) -> np.ndarray:
        d = np.maximum(np.asarray(distance_ft, dtype=float), 1e-6)
        return self.a / d**2 + self.b / d + self.c

    def monotone_branch(self) -> Tuple[float, float]:
        """The sub-interval of [min, max] where SS(d) strictly decreases.

        ``SS'(d) = −(2a + b·d)/d³``; the only positive critical point is
        ``d* = −2a/b``.  Depending on the signs, the decreasing branch is
        everything, ``d ≥ d*``, or ``d ≤ d*``.
        """
        lo, hi = self.min_distance_ft, self.max_distance_ft
        a, b = self.a, self.b
        if b != 0.0:
            d_star = -2.0 * a / b
            if a < 0 and b > 0 and d_star > lo:
                lo = min(d_star, hi)  # decreasing only beyond the peak
            elif a > 0 and b < 0 and d_star < hi:
                hi = max(d_star, lo)  # decreasing only before the trough
            elif a <= 0 and b <= 0:
                # Monotone *increasing* everywhere: no usable branch; keep
                # the full interval and let clamping handle it.
                pass
        return lo, hi

    def invert(self, ss: ArrayLike) -> np.ndarray:
        """Distance estimate for observed signal strength (SS units).

        NaN in, NaN out: a missing reading has no distance.
        """
        lo, hi = self.monotone_branch()
        out = invert_inverse_square(
            ss, self.a, self.b, self.c, lo, hi, float(self.ss(lo)), float(self.ss(hi))
        )
        return out[()] if out.ndim == 0 else out

    @property
    def coefficients(self) -> Tuple[float, float, float]:
        return (self.a, self.b, self.c)
