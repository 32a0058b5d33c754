"""The service wire format: JSON observations in, JSON estimates out.

Deterministic by construction: :func:`estimate_to_json` is a pure
function of a :class:`~repro.algorithms.base.LocationEstimate`, and
:func:`canonical_json` serializes with sorted keys and no whitespace —
so an HTTP response body can be compared **bit for bit** against the
encoding of a direct ``locate_many`` answer for the same observation
(the service-parity acceptance test does exactly that).  Floats pass
through Python's shortest-repr JSON serialization, which round-trips
every IEEE double exactly.

Observation documents::

    {
      "samples": [[-62.0, null, -71.5], ...],   # sweeps x APs, null = miss
      "bssids": ["00:11:...", ...],             # optional column names
      "deadline_ms": 50,                         # optional, single-locate only
      "site": "hq-3f"                            # optional site pin
    }

A document's optional ``site`` member pins it to one building: every
served route passes its site's id as ``expect_site`` and a mismatch
is a :class:`WireError` (HTTP 400) — a scan surveyed in one building
must never be scored against another's model.

``null`` (JSON) and ``NaN`` mean the same thing a missed AP means
everywhere else in the toolkit.  Estimate documents carry the answer
plus the fallback-chain diagnostics (``tier``/``declined``) and the
machine-readable decline ``reason`` when the system refuses to answer.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import LocationEstimate, Observation

__all__ = [
    "WireError",
    "observation_from_json",
    "estimate_to_json",
    "estimates_to_json",
    "track_estimate_to_json",
    "canonical_json",
]


class WireError(ValueError):
    """A request document that cannot become an Observation."""


def observation_from_json(
    doc: object, expect_site: Optional[str] = None
) -> Observation:
    """Decode one observation document into an :class:`Observation`.

    Raises :class:`WireError` (a ``ValueError``) on any malformed
    payload — the HTTP layer maps it to a 400, never a 500.  With
    ``expect_site`` set (every served route), a document carrying a
    ``site`` member must name that site; without it the member is only
    type-checked.
    """
    if not isinstance(doc, dict):
        raise WireError(f"observation must be a JSON object, got {type(doc).__name__}")
    site = doc.get("site")
    if site is not None:
        if not isinstance(site, str):
            raise WireError(f"'site' must be a string, got {type(site).__name__}")
        if expect_site is not None and site != expect_site:
            raise WireError(
                f"observation is pinned to site {site!r} but was routed to "
                f"site {expect_site!r}"
            )
    samples = doc.get("samples")
    if samples is None:
        raise WireError("observation needs a 'samples' matrix (sweeps x APs)")
    if not isinstance(samples, list) or not samples:
        raise WireError("'samples' must be a non-empty list of sweep rows")
    if not all(isinstance(row, list) for row in samples):
        raise WireError("'samples' rows must be lists of RSSI values")
    widths = {len(row) for row in samples}
    if len(widths) != 1 or widths == {0}:
        raise WireError(f"'samples' rows must share one non-zero width, got widths {sorted(widths)}")
    try:
        matrix = np.array(
            [[math.nan if v is None else float(v) for v in row] for row in samples],
            dtype=float,
        )
    except (TypeError, ValueError) as exc:
        raise WireError(f"non-numeric RSSI value in 'samples': {exc}") from None
    bssids = doc.get("bssids", ())
    if bssids:
        if not isinstance(bssids, list) or not all(isinstance(b, str) for b in bssids):
            raise WireError("'bssids' must be a list of strings")
    try:
        return Observation(matrix, bssids=tuple(bssids))
    except ValueError as exc:
        raise WireError(str(exc)) from None


def _clean_float(value: float) -> Optional[float]:
    value = float(value)
    if value != value or value in (math.inf, -math.inf):
        return None  # strict JSON; the obs exporters use the same rule
    return value


def estimate_to_json(estimate: LocationEstimate) -> Dict[str, object]:
    """Encode one estimate as a JSON-safe document.

    Carries the answer (position/location_name/score/valid) and the
    request diagnostics the fallback chain reports (``tier`` — who
    answered — and ``declined`` — who passed, and why), plus the
    decline ``reason`` for invalid answers.  Numpy-laden algorithm
    internals in ``details`` stay server-side.
    """
    doc: Dict[str, object] = {
        "valid": bool(estimate.valid),
        "position": None,
        "location_name": estimate.location_name,
        "score": _clean_float(estimate.score),
    }
    if estimate.position is not None:
        doc["position"] = {"x": float(estimate.position.x), "y": float(estimate.position.y)}
    details = estimate.details
    diagnostics: Dict[str, object] = {}
    if "tier" in details:
        diagnostics["tier"] = details["tier"]
    if "declined" in details:
        diagnostics["declined"] = [
            {"tier": str(d.get("tier")), "reason": str(d.get("reason"))}
            for d in details["declined"]
        ]
    if diagnostics:
        doc["diagnostics"] = diagnostics
    if not estimate.valid:
        reason = details.get("reason")
        doc["reason"] = str(reason) if reason is not None else "declined"
    return doc


def estimates_to_json(estimates) -> List[Dict[str, object]]:
    return [estimate_to_json(e) for e in estimates]


def _json_safe(value: object) -> object:
    """Total projection of a details value into strict JSON.

    The trackers emit JSON-safe details by construction (that is
    test-enforced); this projection is the codec's safety net — numpy
    scalars become Python numbers, arrays become lists, non-finite
    floats become null, and anything else serializes as its ``str``
    rather than crashing the response.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _clean_float(float(value))
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return str(value)


def track_estimate_to_json(
    estimate: LocationEstimate,
    session_id: str,
    seq: int,
    created: bool = False,
) -> Dict[str, object]:
    """Encode one tracking-session estimate as a JSON-safe document.

    Same answer schema as :func:`estimate_to_json` plus ``tracking``
    (the filter's details — velocity / covariance / raw fix for the
    Kalman filter, posterior entropy and top-k for the discrete Bayes
    filter, ESS and spread for the particle filter) and the ``session``
    envelope: id, ``seq`` (1-based count of scans applied) and whether
    this request ``created`` the session.
    """
    doc = estimate_to_json(estimate)
    doc["tracking"] = _json_safe(dict(estimate.details))
    doc["session"] = {
        "id": str(session_id),
        "seq": int(seq),
        "created": bool(created),
    }
    return doc


def canonical_json(doc: object) -> bytes:
    """The one true serialization: sorted keys, no whitespace, UTF-8.

    Two documents are bit-for-bit equal under this encoding iff every
    float in them is the same IEEE double — the equality the
    service-parity test enforces between HTTP answers and direct
    ``locate_many`` answers.
    """
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
