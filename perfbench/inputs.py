"""Seeded, cached inputs for the serving benchmark.

``--seed`` determines every input the server sees: the §5 house's
training survey, its frozen pack (``house.tdbx``) and annotated plan
(``plan.gif``), the eight-site fleet (packs plus ``fleet.json``) and
each workload's request stream.  The server receives only these files
and these requests.

Site assets are generated once per seed and streams once per (seed,
workload, seconds), and both are cached under ``.perfbench/cache``,
keyed also by :func:`source_digest`, so a checkout whose simulator,
pack format or generator differs never reuses another's inputs;
generation is never inside a timed section or ``setup_s``.  The same
seed gives a byte-identical request stream (:func:`stream_digest`), a
different seed a different one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import spec

SCAN_SWEEPS = 5  # sweeps per locate scan (dwell 5 s at one sweep per second)
WALK_SPEED_FT_S = 4.0
WALK_STEPS = 6
STEP_GAP_S = 2.0  # a device scans and steps every 2 s, sending dt_s = 2.0
TRACK_SWEEPS = 2  # one sweep per second between steps
COLD_SHARE = 0.2  # fleet-churn: share of requests sent to a non-resident site
FLEET_DWELL_S = 10.0  # survey dwell of the fleet sites (``repro sites gen-fleet``)
MARGIN_FT = 3.0  # scans and walks stay this far inside the walls
DEFAULT_SITE = "house-00"
PRESETS = ("house", "office", "warehouse")


@dataclass
class Request:
    """One request of a stream, with what its answer must show."""

    due_s: float  # offset from the start of the schedule
    method: str
    path: str
    body: bytes
    ops: int  # scans located or steps taken (0 for a DELETE)
    truth: List[List[float]] = field(default_factory=list)  # [x, y] per op
    key: str = ""  # device id (track-walk) or site id (fleet-churn)
    seq: int = 0  # session seq the answer must carry (track-walk)
    after: int = -1  # index of the request that must be answered first
    cold: bool = False  # fleet-churn: the site is not resident on arrival


@dataclass
class Inputs:
    workload: str
    seed: int
    requests: List[Request]
    digest: str
    server_args: List[str]
    house_dir: Path
    fleet_dir: Optional[Path]
    predicted: Dict[str, int]  # fleet-churn: loads and evictions the registry must show


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([abs(int(seed)), stream])


def _fresh_dir(final: Path) -> Path:
    tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def _publish(tmp: Path, final: Path) -> None:
    """Move a finished generation into place; a concurrent twin wins."""
    try:
        os.replace(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)


def _site(kind: str, dwell_s: float):
    from repro.experiments.sites import office_floor, paper_house, warehouse

    factory = {"house": paper_house, "office": office_floor, "warehouse": warehouse}[kind]
    return factory(dwell_s=dwell_s)


def fleet_ids() -> List[str]:
    return [f"{PRESETS[i % len(PRESETS)]}-{i:02d}" for i in range(spec.FLEET_SITES)]


def house_assets(seed_dir: Path, seed: int) -> Path:
    """``house.tdbx`` + ``plan.gif``: the §5 house surveyed with the paper's dwell."""
    final = seed_dir / "house"
    if final.is_dir():
        return final
    from repro.core.floorplan import FloorPlan
    from repro.core.system import ap_positions_by_bssid

    tmp = _fresh_dir(final)
    house = _site("house", 90.0)
    rng = _rng(seed, 1)
    db = house.training_database(rng=rng)
    house.floor_plan(rng=int(rng.integers(1 << 31))).save(tmp / "plan.gif")
    # Freeze with the AP map the server derives from the plan, so the
    # pack's ranging tables are the ones `repro serve --plan` adopts.
    ap_positions = ap_positions_by_bssid(FloorPlan.load(tmp / "plan.gif"), db)
    db.freeze(str(tmp / "house.tdbx"), ap_positions=ap_positions)
    _publish(tmp, final)
    return final


def fleet_assets(seed_dir: Path, seed: int) -> Path:
    """One frozen pack per fleet site plus ``fleet.json``."""
    final = seed_dir / "fleet"
    if final.is_dir():
        return final
    from repro.serve.registry import SiteDefinition, write_fleet_manifest

    tmp = _fresh_dir(final)
    rng = _rng(seed, 2)
    sites = {}
    for sid in fleet_ids():
        site = _site(sid.split("-")[0], FLEET_DWELL_S)
        db = site.training_database(rng=int(rng.integers(1 << 31)))
        ap_positions = site.ap_positions_by_bssid()
        path = tmp / f"{sid}.tdbx"
        db.freeze(str(path), ap_positions=ap_positions)
        sites[sid] = SiteDefinition(
            sid, str(path), ap_positions=ap_positions, bounds=site.bounds()
        )
    write_fleet_manifest(tmp, sites, default=DEFAULT_SITE)
    _publish(tmp, final)
    return final


class _Points:
    """Random scan points, stratified: each pass visits every cell of a grid once.

    Uniform draws leave some seeds with more points in the house's hard
    corners than others, so accuracy moves from seed to seed; visiting
    the cells in a fresh random order each pass, at a random spot in
    each, keeps the points random while every seed covers the site
    evenly.
    """

    CELLS = 6  # per side

    def __init__(self, site, rng):
        x0, y0, x1, y1 = site.bounds()
        self.lo = (x0 + MARGIN_FT, y0 + MARGIN_FT)
        self.size = ((x1 - x0 - 2 * MARGIN_FT) / self.CELLS, (y1 - y0 - 2 * MARGIN_FT) / self.CELLS)
        self.rng = rng
        self.order: List[int] = []

    def __call__(self):
        from repro.core.geometry import Point

        if not self.order:
            self.order = [int(c) for c in self.rng.permutation(self.CELLS * self.CELLS)]
        cx, cy = divmod(self.order.pop(), self.CELLS)
        return Point(
            float(self.lo[0] + (cx + self.rng.uniform()) * self.size[0]),
            float(self.lo[1] + (cy + self.rng.uniform()) * self.size[1]),
        )


def _scan(place, point, rng, sweeps: int, **extra) -> Dict[str, object]:
    """One simulated scan at ``point`` in ``place`` as a wire document (NaN -> null)."""
    observation = place.observe(point, rng=rng, dwell_s=float(sweeps))
    doc: Dict[str, object] = {
        "samples": [[None if v != v else v for v in row] for row in observation.samples.tolist()],
        "bssids": list(observation.bssids),
    }
    doc.update(extra)
    return doc


def _body(doc: object) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _arrivals(rng, rate: float, start: float, end: float) -> List[float]:
    """``rate * (end - start)`` arrival times, uniform on ``[start, end)``, sorted.

    A Poisson process conditioned on its count: arrivals stay bursty,
    while every seed offers the same load.
    """
    n = int(round(rate * (end - start)))
    return [float(t) for t in np.sort(rng.uniform(start, end, n))]


def _interactive(seed: int, seconds: float, house) -> List[Request]:
    rng = _rng(seed, 10)
    point = _Points(house, rng)
    requests = []
    for t in _arrivals(rng, spec.WORKLOADS["locate-interactive"].rate_per_s, 0.0, seconds):
        p = point()
        requests.append(Request(t, "POST", "/v1/locate",
                                _body(_scan(house, p, rng, SCAN_SWEEPS)), 1, [[p.x, p.y]]))
    return requests


def _walk(house, point, rng) -> list:
    """A straight walk at 4 ft/s centred on a stratified point, inside the margins."""
    from repro.core.geometry import Point

    x0, y0, x1, y1 = house.bounds()
    lo_x, hi_x, lo_y, hi_y = x0 + MARGIN_FT, x1 - MARGIN_FT, y0 + MARGIN_FT, y1 - MARGIN_FT
    stride = WALK_SPEED_FT_S * STEP_GAP_S
    half = (WALK_STEPS - 1) / 2
    while True:
        mid = point()
        for _ in range(32):
            heading = float(rng.uniform(0.0, 2.0 * math.pi))
            dx, dy = stride * math.cos(heading), stride * math.sin(heading)
            sx, sy = mid.x - half * dx, mid.y - half * dy
            ex, ey = mid.x + half * dx, mid.y + half * dy
            if all(lo_x <= x <= hi_x for x in (sx, ex)) and all(lo_y <= y <= hi_y for y in (sy, ey)):
                return [Point(sx + k * dx, sy + k * dy) for k in range(WALK_STEPS)]


def _track(seed: int, seconds: float, house) -> List[Request]:
    """Devices arrive at random times, step every STEP_GAP_S along a walk, then DELETE.

    Arrivals start one walk-length before the schedule, so devices are
    already mid-walk at t=0 and the load is steady from the first
    second; a device's first step inside the schedule creates its
    session.  A device still walking when the schedule ends closes its
    session half a gap after its last step.
    """
    rng = _rng(seed, 12)
    point = _Points(house, rng)
    device_rate = spec.WORKLOADS["track-walk"].rate_per_s / WALK_STEPS
    lifetime = WALK_STEPS * STEP_GAP_S
    requests: List[Request] = []
    for device, start in enumerate(_arrivals(rng, device_rate, -lifetime, seconds)):
        walk = _walk(house, point, rng)
        steps = [(start + k * STEP_GAP_S, p) for k, p in enumerate(walk)]
        kept = [(t, p) for t, p in steps if 0.0 <= t < seconds]
        if not kept:
            continue
        sid = f"dev-{device}"
        path = f"/v1/track/{sid}"
        for seq, (t, p) in enumerate(kept, 1):
            doc = _scan(house, p, rng, TRACK_SWEEPS, dt_s=STEP_GAP_S)
            requests.append(Request(t, "POST", path, _body(doc), 1, [[p.x, p.y]],
                                    key=sid, seq=seq))
        requests.append(Request(kept[-1][0] + STEP_GAP_S / 2, "DELETE", path, b"", 0,
                                key=sid, seq=len(kept)))
    requests.sort(key=lambda r: r.due_s)
    last: Dict[str, int] = {}
    for i, r in enumerate(requests):
        r.after = last.get(r.key, -1)
        last[r.key] = i
    return requests


def _fleet(seed: int, seconds: float) -> Tuple[List[Request], Dict[str, int]]:
    """Skewed site choice with a fixed cold share, against a model of the LRU.

    The model mirrors ``ModelRegistry`` as one connection drives it: the
    default site is pinned by the server, a cold site is loaded and then
    the oldest unpinned sites are evicted down to capacity.  A request
    is cold exactly when the model says its site is not resident, so
    the server's load and eviction counters must equal the prediction.
    """
    rng = _rng(seed, 13)
    ids = fleet_ids()
    sites = {kind: _site(kind, FLEET_DWELL_S) for kind in PRESETS}
    points = {kind: _Points(site, rng) for kind, site in sites.items()}
    popularity = {sid: 1.0 / (rank + 1) for rank, sid in enumerate(ids)}  # Zipf over the fleet
    resident: "OrderedDict[str, None]" = OrderedDict([(DEFAULT_SITE, None)])
    loads = evictions = 0
    requests = []
    arrivals = _arrivals(rng, spec.WORKLOADS["fleet-churn"].rate_per_s, 0.0, seconds)
    # Exactly COLD_SHARE of the requests go cold, so p95 falls at the same
    # place in the cold requests' latencies for every seed.
    cold_slots = set(rng.choice(len(arrivals), size=round(COLD_SHARE * len(arrivals)),
                                replace=False).tolist())
    for k, t in enumerate(arrivals):
        outside = [s for s in ids if s not in resident]
        if k in cold_slots:
            sid = outside[int(rng.integers(len(outside)))]
        else:
            inside = list(resident)
            weights = np.array([popularity[s] for s in inside])
            sid = inside[int(rng.choice(len(inside), p=weights / weights.sum()))]
        cold = sid not in resident
        if cold:
            resident[sid] = None
            loads += 1
            for victim in [s for s in resident if s not in (DEFAULT_SITE, sid)]:
                if len(resident) <= spec.FLEET_CAPACITY:
                    break
                del resident[victim]
                evictions += 1
        else:
            resident.move_to_end(sid)
        site = sites[sid.split("-")[0]]
        p = points[sid.split("-")[0]]()
        requests.append(Request(t, "POST", f"/v1/sites/{sid}/locate",
                                _body(_scan(site, p, rng, SCAN_SWEEPS, site=sid)), 1,
                                [[p.x, p.y]], key=sid, cold=cold))
    return requests, {"cold_loads": loads, "evictions": evictions}


def source_digest(root: Path) -> str:
    """SHA-256 of the code that makes the inputs: ``src/``, this module and ``spec.py``."""
    here = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in [*sorted((root / "src").rglob("*.py")), here / "inputs.py", here / "spec.py"]:
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stream_digest(requests: List[Request]) -> str:
    """SHA-256 of what the server is sent: schedule, method, path, body."""
    h = hashlib.sha256()
    for r in requests:
        h.update(f"{r.due_s!r} {r.method} {r.path} {len(r.body)}\n".encode("utf-8"))
        h.update(r.body)
    return h.hexdigest()


def _save_stream(path: Path, requests: List[Request], predicted: Dict[str, int]) -> None:
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"predicted": predicted}) + "\n")
        for r in requests:
            row = asdict(r)
            row["body"] = r.body.decode("utf-8")
            fh.write(json.dumps(row) + "\n")
    os.replace(tmp, path)


def _load_stream(path: Path) -> Tuple[List[Request], Dict[str, int]]:
    with open(path, "r", encoding="utf-8") as fh:
        predicted = json.loads(fh.readline())["predicted"]
        requests = []
        for line in fh:
            row = json.loads(line)
            row["body"] = row["body"].encode("utf-8")
            requests.append(Request(**row))
    return requests, predicted


def generate(workload: str, seed: int, seconds: float) -> Tuple[List[Request], Dict[str, int]]:
    """A workload's request stream (uncached)."""
    if workload == "fleet-churn":
        return _fleet(seed, seconds)
    house = _site("house", 90.0)
    if workload == "locate-interactive":
        return _interactive(seed, seconds, house), {}
    if workload == "track-walk":
        return _track(seed, seconds, house), {}
    raise ValueError(f"unknown workload {workload!r}")


def load(workload: str, seed: int, seconds: float, cache_root: Path, source: str) -> Inputs:
    """Every input of one run, generated on first use and cached after.

    ``source`` is the :func:`source_digest` of the checkout; it is part
    of the cache key.
    """
    seed_dir = cache_root / f"seed-{seed}-{source[:16]}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    house_dir = house_assets(seed_dir, seed)
    fleet_dir = fleet_assets(seed_dir, seed) if workload == "fleet-churn" else None
    stream_path = seed_dir / f"{workload}-{seconds:g}s.jsonl"
    if stream_path.exists():
        requests, predicted = _load_stream(stream_path)
    else:
        requests, predicted = generate(workload, seed, seconds)
        _save_stream(stream_path, requests, predicted)
    if fleet_dir is not None:
        server_args = ["serve", "--sites", str(fleet_dir / "fleet.json"),
                       "--site-capacity", str(spec.FLEET_CAPACITY)]
    else:
        server_args = ["serve", str(house_dir / "house.tdbx"),
                       "--plan", str(house_dir / "plan.gif")]
    return Inputs(workload, seed, requests, stream_digest(requests), server_args,
                  house_dir, fleet_dir, predicted)
