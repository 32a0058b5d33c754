"""The load-generator side: the server process, the open loop, the answer check.

``repro serve`` runs as its own process; this module spawns it, times
its cold start, drives it with an open loop (requests sent on their
seeded schedule from at most two connections), checks every answer, and
reads the server's CPU time, ``VmHWM`` and ``/metrics.json`` counters
around the measured phase.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from inputs import Inputs, Request

SERVE_MAIN = "import sys; from repro.cli import repro_main; sys.exit(repro_main(sys.argv[1:]))"
VALID_FT = 10.0  # valid_estimation_rate tolerance (§5.1)
GRACE_S = 0.1  # head start between spawning load threads and the first due time


def child_env(root: Path) -> Dict[str, str]:
    """This process's environment with the checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ServerProcess:
    """One ``repro serve`` process: spawn, wait for its first 200, stop."""

    def __init__(self, args: Sequence[str], root: Path, log_path: Path):
        self.args = list(args)
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn the server; seconds from spawn to its first 200 answer."""
        env = child_env(self.root)
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            # --for-seconds bounds the life of a server whose harness died.
            self.proc = subprocess.Popen(
                [sys.executable, "-c", SERVE_MAIN, *self.args,
                 "--port", "0", "--for-seconds", "300"],
                stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(self.root),
            )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
            line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
            if not line.startswith("serving http://"):
                raise RuntimeError(f"repro serve did not start (see {self.log_path}): {line!r}")
            self.host, port = line.split()[1][len("http://"):].rsplit(":", 1)
            self.port = int(port)
            status, _ = HttpSender(self.host, self.port).request("GET", "/healthz")
            elapsed = time.perf_counter() - t0
            if status != 200:
                raise RuntimeError(f"first /healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        return elapsed

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> dict:
        status, body = HttpSender(self.host, self.port).request("GET", "/metrics.json")
        if status != 200:
            raise RuntimeError(f"/metrics.json answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


class HttpSender:
    """One keep-alive HTTP/1.1 connection (reconnects after a transport error)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[Optional[int], bytes]:
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
                self.conn.connect()
                self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            headers = {"Content-Type": "application/json"} if body else {}
            self.conn.request(method, path, body=body or None, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return None, repr(exc).encode("utf-8")

    def send(self, rid: int, req: Request) -> Tuple[Optional[int], bytes]:
        return self.request(req.method, req.path, req.body)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Outcome:
    index: int  # into the request list
    due: float  # scheduled send time
    sent: float
    end: float  # last response byte
    status: Optional[int]
    body: bytes


def drive_open(requests: Sequence[Request], threads: int,
               make_sender: Callable[[], object]) -> Tuple[List[Outcome], float]:
    """Send each request at its due time from ``threads`` senders.

    Requests are taken in schedule order; a request whose predecessor
    (``after``) is still in flight waits for it, so one device's steps
    stay in order.  A request sent late is timed from when it was due.
    """
    n = len(requests)
    outcomes: List[Optional[Outcome]] = [None] * n
    answered = [threading.Event() for _ in range(n)]
    cursor = [0]
    lock = threading.Lock()
    t0 = time.perf_counter() + GRACE_S

    def worker() -> None:
        sender = make_sender()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                req = requests[i]
                if req.after >= 0:
                    answered[req.after].wait(120.0)
                due = t0 + req.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, body = sender.send(i, req)
                except Exception as exc:  # noqa: BLE001 - a failed request, not a crash
                    status, body = None, repr(exc).encode("utf-8")
                outcomes[i] = Outcome(i, due, sent, time.perf_counter(), status, body)
                answered[i].set()
        finally:
            sender.close()

    workers = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return outcomes, t0


# -- models and expected answers -------------------------------------------
ModelSpec = Tuple[str, Optional[dict], Optional[tuple]]  # pack, AP positions, bounds


def model_specs(inputs: Inputs) -> Dict[str, ModelSpec]:
    """Site key -> how the server builds that site's model.

    The single site (key ``""``) is built exactly as ``repro serve PACK
    --plan PLAN`` builds it; fleet sites exactly as ``ModelRegistry``
    builds them from ``fleet.json``.
    """
    if inputs.fleet_dir is not None:
        from repro.serve.registry import load_fleet

        sites = load_fleet(inputs.fleet_dir / "fleet.json")[0]
        return {sid: (d.database, d.ap_positions, d.bounds) for sid, d in sites.items()}
    from repro.core.floorplan import FloorPlan
    from repro.core.frozenpack import load_database
    from repro.core.system import ap_positions_by_bssid, site_bounds

    pack = str(inputs.house_dir / "house.tdbx")
    plan = FloorPlan.load(inputs.house_dir / "plan.gif")
    return {"": (pack, ap_positions_by_bssid(plan, load_database(pack)), site_bounds(plan))}


def build_service(model: ModelSpec, database=None):
    """A ``LocalizationService`` for one site (optionally from a loaded database)."""
    from repro.serve import LocalizationService

    pack, ap_positions, bounds = model
    return LocalizationService(
        pack if database is None else database, ap_positions=ap_positions, bounds=bounds
    )


def site_key(inputs: Inputs, req: Request) -> str:
    return req.key if inputs.fleet_dir is not None else ""


def _scan_error(estimate, truth: Sequence[float]) -> float:
    if not estimate.valid or estimate.position is None:
        return math.inf
    return math.hypot(estimate.position.x - truth[0], estimate.position.y - truth[1])


@dataclass
class Expected:
    bodies: List[Optional[bytes]]  # per request: the exact answer bytes (locate requests)
    errors: List[List[float]]  # per request: its scan's distance from ground truth


def expected_answers(inputs: Inputs) -> Expected:
    """Direct in-process ``locate_many`` answers for every locate request.

    Answers are batch-invariant (the parity suites pin that), so one
    ``locate_many`` per site over all scans gives the bytes every HTTP
    answer must equal, whatever micro-batch the server put it in.
    Tracking answers depend on session state; they are checked for
    ``seq`` continuity and a finite position instead.
    """
    from repro.serve import canonical_json, estimate_to_json, observation_from_json

    n = len(inputs.requests)
    expected = Expected([None] * n, [[] for _ in range(n)])
    if inputs.workload == "track-walk":
        return expected
    by_site: Dict[str, List[Tuple[int, object]]] = {}
    for i, req in enumerate(inputs.requests):
        by_site.setdefault(site_key(inputs, req), []).append(
            (i, observation_from_json(json.loads(req.body))))
    models = model_specs(inputs)
    for site, items in by_site.items():
        answers = build_service(models[site]).locate_many([o for _, o in items])
        for (i, _), estimate in zip(items, answers):
            expected.bodies[i] = canonical_json(estimate_to_json(estimate))
            expected.errors[i] = [_scan_error(estimate, inputs.requests[i].truth[0])]
    return expected


def check(req: Request, status: Optional[int], body: bytes,
          expected: Expected, index: int) -> Tuple[bool, List[float]]:
    """Whether an answer is right, and its scans' distances from ground truth."""
    if status != 200:
        return False, []
    if expected.bodies[index] is not None:
        return body == expected.bodies[index], expected.errors[index]
    doc = json.loads(body)
    session = doc.get("session") or {}
    if req.method == "DELETE":
        return doc.get("closed") is True and session.get("seq") == req.seq, []
    position = doc.get("position")
    if session.get("seq") != req.seq or not isinstance(position, dict):
        return False, []
    x, y = position.get("x"), position.get("y")
    if not all(isinstance(v, float) and math.isfinite(v) for v in (x, y)):
        return False, []
    return True, [math.hypot(x - req.truth[0][0], y - req.truth[0][1])]


# -- statistics ---------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> Tuple[float, int, float]:
    """Nearest-rank percentile, the samples beyond it, and its local gap.

    The gap is the spread of the ten samples around the percentile as
    a share of its value: a large gap means the percentile sits on a
    boundary between modes of the distribution, where it is unsteady.
    """
    s = sorted(values)
    k = max(0, math.ceil(q * len(s)) - 1)
    lo, hi = s[max(0, k - 5)], s[min(len(s) - 1, k + 5)]
    return s[k], len(s) - 1 - k, (hi - lo) / s[k] if s[k] else math.inf


def counter(payload: dict, name: str, **labels: str) -> float:
    """Sum of the counter series ``name`` whose labels include ``labels``."""
    return sum(
        c["value"] for c in payload.get("counters", [])
        if c["name"] == name and all(c["labels"].get(k) == v for k, v in labels.items())
    )


def histogram(payload: dict, name: str) -> Tuple[float, float]:
    """(sum, count) over every series of histogram ``name``."""
    total = count = 0.0
    for h in payload.get("histograms", []):
        if h["name"] == name and h.get("count"):
            total += h.get("sum", 0.0)
            count += h["count"]
    return total, count


def server_deltas(before: dict, after: dict) -> Dict[str, float]:
    """Counters the server exports, over the measured phase."""

    def delta(name: str, **labels: str) -> float:
        return counter(after, name, **labels) - counter(before, name, **labels)

    size_sum, size_n = (a - b for a, b in zip(histogram(after, "serve.batch_size"),
                                               histogram(before, "serve.batch_size")))
    hits = delta("serve.site.requests", cache="hit")
    acquires = delta("serve.site.requests")
    return {
        "dispatches": delta("serve.batches"),
        "batch_size_mean": size_sum / size_n if size_n else 0.0,
        "shed": delta("serve.admission.shed"),
        "sessions_created": delta("serve.sessions.created"),
        "sessions_closed": delta("serve.sessions.closed"),
        "site_hit_ratio": hits / acquires if acquires else 0.0,
        "site_loads": delta("serve.site.loads", result="ok"),
        "site_evictions": delta("serve.site.evictions"),
    }


@dataclass
class RunResult:
    """One untraced run against the server, with everything derived from it."""

    outcomes: List[Outcome]
    latencies_ms: List[float]  # per operation request (DELETEs excluded)
    late_ms: List[float]
    ok_ops: int
    attempted: int
    failed: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors_ft: List[float]  # one per answered scan or step
    server: Dict[str, float]


def measure(server: ServerProcess, inputs: Inputs, connections: int,
            expected: Expected) -> RunResult:
    """The measured phase: drive the server, check answers, read its counters."""
    before = server.metrics()
    cpu0 = server.cpu_s()
    outcomes, t0 = drive_open(inputs.requests, connections,
                              lambda: HttpSender(server.host, server.port))
    t_end = max(o.end for o in outcomes)
    cpu = server.cpu_s() - cpu0
    after = server.metrics()
    rss = server.peak_rss_mb()
    latencies, late, errors = [], [], []
    ok_ops = attempted = failed = 0
    for o in outcomes:
        req = inputs.requests[o.index]
        ok, errs = check(req, o.status, o.body, expected, o.index)
        attempted += max(req.ops, 1)
        if ok:
            ok_ops += req.ops
            errors.extend(errs)
        else:
            failed += max(req.ops, 1)
        if req.ops:
            latencies.append(1000.0 * (o.end - o.due))
            late.append(1000.0 * (o.sent - o.due))
    return RunResult(outcomes, latencies, late, ok_ops, attempted, failed, t_end - t0,
                     cpu, rss, errors, server_deltas(before, after))


def end_to_end(setups: Sequence[float], run: RunResult) -> Dict[str, float]:
    finite = [e for e in run.errors_ft if math.isfinite(e)]
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": run.ok_ops / run.wall_s,
        "latency_p50_ms": statistics.median(run.latencies_ms),
        "latency_p95_ms": percentile(run.latencies_ms, 0.95)[0],
        "valid_rate": sum(e <= VALID_FT for e in run.errors_ft) / len(run.errors_ft),
        "median_error_ft": statistics.median(finite),
        "peak_rss_mb": run.peak_rss_mb,
        "cpu_ms_per_op": 1000.0 * run.cpu_s / run.ok_ops,
    }
