"""Building ``repro serve`` servers: one recipe, one process or a fleet.

CPython's GIL caps a single ``repro serve`` process at roughly one
core of kernel math no matter how many handler threads run; ``repro
serve --workers N`` scales out to N processes sharing one port:

* :class:`WorkerSpec` — the picklable recipe for a ``repro serve``
  server, and :func:`build_server`, which turns it into a
  :class:`~repro.serve.registry.ModelRegistry` and a
  :class:`~repro.serve.http.LocalizationHTTPServer`.  The single
  process is worker 0 built in-process; ``--workers N`` hands the same
  spec to the :class:`Supervisor`.  A frozen model pack (``.tdbx``)
  makes the N copies cheap: every worker mmaps the same file, so the
  model occupies one set of physical pages fleet-wide.
* :func:`worker_main` — the child entry point: fresh metrics registry,
  build, bind with ``SO_REUSEPORT`` (the kernel load-balances accepted
  connections across workers), announce readiness via a rundir file,
  then tick: flush metrics deltas, poll the control channel, drain
  gracefully on SIGTERM.
* :class:`FleetMetrics` — cross-process metrics aggregation over the
  rundir: each worker atomically dumps its registry state to
  ``metrics-<i>.json``; a ``/metrics`` scrape on *any* worker flushes
  its own state and merges every worker's file through
  :meth:`~repro.obs.metrics.MetricsRegistry.merge`, so the fleet total
  is exactly the sum of the per-worker dumps (counters add, histogram
  buckets add, gauges are last-write).
* :class:`FleetTraces` — the same rundir pattern for the flight
  recorder: each worker dumps its retained traces to
  ``traces-<i>.json`` on every tick, and ``/debug/traces`` on *any*
  worker merges every file through
  :meth:`~repro.obs.FlightRecorder.merge_docs` — so a request whose
  spans landed on worker 2 is retrievable from worker 0.
  ``SIGUSR2`` dumps a worker's recorder to
  ``traces-<i>-<pid>.jsonl`` for offline inspection without touching
  the serving path.
* :class:`ControlChannel` — admin fan-out: the worker that happened to
  receive ``/admin/drain`` or ``/admin/reload`` applies it locally and
  bumps ``control.json``; every sibling applies the command on its
  next tick.  One admin call drives the whole fleet.
* :class:`Supervisor` — the parent: reserves the port (a bound,
  *never-listening* placeholder socket with ``SO_REUSEPORT`` keeps a
  ``--port 0`` pick stable across worker restarts without stealing
  connections — only listening sockets receive them), forks the
  workers, restarts any that die, and on shutdown fans out SIGTERM and
  aggregates the per-worker drain reports into the same
  ``drain complete: unfinished=N`` line the single-process CLI prints.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import obs
from repro.serve.batcher import DEFAULT_MAX_WAIT_MS
from repro.serve.registry import ModelRegistry, SiteDefinition

__all__ = [
    "WorkerSpec",
    "build_server",
    "install_recorder",
    "FleetMetrics",
    "FleetTraces",
    "ControlChannel",
    "Supervisor",
    "worker_main",
]


@dataclass
class WorkerSpec:
    """The recipe for a ``repro serve`` server, in either mode (picklable).

    ``chaos_kwargs`` carries the :class:`~repro.serve.resilience.
    ChaosPolicy` constructor arguments rather than a policy instance so
    each worker builds its own RNG stream (:meth:`chaos_policy` offsets
    the seed by the worker index — N workers with identical fault
    schedules would beat in lockstep).

    ``sites`` is the fleet each worker's
    :class:`~repro.serve.registry.ModelRegistry` serves: a manifest
    path, a pack directory, or the site definitions themselves (``repro
    serve DB`` hands over :func:`~repro.serve.registry.one_site_fleet`).
    A path is read at every build, so a restarted worker reads the
    manifest as it is on disk.
    """

    sites: Union[str, Dict[str, SiteDefinition]]
    host: str = "127.0.0.1"
    port: int = 0
    breakers: bool = True
    max_batch: int = 64
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS
    max_queue: int = 256
    default_deadline_ms: Optional[float] = None
    p99_limit_ms: Optional[float] = None
    drain_deadline_s: float = 10.0
    track_filter: str = "kalman"
    session_capacity: int = 10000
    session_ttl_s: float = 300.0
    chaos_kwargs: Optional[dict] = None
    default_site: Optional[str] = None
    site_capacity: int = 8
    #: How often a worker flushes its metrics delta and polls the
    #: control channel.  The staleness bound on fleet ``/metrics``
    #: totals for workers other than the one answering the scrape.
    flush_interval_s: float = 1.0

    def chaos_policy(self, index: int = 0):
        """Worker ``index``'s ChaosPolicy, or None; ValueError on bad rates."""
        if not self.chaos_kwargs:
            return None
        from repro.serve.resilience import ChaosPolicy

        kwargs = dict(self.chaos_kwargs)
        if kwargs.get("seed") is not None:
            kwargs["seed"] = int(kwargs["seed"]) + index
        return ChaosPolicy(**kwargs)


def _write_atomic(path: Path, doc: dict) -> None:
    """Write a rundir JSON file so readers never see a torn write."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


class FleetMetrics:
    """Per-worker metrics dumps + the fleet-wide merge.

    Every worker owns ``metrics-<index>.json`` in the rundir and
    rewrites it atomically with its registry's full
    :meth:`~repro.obs.metrics.MetricsRegistry.dump_state` on each tick.
    :meth:`merged_snapshot` (plugged into the HTTP server's
    ``metrics_source``) flushes the *local* state first — the answering
    worker is always current — then folds every worker's file into a
    fresh registry, so ``/metrics`` totals are exactly the sum of the
    per-worker dumps.  Siblings' numbers lag by at most their flush
    interval.
    """

    def __init__(self, rundir: Path, index: int):
        self.rundir = Path(rundir)
        self.index = int(index)
        self.path = self.rundir / f"metrics-{self.index}.json"

    def flush(self) -> None:
        _write_atomic(self.path, obs.get_registry().dump_state())

    def _merged_registry(self):
        from repro.obs.metrics import MetricsRegistry

        self.flush()
        merged = MetricsRegistry()
        for path in sorted(self.rundir.glob("metrics-*.json")):
            state = _read_json(path)
            if state:
                merged.merge(state)
        return merged

    def merged_snapshot(self) -> dict:
        return self._merged_registry().snapshot()

    def merged_state(self) -> dict:
        """Fleet-wide ``dump_state`` form (buckets + exemplars intact).

        The OpenMetrics exposition needs raw log-bucket state — the
        snapshot form collapses histogram buckets to quantiles — so
        the HTTP server's ``metrics_state_source`` plugs in here.
        """
        return self._merged_registry().dump_state()


class FleetTraces:
    """Per-worker flight-recorder dumps + the fleet-wide trace merge.

    Mirrors :class:`FleetMetrics`: each worker owns
    ``traces-<index>.json`` (an atomic rewrite of
    :meth:`~repro.obs.FlightRecorder.snapshot` per tick), and
    :meth:`merged` — the HTTP server's ``trace_source`` — flushes the
    local recorder first, then dedupes every worker's file through
    :meth:`~repro.obs.FlightRecorder.merge_docs`.  A trace whose spans
    were recorded by a sibling (the kernel load-balanced the request
    there) is thus visible from any worker's ``/debug/traces``,
    lagging at most the siblings' flush interval.
    """

    def __init__(self, rundir: Path, index: int):
        self.rundir = Path(rundir)
        self.index = int(index)
        self.path = self.rundir / f"traces-{self.index}.json"

    def flush(self) -> None:
        recorder = obs.get_recorder()
        if recorder is not None:
            _write_atomic(self.path, recorder.snapshot())

    def merged(self) -> dict:
        from repro.obs.trace import FlightRecorder

        self.flush()
        docs = [
            _read_json(path) for path in sorted(self.rundir.glob("traces-*.json"))
        ]
        return FlightRecorder.merge_docs(doc for doc in docs if doc)


class ControlChannel:
    """Seq-numbered admin fan-out through ``control.json``.

    :meth:`originate` (the worker that handled the admin request)
    bumps the sequence number and records the command; every sibling's
    :meth:`poll` returns each command exactly once, and the originator
    marks its own command applied (it already acted before
    broadcasting).  Last-writer-wins on a write race between two
    *concurrent* admin calls — admin traffic is rare and idempotent
    (drain is sticky, reload converges), so a lost duplicate is fine.
    """

    def __init__(self, rundir: Path, index: int):
        self.path = Path(rundir) / "control.json"
        self.index = int(index)
        self._lock = threading.Lock()
        self._applied = int(_read_json(self.path).get("seq", 0))

    def originate(self, event: Dict[str, object]) -> int:
        with self._lock:
            seq = int(_read_json(self.path).get("seq", 0)) + 1
            doc = {"seq": seq, "origin": self.index}
            doc.update({k: v for k, v in event.items() if v is not None or k == "cmd"})
            _write_atomic(self.path, doc)
            self._applied = max(self._applied, seq)
        obs.counter("serve.fleet.control", cmd=str(event.get("cmd"))).inc()
        return seq

    def poll(self) -> Optional[Dict[str, object]]:
        doc = _read_json(self.path)
        seq = int(doc.get("seq", 0))
        with self._lock:
            if seq <= self._applied:
                return None
            self._applied = seq
        return doc


def build_server(spec: WorkerSpec, index: int = 0, **fleet):
    """Build worker ``index``'s registry and (unstarted) HTTP server.

    The default site loads here, so a bad pack raises before anything
    binds.  ``fleet`` is the rundir hooks a ``--workers`` worker adds
    (``reuse_port``, ``metrics_source``, ``trace_source``...).
    """
    from repro.serve.http import LocalizationHTTPServer

    chaos = spec.chaos_policy(index)
    registry = ModelRegistry(
        spec.sites,
        capacity=spec.site_capacity,
        default_site=spec.default_site,
        service_kwargs={"breakers": spec.breakers, "chaos": chaos},
    )
    return LocalizationHTTPServer(
        registry=registry,
        host=spec.host,
        port=spec.port,
        max_batch=spec.max_batch,
        max_wait_ms=spec.max_wait_ms,
        max_queue=spec.max_queue,
        default_deadline_ms=spec.default_deadline_ms,
        p99_limit_ms=spec.p99_limit_ms,
        chaos=chaos,
        drain_deadline_s=spec.drain_deadline_s,
        track_filter=spec.track_filter,
        session_capacity=spec.session_capacity,
        session_ttl_s=spec.session_ttl_s,
        **fleet,
    )


def install_recorder(dump_path: Path) -> None:
    """Install the always-on flight recorder ``/debug/traces`` reads;
    ``SIGUSR2`` dumps its retained traces to ``dump_path`` as JSONL."""
    recorder = obs.FlightRecorder()
    obs.set_recorder(recorder)
    if hasattr(signal, "SIGUSR2"):

        def dump(signum, frame):
            n = recorder.dump_jsonl(dump_path)
            print(f"dumped {n} traces -> {dump_path}", flush=True)

        signal.signal(signal.SIGUSR2, dump)


def worker_main(spec: WorkerSpec, index: int, rundir: str) -> int:
    """One worker process: build, serve, tick, drain on SIGTERM."""
    from repro.obs.metrics import MetricsRegistry, set_registry

    # The fork inherited the parent's registry contents; a fresh one
    # makes metrics-<index>.json a pure record of *this* worker's work,
    # which is what makes the fleet merge exactly a sum.  Same story
    # for the flight recorder: each worker records its own traces.
    set_registry(MetricsRegistry())
    rundir_path = Path(rundir)
    install_recorder(rundir_path / f"traces-{index}-{os.getpid()}.jsonl")
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    # Ctrl-C lands on the whole foreground process group; the
    # supervisor turns it into per-worker SIGTERMs, so the workers'
    # own SIGINT must be inert or they'd die mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # One of each per worker: a second ControlChannel would replay
    # this worker's own admin commands.
    fleet = FleetMetrics(rundir_path, index)
    traces = FleetTraces(rundir_path, index)
    control = ControlChannel(rundir_path, index)
    server = build_server(
        spec,
        index,
        reuse_port=True,
        metrics_source=fleet.merged_snapshot,
        metrics_state_source=fleet.merged_state,
        trace_source=traces.merged,
        admin_hook=control.originate,
    )
    server.start()
    obs.gauge("serve.fleet.worker_index").set(index)
    _write_atomic(
        rundir_path / f"worker-{index}.json",
        {
            "index": index,
            "pid": os.getpid(),
            "port": server.port,
            "model": server.service.describe(),
        },
    )
    fleet.flush()
    traces.flush()
    while not stop.is_set():
        stop.wait(timeout=spec.flush_interval_s)
        event = control.poll()
        if event is not None:
            cmd = event.get("cmd")
            try:
                if cmd == "reload":
                    # Per-site fan-out: every worker reloads the named
                    # site (or the default) through its own registry,
                    # which also rebinds that site's tracking sessions.
                    server.registry.reload(event.get("site"), event.get("database"))
                elif cmd == "drain":
                    deadline = event.get("deadline_s")
                    threading.Thread(
                        target=server.drain,
                        args=(None if deadline is None else float(deadline),),
                        name="repro-fleet-drain",
                        daemon=True,
                    ).start()
            except Exception as exc:  # noqa: BLE001 - a bad broadcast must not kill the worker
                obs.counter(
                    "serve.fleet.control_errors", cmd=str(cmd), kind=type(exc).__name__
                ).inc()
        fleet.flush()
        traces.flush()
    report = server.drain()
    server.stop()
    fleet.flush()
    traces.flush()
    _write_atomic(rundir_path / f"drain-{index}.json", dict(report))
    return 0 if report["unfinished"] == 0 else 1


def _worker_entry(spec: WorkerSpec, index: int, rundir: str) -> None:
    raise SystemExit(worker_main(spec, index, rundir))


class Supervisor:
    """Fork, watch, restart and drain a fleet of serve workers."""

    def __init__(self, spec: WorkerSpec, workers: int, rundir: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = int(workers)
        if rundir is None:
            import tempfile

            rundir = tempfile.mkdtemp(prefix="repro-serve-")
        self.rundir = Path(rundir)
        self.rundir.mkdir(parents=True, exist_ok=True)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.workers
        self._placeholder: Optional[socket.socket] = None
        self.restarts = 0

    # -- port reservation ------------------------------------------------
    def _reserve_port(self) -> None:
        """Pin ``--port 0`` to a concrete port for the fleet's lifetime.

        The placeholder binds with ``SO_REUSEPORT`` but never listens:
        the kernel only delivers connections to *listening* sockets, so
        it receives nothing while guaranteeing the port stays ours —
        a restarting worker rebinds the same number race-free.
        """
        if self.spec.port != 0:
            return
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError("--workers needs SO_REUSEPORT (unavailable here)")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.spec.host, 0))
        except BaseException:
            sock.close()
            raise
        self._placeholder = sock
        self.spec.port = sock.getsockname()[1]

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, index: int) -> None:
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(self.spec, index, str(self.rundir)),
            name=f"repro-serve-worker-{index}",
        )
        proc.start()
        self._procs[index] = proc

    def _wait_ready(self, index: int, timeout_s: float = 60.0) -> Dict[str, object]:
        path = self.rundir / f"worker-{index}.json"
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            proc = self._procs[index]
            info = _read_json(path)
            if info.get("pid") == getattr(proc, "pid", None):
                return info
            if proc is not None and proc.exitcode is not None:
                raise RuntimeError(
                    f"worker {index} exited (code {proc.exitcode}) before ready"
                )
            time.sleep(0.05)
        raise RuntimeError(f"worker {index} not ready after {timeout_s}s")

    def start(self) -> List[Dict[str, object]]:
        """Reserve the port, fork every worker, wait for readiness."""
        self._reserve_port()
        for index in range(self.workers):
            self._spawn(index)
        try:
            return [self._wait_ready(i) for i in range(self.workers)]
        except BaseException:
            self.stop(deadline_s=1.0)
            raise

    @property
    def url(self) -> str:
        return f"http://{self.spec.host}:{self.spec.port}"

    def monitor(self, stop: threading.Event, for_seconds: Optional[float] = None) -> None:
        """Restart dead workers until ``stop`` (or the time box) fires."""
        deadline = None if for_seconds is None else time.monotonic() + for_seconds
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return
            for index, proc in enumerate(self._procs):
                if proc is None or proc.exitcode is None:
                    continue
                print(
                    f"worker {index} (pid {proc.pid}) exited "
                    f"code={proc.exitcode}; restarting",
                    flush=True,
                )
                obs.counter("serve.fleet.restarts").inc()
                self.restarts += 1
                self._spawn(index)
                try:
                    self._wait_ready(index)
                except RuntimeError as exc:
                    print(f"worker {index} restart failed: {exc}", flush=True)
            stop.wait(timeout=0.2)

    def stop(self, deadline_s: Optional[float] = None) -> Dict[str, object]:
        """SIGTERM the fleet, join, and aggregate the drain reports."""
        for proc in self._procs:
            if proc is not None and proc.exitcode is None:
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        limit = (
            self.spec.drain_deadline_s + 15.0 if deadline_s is None else deadline_s
        )
        joined_deadline = time.monotonic() + limit
        exit_codes: List[int] = []
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.1, joined_deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.terminate()
                proc.join(timeout=2.0)
            exit_codes.append(-1 if proc.exitcode is None else proc.exitcode)
        unfinished = 0
        waited = 0.0
        for index in range(self.workers):
            report = _read_json(self.rundir / f"drain-{index}.json")
            unfinished += int(report.get("unfinished", 0))
            waited = max(waited, float(report.get("waited_s", 0.0)))
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        clean = unfinished == 0 and all(code == 0 for code in exit_codes)
        return {
            "drained": clean,
            "unfinished": unfinished,
            "waited_s": round(waited, 4),
            "exit_codes": exit_codes,
            "restarts": self.restarts,
        }
