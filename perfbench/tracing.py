"""The traced run: the workload's requests replayed through the layers in-process.

The benchmark builds the layers ``repro serve`` uses through their
public constructors (``LocalizationService``, ``AdmissionController``,
``MicroBatcher``, ``TrackingSessions``, ``ModelRegistry``) and replays
the first half of the workload's seeded schedule through them, on the
same schedule and from as many threads as the workload has
connections, in the order the server calls them: acquire (fleet-churn),
admit, ``json.loads`` + ``observation_from_json``, submit or step (the
dispatch calls ``locate_many``), release (fleet-churn), then
``estimate_to_json`` / ``track_estimate_to_json`` + ``canonical_json``.

Each call is wrapped in a span (id, name, start, end, parent, request
id) kept in memory and written as JSONL when the run ends; a layer's
metric is the self time of its spans.  Kernel metrics come from
re-running the batches the replay dispatched through each fallback
tier.  Layers a workload does not route through (the registry on the
single-site workloads, tracking sessions on the locate workloads) are
timed by a small probe on the same inputs, so every time metric is
measured on every workload; the counters of those layers stay 0
because the server never used them.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import spec
from harness import (
    Expected,
    RunResult,
    build_service,
    check,
    child_env,
    drive_open,
    model_specs,
    percentile,
)
from inputs import DEFAULT_SITE, Inputs, Request

# ``repro serve`` defaults, which every workload runs with.
MAX_BATCH, MAX_WAIT_MS, MAX_QUEUE = 64, 5.0, 256
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.serve, repro.cli; "
    "print(time.perf_counter() - t)"
)


def _zero() -> float:
    return 0.0


class SpanLog:
    """Spans in memory: (id, name, start, end, parent id, request id).

    Disabled, both the clock and the record are no-ops: that is the
    "spans off" replay the overhead ratio compares against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.now = time.perf_counter if enabled else _zero
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def record(self, name: str, start: float, end: float, rid: int, parent: int = 0) -> int:
        if not self.enabled:
            return 0
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent, rid))
        return sid

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Request id -> span name -> seconds not covered by child spans."""
        covered: Dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                covered[parent] += end - start
        per: Dict[int, Dict[str, float]] = defaultdict(dict)
        for sid, name, start, end, _, rid in self.spans:
            per[rid][name] = per[rid].get(name, 0.0) + (end - start) - covered[sid]
        return per

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")


class _Dispatches:
    """When each queued payload's dispatch started, and which batches ran."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.started: Dict[int, float] = {}
        self.batches: List[Tuple[str, list]] = []

    def note(self, site: str, payloads: Sequence[object]) -> None:
        now = self.log.now()
        for p in payloads:
            self.started[id(p)] = now
        if self.log.enabled:
            self.batches.append((site, list(payloads)))

    def wrap(self, site: str, locate_many):
        def dispatch(payloads):
            self.note(site, payloads)
            return locate_many(payloads)

        return dispatch

    def pop(self, payload: object) -> float:
        return self.started.pop(id(payload), 0.0)


def _timed_sessions_class():
    from repro.serve import TrackingSessions

    class TimedSessions(TrackingSessions):
        """``TrackingSessions`` whose batch dispatch notes when each step started."""

        def __init__(self, service, dispatches: _Dispatches, **kwargs):
            super().__init__(service, **kwargs)
            self._dispatches = dispatches

        def _step_batch(self, jobs):
            self._dispatches.note("", [job.observation for job in jobs])
            return super()._step_batch(jobs)

    return TimedSessions


def _sessions(service, dispatches: _Dispatches):
    return _timed_sessions_class()(
        service, dispatches, kind="kalman", capacity=10000, ttl_s=300.0,
        max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE,
    ).start()


class LocateStack:
    """Single-site ``/v1/locate`` as the server runs it."""

    def __init__(self, service, log: SpanLog):
        from repro.serve import AdmissionController, MicroBatcher

        self.log = log
        self.admission = AdmissionController(max_queue=MAX_QUEUE)
        self.dispatches = _Dispatches(log)
        self.batcher = MicroBatcher(
            self.dispatches.wrap("", service.locate_many), max_batch=MAX_BATCH,
            max_wait_ms=MAX_WAIT_MS, max_queue=MAX_QUEUE, name="http").start()
        self.shed = 0

    def close(self) -> None:
        self.batcher.stop()

    def handle(self, rid: int, req: Request) -> Tuple[int, bytes]:
        from repro.serve import Priority, canonical_json, estimate_to_json, observation_from_json

        log, now = self.log, self.log.now
        t0 = now()
        self.shed += self.admission.admit(Priority.NORMAL, self.batcher.queue_depth()) is not None
        t1 = now()
        observation = observation_from_json(json.loads(req.body))
        t2 = now()
        estimate = self.batcher.submit(observation).result()
        t3 = now()
        body = canonical_json(estimate_to_json(estimate))
        t4 = now()
        started = self.dispatches.pop(observation)
        root = log.record("request", t0, t4, rid)
        log.record("serve.resilience.admit", t0, t1, rid, root)
        log.record("serve.wire.decode", t1, t2, rid, root)
        log.record("serve.batcher.queue_wait", t2, started, rid, root)
        log.record("serve.batcher.dispatch", started, t3, rid, root)
        log.record("serve.wire.encode", t3, t4, rid, root)
        return 200, body


class TrackStack:
    """``POST``/``DELETE /v1/track/{id}`` as the server runs them."""

    def __init__(self, service, log: SpanLog):
        from repro.serve import AdmissionController

        self.log = log
        self.admission = AdmissionController(max_queue=MAX_QUEUE)
        self.dispatches = _Dispatches(log)
        self.sessions = _sessions(service, self.dispatches)
        self.shed = 0
        self.live_peak = 0

    def close(self) -> None:
        self.sessions.stop()

    def handle(self, rid: int, req: Request) -> Tuple[int, bytes]:
        from repro.serve import (
            Priority,
            canonical_json,
            observation_from_json,
            track_estimate_to_json,
        )

        log, now, sid = self.log, self.log.now, req.key
        if req.method == "DELETE":
            t0 = now()
            report = self.sessions.close(sid)
            log.record("serve.sessions.close", t0, now(), rid)
            return 200, canonical_json({"closed": True, "session": {"id": sid, "seq": report["steps"]}})
        t0 = now()
        self.shed += self.admission.admit(
            Priority.NORMAL, self.sessions.batcher.queue_depth()) is not None
        t1 = now()
        doc = json.loads(req.body)
        observation = observation_from_json(doc)
        dt_s = float(doc["dt_s"])
        t2 = now()
        future, created = self.sessions.step(sid, observation, dt_s)
        queued = now()
        estimate, seq = future.result()
        t3 = now()
        body = canonical_json(track_estimate_to_json(estimate, sid, seq, created=created))
        t4 = now()
        self.live_peak = max(self.live_peak, self.sessions.store.active())
        started = self.dispatches.pop(observation)
        root = log.record("request", t0, t4, rid)
        log.record("serve.resilience.admit", t0, t1, rid, root)
        log.record("serve.wire.decode", t1, t2, rid, root)
        step = log.record("serve.sessions.step", t2, t3, rid, root)
        log.record("serve.batcher.queue_wait", queued, max(queued, started), rid, step)
        log.record("serve.wire.encode", t3, t4, rid, root)
        return 200, body


class FleetStack:
    """``/v1/sites/{id}/locate`` through a ``ModelRegistry`` as the server runs it."""

    def __init__(self, fleet_dir: Path, log: SpanLog):
        from repro.serve import AdmissionController, ModelRegistry

        self.log = log
        self.registry = ModelRegistry(str(fleet_dir / "fleet.json"), capacity=spec.FLEET_CAPACITY)
        self.registry.configure_runtimes(batch_config={
            "max_batch": MAX_BATCH, "max_wait_ms": MAX_WAIT_MS, "max_queue": MAX_QUEUE})
        self.default = self.registry.acquire(None)  # the server pins its default site
        self.admission = AdmissionController(max_queue=MAX_QUEUE)
        self.dispatches = _Dispatches(log)
        self.shed = 0

    def close(self) -> None:
        self.registry.release(self.default)
        self.registry.close()

    def _timed(self, runtime) -> None:
        """Route a runtime's dispatches through the notes, before its batcher exists."""
        if not getattr(runtime, "_perfbench_timed", False):
            runtime.service.locate_many = self.dispatches.wrap(
                runtime.site_id, runtime.service.locate_many)
            runtime._perfbench_timed = True

    def handle(self, rid: int, req: Request) -> Tuple[int, bytes]:
        from repro.serve import Priority, canonical_json, estimate_to_json, observation_from_json

        log, now, site = self.log, self.log.now, req.key
        t0 = now()
        runtime = self.registry.acquire(site)
        t1 = now()
        self._timed(runtime)
        self.shed += self.admission.admit(Priority.NORMAL, runtime.batcher.queue_depth()) is not None
        t2 = now()
        observation = observation_from_json(json.loads(req.body), expect_site=site)
        t3 = now()
        estimate = runtime.batcher.submit(observation).result()
        t4 = now()
        self.registry.release(runtime)
        t5 = now()
        body = canonical_json(estimate_to_json(estimate))
        t6 = now()
        started = self.dispatches.pop(observation)
        root = log.record("request", t0, t6, rid)
        log.record("serve.registry.acquire", t0, t1, rid, root)
        log.record("serve.resilience.admit", t1, t2, rid, root)
        log.record("serve.wire.decode", t2, t3, rid, root)
        log.record("serve.batcher.queue_wait", t3, started, rid, root)
        log.record("serve.batcher.dispatch", started, t4, rid, root)
        log.record("serve.registry.release", t4, t5, rid, root)
        log.record("serve.wire.encode", t5, t6, rid, root)
        return 200, body


class _Replay:
    """A sender that hands requests to a stack instead of a socket."""

    def __init__(self, stack):
        self.stack = stack

    def send(self, rid: int, req: Request) -> Tuple[int, bytes]:
        return self.stack.handle(rid, req)

    def close(self) -> None:
        pass


def _stack_builder(inputs: Inputs, services: Dict[str, object]):
    if inputs.workload == "fleet-churn":
        return lambda log: FleetStack(inputs.fleet_dir, log)
    if inputs.workload == "track-walk":
        return lambda log: TrackStack(services[""], log)
    return lambda log: LocateStack(services[""], log)


# -- probes ---------------------------------------------------------------
def _observations(requests: Sequence[Request], site: str, n: int) -> list:
    """The first ``n`` scans of the stream (of one fleet site, if ``site``)."""
    from repro.serve import observation_from_json

    docs = [json.loads(r.body) for r in requests if r.ops and (not site or r.key == site)]
    return [observation_from_json(d) for d in docs[:n]]


def probe_step_us(service, observations: Sequence[object]) -> float:
    """Median ``TrackingSessions.step`` time minus queue wait, steps sent one at a time."""
    dispatches = _Dispatches(SpanLog(True))
    sessions = _sessions(service, dispatches)
    samples = []
    try:
        for k, observation in enumerate(observations):
            t0 = time.perf_counter()
            future, _ = sessions.step(f"probe-{k // 5}", observation, 1.0)
            queued = time.perf_counter()
            future.result()
            t1 = time.perf_counter()
            samples.append((t1 - t0) - max(0.0, dispatches.pop(observation) - queued))
    finally:
        sessions.stop()
    return 1e6 * statistics.median(samples)


def probe_registry(model, cold_loads: int = 21, hits: int = 201) -> Tuple[float, float]:
    """(hit acquire+release in us, median cold acquire in ms) on a one-site registry."""
    from repro.serve import ModelRegistry, SiteDefinition

    pack, ap_positions, bounds = model
    definition = SiteDefinition("probe", pack, ap_positions=ap_positions, bounds=bounds)
    cold, hot = [], []
    for k in range(cold_loads):
        registry = ModelRegistry({"probe": definition}, capacity=1)
        try:
            t = time.perf_counter()
            runtime = registry.acquire("probe")
            cold.append(time.perf_counter() - t)
            registry.release(runtime)
            if k == cold_loads - 1:
                for _ in range(hits):
                    t = time.perf_counter()
                    registry.release(registry.acquire("probe"))
                    hot.append(time.perf_counter() - t)
        finally:
            registry.close()
    return 1e6 * statistics.median(hot), 1000.0 * statistics.median(cold)


def probe_setup(inputs: Inputs, models: Dict[str, tuple], root: Path) -> Dict[str, float]:
    """Interpreter import, pack load, model fit and server start, each a median."""
    from repro.core.frozenpack import load_database
    from repro.serve import LocalizationHTTPServer, ModelRegistry

    imports = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(root),
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(proc.stdout.strip()))
    loads, fits = [], []
    reps = max(3, -(-21 // len(models)))  # at least 21 samples: 10 beyond the median
    for model in models.values():
        for _ in range(reps):
            t = time.perf_counter()
            database = load_database(model[0])
            loads.append(time.perf_counter() - t)
            t = time.perf_counter()
            build_service(model, database)
            fits.append(time.perf_counter() - t)
    starts = []
    for _ in range(21):
        if inputs.fleet_dir is not None:
            server = LocalizationHTTPServer(registry=ModelRegistry(
                str(inputs.fleet_dir / "fleet.json"), capacity=spec.FLEET_CAPACITY))
        else:
            server = LocalizationHTTPServer(build_service(models[""]))
        t = time.perf_counter()
        server.start()
        starts.append(time.perf_counter() - t)
        server.stop()
    return {
        "setup.import_s": statistics.median(imports),
        "core.frozenpack.load_ms": 1000.0 * statistics.median(loads),
        "serve.service.fit_ms": 1000.0 * statistics.median(fits),
        "setup.start_ms": 1000.0 * statistics.median(starts),
    }


def kernel_pass(batches: Sequence[Tuple[str, list]], models: Dict[str, tuple],
                max_obs: int = 3000) -> Dict[str, float]:
    """Each fallback tier's ``locate_many`` on the batches the replay dispatched."""
    from repro.algorithms.base import make_localizer
    from repro.core.frozenpack import load_database

    tiers: Dict[str, tuple] = {}
    seconds = [0.0, 0.0, 0.0]
    n = declined = 0
    for site, observations in batches:
        if n >= max_obs:
            break
        if site not in tiers:
            pack, ap_positions, _ = models[site]
            database = load_database(pack)
            tiers[site] = (
                build_service(models[site], database),
                make_localizer("geometric", ap_positions=ap_positions).fit(database),
                make_localizer("probabilistic").fit(database),
            )
        for k, model in enumerate(tiers[site]):
            t = time.perf_counter()
            answers = model.locate_many(observations)
            seconds[k] += time.perf_counter() - t
            if k == 0:
                declined += sum(1 for e in answers if e.details.get("declined"))
        n += len(observations)
    return {
        "serve.service.locate_many_us_per_obs": 1e6 * seconds[0] / n,
        "algorithms.geometric.us_per_obs": 1e6 * seconds[1] / n,
        "algorithms.probabilistic.us_per_obs": 1e6 * seconds[2] / n,
        "algorithms.fallback.decline_ratio": declined / n,
    }


def overhead_ratio(build, sample: Sequence[Request], reps: int = 3) -> float:
    """Replay time with spans on over the same replay with spans off (median of reps)."""
    runs: Dict[bool, List[float]] = {True: [], False: []}
    for r in range(reps):
        for enabled in ((True, False) if r % 2 == 0 else (False, True)):
            stack = build(SpanLog(enabled))
            try:
                t = time.perf_counter()
                for i, req in enumerate(sample):
                    stack.handle(i, req)
                runs[enabled].append(time.perf_counter() - t)
            finally:
                stack.close()
    return statistics.median(runs[True]) / statistics.median(runs[False])


# -- the traced run ---------------------------------------------------------
def traced_run(inputs: Inputs, seconds: float, run: RunResult, expected: Expected,
               root: Path, spans_path: Path) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics for one workload (see the module docstring)."""
    workload = spec.WORKLOADS[inputs.workload]
    models = model_specs(inputs)
    services = {"": build_service(models[""])} if "" in models else {}
    build = _stack_builder(inputs, services)
    log = SpanLog(True)
    stack = build(log)
    try:
        sample = [r for r in inputs.requests if r.due_s < seconds / 2]
        outcomes, _ = drive_open(sample, workload.connections, lambda: _Replay(stack))
    finally:
        stack.close()
    replay_failed = sum(
        not check(inputs.requests[o.index], o.status, o.body, expected, o.index)[0]
        for o in outcomes
    )
    log.write_jsonl(spans_path)

    per = {rid: names for rid, names in log.self_times().items() if "request" in names}
    stages: Dict[str, List[float]] = defaultdict(list)
    for names in per.values():
        for name, self_s in names.items():
            if name != "request":
                stages[name].append(self_s)
    stage_p50_ms = {name: 1000.0 * statistics.median(v) for name, v in sorted(stages.items())}
    replayed = {o.index for o in outcomes}
    op_outcomes = [o for o in run.outcomes if inputs.requests[o.index].ops]
    seen_ms = [lat for o, lat in zip(op_outcomes, run.latencies_ms) if o.index in replayed]
    latency_p50 = statistics.median(seen_ms)
    replayed_ops = sum(inputs.requests[o.index].ops for o in outcomes)

    metrics: Dict[str, float] = {
        "serve.http.residual_ms_p50": latency_p50 - sum(stage_p50_ms.values()),
        "serve.wire.decode_us_per_obs": 1e6 * sum(stages["serve.wire.decode"]) / replayed_ops,
        "serve.wire.encode_us_per_obs": 1e6 * sum(stages["serve.wire.encode"]) / replayed_ops,
        "serve.resilience.admit_us": 1e6 * statistics.median(stages["serve.resilience.admit"]),
        "serve.resilience.shed": run.server["shed"] + stack.shed,
        "serve.batcher.batch_size_mean": run.server["batch_size_mean"],
        "serve.batcher.queue_wait_ms_p50": stage_p50_ms["serve.batcher.queue_wait"],
        "serve.batcher.dispatches": run.server["dispatches"],
        "serve.sessions.created": run.server["sessions_created"],
        "serve.sessions.closed": run.server["sessions_closed"],
        "serve.sessions.live_peak": getattr(stack, "live_peak", 0),
        "serve.registry.hit_ratio": run.server["site_hit_ratio"],
        "serve.registry.cold_loads": run.server["site_loads"],
        "serve.registry.evictions": run.server["site_evictions"],
        "client.late_ms_p95": percentile(run.late_ms, 0.95)[0],
    }
    if "serve.sessions.step" in stages:
        metrics["serve.sessions.step_us"] = 1000.0 * stage_p50_ms["serve.sessions.step"]
    else:  # a locate workload: step its scans through a session engine
        site = DEFAULT_SITE if inputs.fleet_dir is not None else ""
        metrics["serve.sessions.step_us"] = probe_step_us(
            services.get(site) or build_service(models[site]),
            _observations(inputs.requests, site, 60))
    if inputs.fleet_dir is not None:
        hot = [n["serve.registry.acquire"] + n["serve.registry.release"]
               for rid, n in per.items() if not inputs.requests[rid].cold]
        cold = [n["serve.registry.acquire"] for rid, n in per.items() if inputs.requests[rid].cold]
        metrics["serve.registry.hit_us"] = 1e6 * statistics.median(hot)
        metrics["serve.registry.cold_load_ms_p50"] = 1000.0 * statistics.median(cold)
    else:
        metrics["serve.registry.hit_us"], metrics["serve.registry.cold_load_ms_p50"] = (
            probe_registry(models[""]))
    metrics.update(kernel_pass(stack.dispatches.batches, models))
    metrics.update(probe_setup(inputs, models, root))
    metrics["obs.trace_overhead_ratio"] = overhead_ratio(build, inputs.requests[:60])
    extra = {
        "replay": {
            "requests": len(outcomes),
            "failed": replay_failed,
            "spans": len(log.spans),
            "stage_p50_ms": stage_p50_ms,
            "client_latency_p50_ms": latency_p50,
            "residual_ms": metrics["serve.http.residual_ms_p50"],
        },
    }
    return metrics, extra
