"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of the names the benchmark prints and
the names ``BENCHMARK.json`` declares; ``run.py --smoke`` checks that
the two agree.  Every later performance claim names its metric and
workload from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Fleet shape for ``fleet-churn``: sites cycle house/office/warehouse.
FLEET_SITES = 8
FLEET_CAPACITY = 4


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # every workload is an open loop: requests go out on a seeded schedule
    connections: int
    rate_per_s: float  # open loop: mean arrivals (requests or steps) per second
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    call: str
    moves: str  # end-to-end metric: workload where it is large / where it is ~0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "locate-interactive", "open", 2, 60.0,
            "open loop, 2 conns, 60 req/s of single 5-sweep house scans: per-request cost dominates "
            "(HTTP, codec, 5 ms batch window); throughput_ops_s is a rate guard, cpu_ms_per_op capacity",
        ),
        Workload(
            "track-walk", "open", 2, 40.0,
            "open loop, 2 conns, 40 steps/s: devices join, walk at 4 ft/s stepping "
            "/v1/track every 2 s, then DELETE; session store, Kalman step, bigger answers",
        ),
        Workload(
            "fleet-churn", "open", 1, 40.0,
            "open loop, 1 conn, 40 req/s at random times over 8 sites at capacity 4, 20% to a "
            "non-resident site: registry eviction, pack load and fit on the request path",
        ),
    )
}

END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "spawn of repro serve to its first 200 answer; median of the run's 15 cold starts"),
    EndToEnd("throughput_ops_s", "ops/s", "higher", 0.25,
             "answered operations (scans or tracking steps) / wall time of the measured phase; "
             "on these open loops it is the offered rate unless the server falls behind, so it "
             "is a guard, and cpu_ms_per_op carries capacity"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "per request: from when it was due to the last response byte"),
    EndToEnd("latency_p95_ms", "ms", "lower", 0.25,
             "the same at the 95th percentile"),
    EndToEnd("valid_rate", "fraction", "higher", 0.2,
             "share of scans answered within 10 ft of ground truth"),
    EndToEnd("median_error_ft", "ft", "lower", 0.2,
             "median distance from ground truth (the filtered position on track-walk)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "VmHWM of the server process at the end of the run"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25,
             "server user+system CPU in the measured phase / answered operations"),
]

PER_LAYER: List[Layer] = [
    Layer("serve.http.residual_ms_p50", "ms", "lower",
          "client latency p50 minus the traced stage p50s (socket, parsing, threads, GIL)",
          "latency_p50_ms: locate-interactive, track-walk"),
    Layer("serve.wire.decode_us_per_obs", "us", "lower",
          "json.loads + observation_from_json",
          "cpu_ms_per_op: all"),
    Layer("serve.wire.encode_us_per_obs", "us", "lower",
          "estimate_to_json or track_estimate_to_json, + canonical_json",
          "cpu_ms_per_op: all; latency_p50_ms: track-walk"),
    Layer("serve.resilience.admit_us", "us", "lower",
          "AdmissionController.admit",
          "latency_p50_ms, error_rate: all"),
    Layer("serve.resilience.shed", "count", "lower",
          "requests shed: server serve.admission.shed delta plus replay sheds; must be 0",
          "latency_p50_ms, error_rate: all"),
    Layer("serve.batcher.queue_wait_ms_p50", "ms", "lower",
          "MicroBatcher.submit to the start of its dispatch",
          "latency_p50_ms: all"),
    Layer("serve.batcher.batch_size_mean", "count", "higher",
          "server /metrics.json serve.batch_size over the measured phase",
          "cpu_ms_per_op: locate-interactive"),
    Layer("serve.batcher.dispatches", "count", "lower",
          "server /metrics.json serve.batches over the measured phase",
          "cpu_ms_per_op: locate-interactive"),
    Layer("serve.service.locate_many_us_per_obs", "us", "lower",
          "LocalizationService.locate_many on the batches the replay dispatched",
          "cpu_ms_per_op: all"),
    Layer("algorithms.geometric.us_per_obs", "us", "lower",
          "geometric tier locate_many (make_localizer) on the same batches",
          "cpu_ms_per_op: all"),
    Layer("algorithms.probabilistic.us_per_obs", "us", "lower",
          "probabilistic tier locate_many (make_localizer) on the same batches",
          "cpu_ms_per_op: all"),
    Layer("algorithms.fallback.decline_ratio", "fraction", "lower",
          "share of scans a tier declined and a later tier scored again",
          "cpu_ms_per_op: all"),
    Layer("serve.sessions.step_us", "us", "lower",
          "TrackingSessions.step until its future resolves, minus the queue wait",
          "latency_p50_ms: track-walk / locate-*"),
    Layer("serve.sessions.created", "count", "higher",
          "sessions created (server counter delta)",
          "peak_rss_mb: track-walk"),
    Layer("serve.sessions.closed", "count", "higher",
          "sessions closed (server counter delta)",
          "peak_rss_mb: track-walk"),
    Layer("serve.sessions.live_peak", "count", "lower",
          "most sessions live at once in the replay's session store",
          "peak_rss_mb: track-walk"),
    Layer("serve.registry.hit_us", "us", "lower",
          "ModelRegistry.acquire + release on a resident site",
          "latency_p50_ms: fleet-churn"),
    Layer("serve.registry.cold_load_ms_p50", "ms", "lower",
          "ModelRegistry.acquire on a non-resident site",
          "latency_p95_ms: fleet-churn / locate-interactive"),
    Layer("serve.registry.hit_ratio", "fraction", "higher",
          "server serve.site.requests hits / all acquires in the measured phase",
          "latency_p95_ms: fleet-churn"),
    Layer("serve.registry.cold_loads", "count", "lower",
          "server serve.site.loads delta; repeats exactly for a seed",
          "latency_p95_ms: fleet-churn"),
    Layer("serve.registry.evictions", "count", "lower",
          "server serve.site.evictions delta",
          "latency_p95_ms: fleet-churn"),
    Layer("core.frozenpack.load_ms", "ms", "lower",
          "load_database(pack)",
          "setup_s: all; latency_p95_ms: fleet-churn"),
    Layer("serve.service.fit_ms", "ms", "lower",
          "LocalizationService built from a loaded database",
          "setup_s: all"),
    Layer("setup.import_s", "s", "lower",
          "fresh interpreter importing repro.serve and repro.cli",
          "setup_s: all"),
    Layer("setup.start_ms", "ms", "lower",
          "LocalizationHTTPServer.start()",
          "setup_s: all"),
    Layer("client.late_ms_p95", "ms", "lower",
          "how late the generator sent its requests past their due time",
          "validity of the open-loop runs"),
    Layer("obs.trace_overhead_ratio", "ratio", "lower",
          "traced replay time / the same replay with spans off",
          "validity of the traced run"),
]


def benchmark_entries() -> Dict[str, list]:
    """The ``workloads``, ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return {
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
