"""OBS-OVERHEAD — instrumentation must cost <5 % on the PERF-BATCH path.

The observability layer (metric counters, latency histograms, span
plumbing in ``Localizer.locate_many``) rides on every request, so its
cost has to be provably negligible before any perf PR can trust the
numbers it reports.  This bench times the PERF-BATCH workload three
ways:

* **raw** — the unwrapped implementation (``locate_many.__wrapped__``),
  exactly what ran before instrumentation existed;
* **instrumented** — the public path, metrics enabled (the default);
* **disabled** — the public path with ``obs.set_enabled(False)``, the
  degraded mode a latency-critical deployment could choose.

Best-of-N timing on both sides squeezes out scheduler noise; the gate
is instrumented/raw < 1.05.  Run standalone (CI check mode) with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import time

from conftest import record

from repro import obs
from repro.algorithms.probabilistic import ProbabilisticLocalizer

N_OBSERVATIONS = 400
REPEATS = 9
MAX_OVERHEAD = 0.05


def _best_of(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_obs_overhead_under_5_percent(house, training_db, test_points):
    observations = house.observe_all(
        list(test_points) * (N_OBSERVATIONS // len(test_points) + 1),
        rng=7,
        dwell_s=5.0,
    )[:N_OBSERVATIONS]

    loc = ProbabilisticLocalizer().fit(training_db)
    raw_fn = type(loc).locate_many.__wrapped__

    # Warm both paths (allocator, caches) before timing.
    raw_fn(loc, observations)
    loc.locate_many(observations)

    t_raw = _best_of(lambda: raw_fn(loc, observations))
    t_instr = _best_of(lambda: loc.locate_many(observations))
    previous = obs.set_enabled(False)
    try:
        t_disabled = _best_of(lambda: loc.locate_many(observations))
    finally:
        obs.set_enabled(previous)

    overhead = t_instr / t_raw - 1.0
    overhead_disabled = t_disabled / t_raw - 1.0

    lines = [
        f"Instrumentation overhead on PERF-BATCH ({N_OBSERVATIONS} obs, best of {REPEATS})",
        f"{'path':<22s}{'ms':>10s}{'overhead':>10s}",
        f"{'raw (unwrapped)':<22s}{1000 * t_raw:>10.2f}{'—':>10s}",
        f"{'instrumented':<22s}{1000 * t_instr:>10.2f}{100 * overhead:>9.1f}%",
        f"{'obs disabled':<22s}{1000 * t_disabled:>10.2f}{100 * overhead_disabled:>9.1f}%",
    ]
    record("OBS-OVERHEAD", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"instrumented PERF-BATCH path is {100 * overhead:.1f}% slower than raw "
        f"(budget {100 * MAX_OVERHEAD:.0f}%)"
    )


def test_tracing_overhead_under_5_percent(house, training_db, test_points):
    """Request tracing (context + recorder, sampling on) rides the gate.

    The traced-serving scenario: every request runs under a bound
    :class:`~repro.obs.TraceContext` with the flight recorder installed
    and ``sample_every=1`` (the worst case — production can sample
    down, the bench must not).  Per request that is an edge span, a
    recorder begin/record/finish, and an exemplar-carrying histogram
    observation — everything ``serve.http`` adds around the kernel.
    The baseline is the same kernel with no context bound, which is
    the same code path every non-serving caller takes.
    """
    from repro.obs.trace import FlightRecorder, TraceContext

    observations = house.observe_all(
        list(test_points) * (N_OBSERVATIONS // len(test_points) + 1),
        rng=13,
        dwell_s=5.0,
    )[:N_OBSERVATIONS]
    loc = ProbabilisticLocalizer().fit(training_db)

    def untraced():
        loc.locate_many(observations)

    def traced():
        recorder = FlightRecorder(sample_every=1)
        previous = obs.set_recorder(recorder)
        try:
            ctx = TraceContext.mint()
            recorder.begin(ctx, endpoint="locate_batch")
            with obs.bind(ctx):
                with obs.span("serve.request", endpoint="locate_batch"):
                    loc.locate_many(observations)
            recorder.finish(ctx.trace_id, status="ok")
            obs.histogram("serve.http_latency_ms", endpoint="locate_batch").observe(
                1.0, trace_id=ctx.trace_id
            )
        finally:
            obs.set_recorder(previous)

    untraced()
    traced()  # warm both paths
    t_untraced = _best_of(untraced)
    t_traced = _best_of(traced)

    overhead = t_traced / t_untraced - 1.0
    lines = [
        f"Tracing overhead on PERF-BATCH ({N_OBSERVATIONS} obs, best of {REPEATS})",
        f"{'path':<22s}{'ms':>10s}{'overhead':>10s}",
        f"{'untraced':<22s}{1000 * t_untraced:>10.2f}{'—':>10s}",
        f"{'traced + recorder':<22s}{1000 * t_traced:>10.2f}{100 * overhead:>9.1f}%",
    ]
    record("OBS-TRACE-OVERHEAD", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"traced serving path is {100 * overhead:.1f}% slower than untraced "
        f"(budget {100 * MAX_OVERHEAD:.0f}%)"
    )
