"""BENCH-SERVE — closed-loop load against the micro-batching service.

32 keep-alive single-shot clients drive ``POST /v1/locate`` through
three serving modes.  The model, wire format and admission control are
the same in each; only the batching differs:

* ``batch-size-1`` — ``max_batch=1``: every request dispatches alone;
* ``default`` — the server's defaults: greedy dispatch, whatever is
  queued (up to 64) goes out as soon as the dispatcher is free;
* ``window-2ms`` — ``max_wait_ms=2``: the first queued request waits up
  to 2 ms for company, the window the other closed-loop benches
  (BENCH-TRACK, BENCH-SITES, BENCH-RESILIENCE) serve with.

One run per mode cannot carry a comparison on a shared host: identical
(64, 2 ms) rounds in one process ran anywhere from about 600 to 1500
req/s, following the host rather than the program.  So the bench runs
``ROUNDS`` rounds, rotating which mode goes first, and reports each
mode's median.  Each median is gated by a conservative absolute floor.
The default/batch-size-1 ratio is reported but not gated: faster
kernels make unbatched serving faster too, so the ratio shrinks when
the service improves.

Load comes from ``loadgen`` — the same :class:`repro.serve.client`
-based generator BENCH-RESILIENCE uses — so both benches share one
client and one result schema, including the ``error_budget`` breakdown
(2xx / 429 / 504 / transport error).  Under this bench's sizing the
budget must be all-ok and every answer valid: anything else is a
failure, not a statistic.

Numbers land machine-readable in ``benchmarks/results/BENCH_SERVE.json``
alongside the paper-style table.
"""

from __future__ import annotations

import json
import statistics

from conftest import RESULTS_DIR, record
from loadgen import observation_doc, run_load, summarize

from repro.serve import LocalizationHTTPServer, LocalizationService

N_WORKERS = 32
REQUESTS_PER_WORKER = 40
WARMUP_PER_WORKER = 3
ROUNDS = 5

#: Serving modes as ``LocalizationHTTPServer`` keywords (none: its defaults).
MODES = {
    "batch-size-1": {"max_batch": 1},
    "default": {},
    "window-2ms": {"max_wait_ms": 2.0},
}

#: Acceptance floors on each mode's median req/s.  Deliberately
#: conservative, since CI machines vary: on a shared 2-core host two
#: runs gave medians of 440–470 (batch-size-1), 600–700 (default) and
#: 620–740 req/s (window-2ms).  BENCH-SITES derives its
#: cache-hit floor from the window-2ms one.
MIN_RPS = {"batch-size-1": 100.0, "default": 150.0, "window-2ms": 150.0}


def _measure(service, docs, label):
    with LocalizationHTTPServer(service, max_queue=4096, **MODES[label]) as server:
        # Warmup: populate caches, spin up worker connections once.
        run_load(server.port, docs, N_WORKERS, WARMUP_PER_WORKER)
        wall, reports = run_load(server.port, docs, N_WORKERS, REQUESTS_PER_WORKER)
        knobs = {
            "max_batch": server.batcher.max_batch,
            "max_wait_ms": 1000.0 * server.batcher.max_wait_s,
        }
    bad = [r for r in reports if not r.ok or not (r.doc or {}).get("valid")]
    result = summarize(label, wall, reports, **knobs)
    assert not bad, (
        f"{label}: non-ok/invalid answers under load "
        f"(budget {result['error_budget']}): "
        f"{[(r.category, r.status) for r in bad[:5]]}"
    )
    return result


def test_serve_load_per_mode_floors(house, training_db, test_points):
    service = LocalizationService(
        training_db,
        ap_positions=house.ap_positions_by_bssid(),
        bounds=house.bounds(),
    )
    observations = house.observe_all(test_points, rng=5, dwell_s=5.0)
    docs = [observation_doc(o) for o in observations]

    labels = list(MODES)
    runs = {label: [] for label in labels}
    for r in range(ROUNDS):
        for label in labels[r % len(labels):] + labels[: r % len(labels)]:
            runs[label].append(_measure(service, docs, label))

    modes = {}
    for label, rs in runs.items():
        modes[label] = {
            "max_batch": rs[0]["max_batch"],
            "max_wait_ms": rs[0]["max_wait_ms"],
            "rps": [r["rps"] for r in rs],  # per round, in round order
            "median_rps": round(statistics.median(r["rps"] for r in rs), 1),
            "median_p50_ms": round(statistics.median(r["p50_ms"] for r in rs), 2),
            "median_p99_ms": round(statistics.median(r["p99_ms"] for r in rs), 2),
            "floor_rps": MIN_RPS[label],
            "error_budget": {
                k: sum(r["error_budget"][k] for r in rs) for k in rs[0]["error_budget"]
            },
        }
    ratio = modes["default"]["median_rps"] / modes["batch-size-1"]["median_rps"]

    lines = [
        f"Closed-loop /v1/locate load: {N_WORKERS} keep-alive workers, "
        f"{N_WORKERS * REQUESTS_PER_WORKER} requests per run, "
        f"{ROUNDS} rounds in rotating mode order (medians)",
        f"{'serving mode':<14s}{'batch':>6s}{'wait ms':>8s}{'req/s':>9s}"
        f"{'floor':>7s}{'p50 ms':>8s}{'p99 ms':>8s}{'ok':>7s}",
    ]
    for label, m in modes.items():
        lines.append(
            f"{label:<14s}{m['max_batch']:>6d}{m['max_wait_ms']:>8.1f}"
            f"{m['median_rps']:>9.1f}{m['floor_rps']:>7.0f}"
            f"{m['median_p50_ms']:>8.1f}{m['median_p99_ms']:>8.1f}"
            f"{m['error_budget']['ok']:>7d}"
        )
    lines.append(f"default / batch-size-1: {ratio:.2f}x (reported, not gated)")
    record("BENCH-SERVE", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_SERVE.json").write_text(
        json.dumps(
            {
                "rounds": ROUNDS,
                "modes": modes,
                "default_over_batch_size_1": round(ratio, 3),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    slow = {
        label: m["median_rps"] for label, m in modes.items()
        if m["median_rps"] < m["floor_rps"]
    }
    assert not slow, f"median req/s below the per-mode floors {MIN_RPS}: {slow}"
