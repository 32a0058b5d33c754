"""Serving benchmark for ``repro serve``: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload locate-interactive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table
    python3 perfbench/run.py --smoke                     # the benchmark's own checks

The server is ``repro serve`` from this checkout's ``src``, started as
its own process.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it (``perfbench-record {...}``) holds
the whole record: each metric's direction, error rate, sample counts,
the environment and the host-speed calibration.  Generated inputs,
server logs, records and spans go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# setup_s is the median of this many cold starts, spread around the
# measured phase: the first half before it (the last of those serves
# it), the rest after it, so host slow stretches of about ten seconds
# touch only some of them.
COLD_STARTS = 15


def calibrate_ms() -> float:
    """Best of three timings of a fixed pure-Python loop: the host's speed now."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - t)
    return 1000.0 * best


def environment(source: str) -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Tuple[dict, dict]:
    """One run: set up, measure, check; returns (result line, record)."""
    import harness
    import inputs as inputs_mod
    import tracing

    workload = spec.WORKLOADS[name]
    for sub in ("cache", "logs", "runs", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    source = inputs_mod.source_digest(ROOT)
    inputs = inputs_mod.load(name, seed, seconds, WORK / "cache", source)
    expected = harness.expected_answers(inputs)
    calibration = {"start_ms": calibrate_ms()}
    log_path = WORK / "logs" / f"{name}-seed{seed}.log"
    setups = []

    def cold_start() -> "harness.ServerProcess":
        server = harness.ServerProcess(inputs.server_args, ROOT, log_path)
        setups.append(server.start())
        return server

    for _ in range(COLD_STARTS // 2):
        cold_start().stop()
    server = cold_start()
    try:
        run = harness.measure(server, inputs, workload.connections, expected)
    finally:
        server.stop()
    while len(setups) < COLD_STARTS:
        cold_start().stop()

    checks = {"no_shed": run.server["shed"] == 0}
    if name == "fleet-churn":
        checks["cold_loads_as_predicted"] = run.server["site_loads"] == inputs.predicted["cold_loads"]
        checks["evictions_as_predicted"] = run.server["site_evictions"] == inputs.predicted["evictions"]
    values = harness.end_to_end(setups, run)
    p95, beyond, gap = harness.percentile(run.latencies_ms, 0.95)
    record: Dict[str, object] = {
        "workload": name,
        "loop": workload.loop,
        "connections": workload.connections,
        "rate_per_s": workload.rate_per_s,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "stream_sha256": inputs.digest,
        "requests": len(run.outcomes),
        "latency_samples": len(run.latencies_ms),
        "p95_samples_beyond": beyond,
        "p95_local_gap": gap,
        "setup_s_samples": setups,
        "error_rate": run.failed / run.attempted,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": checks,
        "server_counters": run.server,
        "predicted": inputs.predicted,
        "end_to_end": {m.name: {"value": values[m.name], "unit": m.unit, "better": m.better}
                       for m in spec.END_TO_END},
    }
    chosen, chosen_values = spec.END_TO_END, values
    if trace:
        layer_values, extra = tracing.traced_run(
            inputs, seconds, run, expected, ROOT,
            WORK / "spans" / f"{name}-seed{seed}.jsonl")
        record.update(extra)
        checks["replay_answers"] = extra["replay"]["failed"] == 0
        record["per_layer"] = {m.name: {"value": layer_values[m.name], "unit": m.unit,
                                        "better": m.better} for m in spec.PER_LAYER}
        chosen, chosen_values = spec.PER_LAYER, layer_values
    calibration["end_ms"] = calibrate_ms()
    record["calibration"] = calibration
    record["env"] = environment(source)
    correct = run.failed == 0 and all(checks.values())
    record["correct"] = correct
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m.name: {"value": float(chosen_values[m.name]), "unit": m.unit}
                    for m in chosen},
    }
    (WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result, record


def smoke() -> int:
    """The benchmark's own checks (a few minutes): names, determinism, every metric."""
    import inputs as inputs_mod
    import steady

    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, entries in spec.benchmark_entries().items():
        if bench.get(key) != entries:
            problems.append(f"BENCHMARK.json {key!r} differs from perfbench/spec.py")
    for name in spec.WORKLOADS:
        first = inputs_mod.stream_digest(inputs_mod.generate(name, 7, 2.0)[0])
        again = inputs_mod.stream_digest(inputs_mod.generate(name, 7, 2.0)[0])
        other = inputs_mod.stream_digest(inputs_mod.generate(name, 8, 2.0)[0])
        if first != again:
            problems.append(f"{name}: seed 7 gave two different request streams")
        if first == other:
            problems.append(f"{name}: seeds 7 and 8 gave the same request stream")
    for name in spec.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = steady.run_once(name, 7, 2.0, trace)
            except RuntimeError as exc:
                problems.append(str(exc))
                continue
            record = result["record"]
            want = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
            got = {n: (v["unit"], v["better"]) for n, v in record[key].items()}
            if got != want or set(result["metrics"]) != set(want):
                problems.append(f"{name} trace {trace}: metric names/units/directions differ "
                                f"from BENCHMARK.json {key}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} trace {trace}: a metric is not a finite number")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: incorrect answers ({record['checks']})")
    for problem in problems:
        print(f"perfbench smoke: FAIL {problem}")
    print(f"perfbench smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("perfbench-record " + json.dumps(record, sort_keys=True), flush=True)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    chosen = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(f"{'metric':40s} " + " ".join(f"{n:>18s}" for n in names) + "  unit, better")
    for m in chosen:
        cells = " ".join(f"{results[n]['metrics'][m.name]['value']:18.4f}" for n in names)
        print(f"{m.name:40s} {cells}  {m.unit}, {m.better}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
