"""Steadiness of the benchmark: run workloads on many seeds, report quartile spreads.

Run from the repository root::

    python3 perfbench/steady.py --seeds 10 --out perfbench/results/steadiness.json
    python3 perfbench/steady.py --seeds 5 --workloads track-walk      # while tuning
    python3 perfbench/steady.py --trace --seeds 1 --out perfbench/results/layers.json
    python3 perfbench/steady.py --compare first.json second.json   # two sweeps' medians

For each workload and end-to-end metric it reports the median and the
first and third quartiles (``statistics.quantiles(values, n=4)``) over
the seeds, and the spread: (q3 - q1) / median.  A spread at or below a
third of the metric's bound in BENCHMARK.json is steady.  With
``--trace`` it runs the traced run instead and tabulates the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` run: its result line, with the full record under ``"record"``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2].split(" ", 1)[1])
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="print how far SECOND's medians moved from FIRST's (two reports)")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare)
        print(compare(first, second))
        return 0
    metrics = spec.PER_LAYER if args.trace else spec.END_TO_END
    report = {"seconds": args.seconds, "seeds": list(range(args.first_seed,
                                                           args.first_seed + args.seeds)),
              "trace": int(args.trace), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, int(args.trace))
                for seed in report["seeds"]]
        rows = {m.name: summarize([r["metrics"][m.name]["value"] for r in runs]) if len(runs) > 1
                else {"median": runs[0]["metrics"][m.name]["value"]} for m in metrics}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "env": runs[0]["record"]["env"],
            "calibration_ms": [r["record"]["calibration"] for r in runs],
            "metrics": rows,
        }
        if args.trace:
            report["workloads"][workload]["replay"] = [r["record"]["replay"] for r in runs]
        print(f"== {workload}  correct={report['workloads'][workload]['correct']}", flush=True)
        for m in metrics:
            row = rows[m.name]
            if "spread" in row:
                bound = getattr(m, "bound", None)
                verdict = ""
                if bound is not None:
                    verdict = ("steady" if row["spread"] <= bound / 3 else
                               "within bound" if row["spread"] <= bound else "TOO NOISY")
                print(f"  {m.name:38s} median {row['median']:12.4f}  q1 {row['q1']:12.4f}  "
                      f"q3 {row['q3']:12.4f}  spread {row['spread']:.3f}  bound {bound}  {verdict}",
                      flush=True)
            else:
                print(f"  {m.name:38s} {row['median']:12.4f} {m.unit}", flush=True)
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        out.with_suffix(".md").write_text(markdown(report, metrics), encoding="utf-8")
    return 0


def compare(first: dict, second: dict) -> str:
    """Markdown: each median of ``second`` against ``first``, worse-by as a share of it."""
    lines = ["| workload | metric | first median | second median | worse by | bound |",
             "|---|---|---:|---:|---:|---:|"]
    for workload, body in second["workloads"].items():
        for m in spec.END_TO_END:
            a = first["workloads"][workload]["metrics"][m.name]["median"]
            b = body["metrics"][m.name]["median"]
            worse = (b - a) / a if m.better == "lower" else (a - b) / a
            flag = "" if worse <= m.bound else " **over**"
            lines.append(f"| {workload} | `{m.name}` | {a:.4g} | {b:.4g} | {worse:+.3f}{flag} "
                         f"| {m.bound} |")
    lines += ["", "Host speed during each sweep: the calibration loop (ms, lower is faster), "
              "median over the runs' start and end timings; never compared, only recorded.", "",
              "| workload | first sweep | second sweep |", "|---|---:|---:|"]
    for workload in second["workloads"]:
        cells = [statistics.median(t for c in report["workloads"][workload]["calibration_ms"]
                                   for t in c.values()) for report in (first, second)]
        lines.append(f"| {workload} | {cells[0]:.2f} | {cells[1]:.2f} |")
    return "\n".join(lines) + "\n"


def markdown(report: dict, metrics) -> str:
    """The report as one table per workload (the committed results page)."""
    env = next(iter(report["workloads"].values()))["env"]
    lines = [
        f"Seeds {report['seeds'][0]}..{report['seeds'][-1]}, {report['seconds']:g} s per run; "
        f"{env['cores']}-core {env['machine']} host, Python {env['python']}, "
        f"numpy {env['numpy']}, commit {env['commit']}.",
        "",
    ]
    for workload, body in report["workloads"].items():
        lines += [f"### {workload}", ""]
        if report["trace"]:
            lines += ["| metric | value | unit |", "|---|---:|---|"]
            lines += [f"| `{m.name}` | {body['metrics'][m.name]['median']:.4g} | {m.unit} |"
                      for m in metrics]
            replay = body["replay"][0]
            lines += ["", f"Stage p50s (ms) of {replay['requests']} replayed requests, "
                      f"client p50 {replay['client_latency_p50_ms']:.3f} ms:", ""]
            lines += [f"- `{name}`: {value:.3f}" for name, value in replay["stage_p50_ms"].items()]
            lines += [f"- residual (`serve.http.residual_ms_p50`): {replay['residual_ms']:.3f}"]
        else:
            lines += ["| metric | median | q1 | q3 | spread | bound |", "|---|---:|---:|---:|---:|---:|"]
            for m in metrics:
                row = body["metrics"][m.name]
                lines.append(f"| `{m.name}` ({m.unit}) | {row['median']:.4g} | {row['q1']:.4g} | "
                             f"{row['q3']:.4g} | {row['spread']:.3f} | {m.bound} |")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
