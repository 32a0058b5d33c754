"""Command-line entry points for the toolkit's utility programs.

The paper's components are "invoked in a single-line Dos command
window"; these are the equivalents (installed as console scripts):

``floorplan-processor``
    Run Processor commands — either a script file of commands (one per
    line; see :mod:`repro.core.processor` for the command set) or
    inline ``-c`` commands.

``floorplan-compositor``
    §4.2 verbatim: "creates images from a floor plan and marks the
    image with locations out of user-given coordinate values.  The
    coordinate values are given in the Dos command".

``training-db-generator``
    §4.3 verbatim: wi-scan collection (directory or zip) + location map
    → compressed training database.

``locate``
    Phase 2 end-to-end: training database (+ optional annotated plan
    for the geometric algorithm) + an observation (wi-scan file) →
    estimated coordinates and nearest named location.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, List, Optional, Sequence


def _fail(message: str) -> "NoReturn":  # noqa: F821 - py3.9 compat
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


# ----------------------------------------------------------------------
# observability plumbing shared by the pipeline commands
# ----------------------------------------------------------------------
def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON metrics snapshot (counters/gauges/histograms) to PATH "
        "and print the text summary",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the structured-JSON exporter payload (labels split out, "
        "schema-tagged; same document as `repro serve`'s /metrics.json)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="run the command as one trace and write it to PATH as flight-recorder "
        "JSONL (nested spans, wall/CPU ms; render with `repro obs traces PATH`)",
    )


@contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[None]:
    """Trace a command and write its --metrics/--metrics-json/--trace out.

    With ``--trace`` the command runs as one minted trace; a
    :class:`~repro.obs.FlightRecorder` collects its spans and is dumped
    as JSONL at the end.  Everything is written even when the command
    fails partway — a trace of a failed run is exactly when an operator
    wants one.
    """
    import json

    from repro import obs

    metrics_path = getattr(args, "metrics", None)
    metrics_json_path = getattr(args, "metrics_json", None)
    trace_path = getattr(args, "trace", None)
    recorder = ctx = previous = None
    if trace_path:
        recorder = obs.FlightRecorder()
        previous = obs.set_recorder(recorder)
        ctx = obs.TraceContext.mint()
        recorder.begin(ctx)
    status = "ok"
    try:
        with obs.bind(ctx) if ctx is not None else nullcontext():
            yield
    except BaseException as exc:
        status = type(exc).__name__
        raise
    finally:
        if recorder is not None:
            obs.set_recorder(previous)
            trace = recorder.finish(ctx.trace_id, status=status)
            recorder.dump_jsonl(trace_path)
            print(
                f"wrote trace {ctx.trace_id} ({len(trace['spans'])} span(s)) "
                f"to {trace_path}"
            )
        if metrics_path or metrics_json_path:
            snap = obs.snapshot()
            if metrics_path:
                Path(metrics_path).write_text(
                    json.dumps(snap, indent=2, sort_keys=True) + "\n", encoding="utf-8"
                )
                print(f"wrote metrics snapshot to {metrics_path}")
            if metrics_json_path:
                Path(metrics_json_path).write_text(obs.render_json(snap), encoding="utf-8")
                print(f"wrote JSON metrics payload to {metrics_json_path}")
            if metrics_path:
                print(obs.render_text(snap))


# ----------------------------------------------------------------------
# floorplan-processor
# ----------------------------------------------------------------------
def processor_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.core.processor import FloorPlanProcessor, ProcessorError

    parser = argparse.ArgumentParser(
        prog="floorplan-processor",
        description="Floor Plan Processor (paper §4.1), scriptable headless edition.",
    )
    parser.add_argument("script", nargs="?", help="file of processor commands, one per line")
    parser.add_argument(
        "-c",
        "--command",
        action="append",
        default=[],
        metavar="CMD",
        help="inline command (repeatable), e.g. -c 'load plan.gif' -c 'set-origin 40 360'",
    )
    args = parser.parse_args(argv)

    lines: List[str] = []
    if args.script:
        path = Path(args.script)
        if not path.is_file():
            _fail(f"script file not found: {path}")
        lines.extend(path.read_text(encoding="utf-8").splitlines())
    lines.extend(args.command)
    if not lines:
        parser.print_help()
        return 1

    proc = FloorPlanProcessor()
    try:
        for out in proc.run_script(lines):
            print(out)
    except ProcessorError as exc:
        _fail(str(exc))
    return 0


# ----------------------------------------------------------------------
# floorplan-compositor
# ----------------------------------------------------------------------
def compositor_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.core.compositor import FloorPlanCompositor
    from repro.core.floorplan import FloorPlan, FloorPlanError
    from repro.imaging.gif import write_gif

    parser = argparse.ArgumentParser(
        prog="floorplan-compositor",
        description=(
            "Floor Plan Compositor (paper §4.2): mark coordinate values "
            "(floor feet) onto an annotated floor plan."
        ),
    )
    parser.add_argument("plan", help="annotated floor-plan GIF (from the Processor)")
    parser.add_argument("output", help="output GIF path")
    parser.add_argument(
        "coordinates",
        nargs="*",
        type=float,
        metavar="XY",
        help="flat x y pairs in feet, e.g. 12.5 30 45 10",
    )
    parser.add_argument("--style", default="cross", help="mark style (cross/x/circle/dot/diamond)")
    parser.add_argument(
        "--pairs",
        action="store_true",
        help="treat coordinates as (true_x true_y est_x est_y) quadruples "
        "and draw true/estimate pairs with error lines",
    )
    # intermixed parsing lets flags appear before the coordinate list
    # without argparse greedily starving the nargs='*' positional.
    args = parser.parse_intermixed_args(list(argv) if argv is not None else None)

    try:
        plan = FloorPlan.load(args.plan)
        compositor = FloorPlanCompositor(plan)
    except (FloorPlanError, OSError, ValueError) as exc:
        _fail(str(exc))

    coords = args.coordinates
    if args.pairs:
        if len(coords) % 4 != 0:
            _fail(f"--pairs needs quadruples of numbers, got {len(coords)} values")
        from repro.core.compositor import EstimatePair
        from repro.core.geometry import Point

        pairs = [
            EstimatePair(Point(coords[i], coords[i + 1]), Point(coords[i + 2], coords[i + 3]))
            for i in range(0, len(coords), 4)
        ]
        image = compositor.render(pairs=pairs)
    else:
        if len(coords) % 2 != 0:
            _fail(f"coordinates must come in x y pairs, got {len(coords)} values")
        xy = [(coords[i], coords[i + 1]) for i in range(0, len(coords), 2)]
        image = compositor.render_coordinates(xy, style=args.style)
    write_gif(args.output, image)
    print(f"wrote {args.output} ({image.width}x{image.height})")
    return 0


# ----------------------------------------------------------------------
# training-db-generator
# ----------------------------------------------------------------------
def generator_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.core.trainingdb import TrainingDBError, generate_training_db

    parser = argparse.ArgumentParser(
        prog="training-db-generator",
        description=(
            "Training Database Generator (paper §4.3): wi-scan collection "
            "(directory or zip) + location map -> compressed .tdb database."
        ),
    )
    parser.add_argument("collection", help="directory or zip of *.wi-scan files")
    parser.add_argument("location_map", help="location map text file (<name> <x> <y>)")
    parser.add_argument("output", help="output .tdb path")
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="recover from damaged survey data (skip bad lines, quarantine bad "
        "files, report what was dropped) and allow sessions missing from the "
        "map to use their wi-scan position header",
    )
    parser.add_argument(
        "--ingest-report",
        metavar="PATH",
        help="also write the ingest report (files read/kept/skipped/quarantined) to PATH",
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)
    with _obs_session(args):
        try:
            db = generate_training_db(
                args.collection,
                args.location_map,
                output=args.output,
                strict=not args.lenient,
                lenient=args.lenient,
            )
        except (TrainingDBError, OSError, ValueError) as exc:
            _fail(str(exc))
        size = Path(args.output).stat().st_size
        print(
            f"wrote {args.output}: {len(db)} locations, {len(db.bssids)} APs, "
            f"{db.total_samples()} sweeps, {size} bytes"
        )
        report = db.ingest_report
        if report is not None and (args.lenient or not report.clean):
            print(report.summary())
        if args.ingest_report:
            if report is None:
                _fail("--ingest-report needs a file-based collection (directory or zip)")
            Path(args.ingest_report).write_text(report.summary() + "\n", encoding="utf-8")
            print(f"wrote ingest report to {args.ingest_report}")
    return 0


# ----------------------------------------------------------------------
# locate
# ----------------------------------------------------------------------
def locate_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.algorithms.base import available_algorithms

    parser = argparse.ArgumentParser(
        prog="locate",
        description="Phase 2: resolve a wi-scan observation against a training database.",
    )
    parser.add_argument("database", help=".tdb training database")
    parser.add_argument(
        "observations",
        nargs="+",
        metavar="observation",
        help="wi-scan file(s) to resolve; several files become one batched "
        "request through the vectorized scoring engine",
    )
    parser.add_argument(
        "--algorithm",
        default="probabilistic",
        help=f"one of: {', '.join(available_algorithms())}",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        metavar="N",
        help="batched-engine chunk size: observations scored per vectorized "
        "pass (default 256; bounds the working set)",
    )
    parser.add_argument(
        "--plan",
        help="annotated floor-plan GIF (needed for geometric/multilateration AP positions)",
    )
    parser.add_argument(
        "--fallback",
        action="store_true",
        help="use the degraded-mode fallback chain (geometric when --plan is "
        "given, then probabilistic, then nearest training point) and print "
        "which tier answered",
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="parse the observation in recovering mode (skip bad lines)",
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    if args.chunk_size is not None and args.chunk_size < 1:
        _fail(f"--chunk-size must be >= 1, got {args.chunk_size}")
    prev_config = None
    if args.chunk_size is not None:
        from repro.algorithms.engine import BatchConfig, set_batch_config

        prev_config = set_batch_config(BatchConfig(chunk_size=args.chunk_size))

    try:
        return _locate_run(args)
    finally:
        if prev_config is not None:
            from repro.algorithms.engine import set_batch_config

            set_batch_config(prev_config)


def _locate_run(args: argparse.Namespace) -> int:
    from repro.algorithms.base import Observation, make_localizer
    from repro.core.floorplan import FloorPlan, FloorPlanError
    from repro.core.frozenpack import load_database
    from repro.core.system import ap_positions_by_bssid, site_bounds
    from repro.wiscan.format import parse_wiscan

    with _obs_session(args):
        try:
            db = load_database(args.database)  # .tdb or frozen .tdbx
            sessions = [
                parse_wiscan(
                    Path(path).read_text(encoding="utf-8"),
                    source=path,
                    recover=args.lenient,
                )
                for path in args.observations
            ]
        except (ValueError, OSError) as exc:
            _fail(str(exc))

        algorithm = "fallback" if args.fallback else args.algorithm
        kwargs = {}
        needs_plan = algorithm in ("geometric", "multilateration")
        if needs_plan or (args.fallback and args.plan):
            if not args.plan:
                _fail(f"algorithm {algorithm!r} needs --plan for AP positions")
            plan = FloorPlan.load(args.plan)
            kwargs["ap_positions"] = ap_positions_by_bssid(plan, db)
            if args.fallback:
                try:
                    kwargs["bounds"] = site_bounds(plan)
                except FloorPlanError:
                    pass  # un-framed plan: chain runs without bounds
        try:
            localizer = make_localizer(algorithm, **kwargs).fit(db)
        except (KeyError, ValueError) as exc:
            _fail(str(exc))

        batch = [
            Observation(s.rssi_matrix(db.bssids), bssids=db.bssids) for s in sessions
        ]
        if len(batch) == 1:
            estimates = [localizer.locate(batch[0])]
        else:
            estimates = localizer.locate_many(batch)

        multi = len(batch) > 1
        any_invalid = False
        for path, estimate in zip(args.observations, estimates):
            if multi:
                print(f"{path}:")
            declined = estimate.details.get("declined") or ()
            for d in declined:
                print(f"tier {d['tier']} declined: {d['reason']}")
            if not estimate.valid or estimate.position is None:
                reason = estimate.details.get("reason", "insufficient data")
                print(f"no valid estimate ({reason})")
                any_invalid = True
                continue
            print(f"estimated position: ({estimate.position.x:.2f}, {estimate.position.y:.2f}) ft")
            if estimate.location_name:
                print(f"estimated location: {estimate.location_name}")
            if args.fallback:
                print(f"answered by tier: {estimate.details.get('tier')}")
    return 1 if any_invalid else 0


# ----------------------------------------------------------------------
# coverage-map
# ----------------------------------------------------------------------
def coverage_main(argv: Optional[Sequence[str]] = None) -> int:
    """Render a survey-derived signal heatmap over the annotated plan.

    Works from real artifacts only — the annotated floor plan and the
    training database — interpolating the surveyed RSSI into a
    continuous field (no simulator involved), so it is usable on data
    collected with actual hardware.
    """
    import numpy as np

    from repro.algorithms.tracking.particle import RSSIField
    from repro.core.floorplan import FloorPlan, FloorPlanError
    from repro.core.frozenpack import load_database
    from repro.core.heatmap import render_heatmap
    from repro.imaging.gif import write_gif

    parser = argparse.ArgumentParser(
        prog="coverage-map",
        description="Interpolated RSSI heatmap of one AP (or the strongest-AP index) "
        "from a training database, rendered over the annotated floor plan.",
    )
    parser.add_argument("plan", help="annotated floor-plan GIF (Processor output)")
    parser.add_argument("database", help=".tdb training database")
    parser.add_argument("output", help="output GIF path")
    parser.add_argument(
        "--ap",
        default="0",
        help="AP to map: a BSSID or a 0-based column index (default 0); "
        "'strongest' maps which AP wins per cell",
    )
    parser.add_argument("--resolution", type=float, default=2.0, help="grid pitch in feet")
    parser.add_argument("--alpha", type=float, default=0.55, help="overlay opacity")
    args = parser.parse_args(argv)

    try:
        plan = FloorPlan.load(args.plan)
        db = load_database(args.database)  # .tdb or frozen .tdbx
    except (FloorPlanError, ValueError, OSError) as exc:
        _fail(str(exc))
    if args.resolution <= 0:
        _fail(f"resolution must be positive, got {args.resolution}")

    positions = db.positions()
    x0, y0 = positions.min(axis=0)
    x1, y1 = positions.max(axis=0)
    xs = np.arange(x0, x1 + args.resolution / 2, args.resolution)
    ys = np.arange(y0, y1 + args.resolution / 2, args.resolution)
    gx, gy = np.meshgrid(xs, ys)
    field = RSSIField(db)
    expected = field.expected_rssi(np.column_stack([gx.ravel(), gy.ravel()]))
    expected = expected.reshape(ys.size, xs.size, len(db.bssids))

    if args.ap == "strongest":
        values = expected.argmax(axis=2).astype(float)
        title = "STRONGEST AP INDEX"
    else:
        if args.ap in db.bssids:
            index = db.bssids.index(args.ap)
        else:
            try:
                index = int(args.ap)
            except ValueError:
                _fail(f"--ap must be a BSSID, column index, or 'strongest'; got {args.ap!r}")
            if not 0 <= index < len(db.bssids):
                _fail(f"AP index {index} out of range (database has {len(db.bssids)} APs)")
        values = expected[:, :, index]
        title = f"AP {db.bssids[index].upper()} MEAN RSSI (DBM)"

    try:
        image = render_heatmap(plan, xs, ys, values, alpha=args.alpha, title=title)
    except (FloorPlanError, ValueError) as exc:
        _fail(str(exc))
    write_gif(args.output, image)
    print(f"wrote {args.output} ({image.width}x{image.height}, {values.size} cells)")
    return 0


# ----------------------------------------------------------------------
# simulate-survey
# ----------------------------------------------------------------------
def simulate_main(argv: Optional[Sequence[str]] = None) -> int:
    """Generate a complete synthetic site dataset in one command.

    Produces everything the other tools consume — annotated floor plan,
    wi-scan survey (directory + zip), location map, compiled ``.tdb``
    and a set of Phase-2 observation files with ground truth — so the
    whole toolkit can be exercised without any hardware, and the §5
    dataset can be regenerated bit-for-bit from a seed.
    """
    from pathlib import Path as _Path

    from repro.core.locationmap import LocationMap
    from repro.core.trainingdb import generate_training_db
    from repro.experiments.house import ExperimentHouse, HouseConfig
    from repro.wiscan.capture import CaptureSession, SurveyPoint
    from repro.wiscan.format import render_wiscan

    parser = argparse.ArgumentParser(
        prog="simulate-survey",
        description="Generate a synthetic site dataset (plan, wi-scan survey, "
        "location map, .tdb, test observations) from the calibrated simulator.",
    )
    parser.add_argument("output_dir", help="directory to populate")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--width", type=float, default=50.0, help="site width (ft)")
    parser.add_argument("--height", type=float, default=40.0, help="site height (ft)")
    parser.add_argument("--grid-step", type=float, default=10.0, help="training grid pitch (ft)")
    parser.add_argument("--aps", type=int, default=4, help="access-point count (3-13)")
    parser.add_argument("--dwell", type=float, default=90.0, help="survey dwell per point (s)")
    parser.add_argument("--tests", type=int, default=13, help="Phase-2 test observations")
    parser.add_argument("--zip", action="store_true", help="also pack the survey as a zip")
    args = parser.parse_args(argv)

    try:
        config = HouseConfig(
            width_ft=args.width,
            height_ft=args.height,
            grid_step_ft=args.grid_step,
            n_aps=args.aps,
            dwell_s=args.dwell,
            n_test_points=args.tests,
            site_seed=args.seed,
        )
    except ValueError as exc:
        _fail(str(exc))
    house = ExperimentHouse(config)
    out = _Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    plan_path = out / "plan.gif"
    house.floor_plan().save(plan_path)

    survey = house.survey(rng=args.seed)
    survey_dir = out / "survey"
    survey.save_directory(survey_dir)
    if args.zip:
        survey.save_zip(out / "survey.zip")

    map_path = out / "locations.txt"
    house.location_map().save(map_path)

    db_path = out / "training.tdb"
    db = generate_training_db(survey, house.location_map(), output=db_path)

    obs_dir = out / "observations"
    obs_dir.mkdir(exist_ok=True)
    capture = CaptureSession(house.scanner, dwell_s=min(args.dwell, 30.0))
    truth_lines = ["# ground truth: <file>\t<x_ft>\t<y_ft>"]
    for i, p in enumerate(house.test_points(seed=args.seed + 13)):
        session = capture.capture_point(
            SurveyPoint(f"test-{i + 1}", p), rng=args.seed * 1000 + i
        )
        fname = f"test-{i + 1}.wi-scan"
        (obs_dir / fname).write_text(render_wiscan(session), encoding="utf-8")
        truth_lines.append(f"observations/{fname}\t{p.x:.2f}\t{p.y:.2f}")
    (out / "ground_truth.txt").write_text("\n".join(truth_lines) + "\n", encoding="utf-8")

    print(f"wrote {out}/:")
    print(f"  plan.gif            annotated floor plan ({house.config.n_aps} APs)")
    print(f"  survey/             {len(survey)} wi-scan files ({db.total_samples()} sweeps)")
    if args.zip:
        print("  survey.zip          same survey, zipped")
    print(f"  locations.txt       {len(house.location_map())} named locations")
    print(f"  training.tdb        {db_path.stat().st_size} bytes")
    print(f"  observations/       {args.tests} Phase-2 wi-scan files + ground_truth.txt")
    return 0


# ----------------------------------------------------------------------
# repro serve — the localization service front door
# ----------------------------------------------------------------------
def _chaos_kwargs(args: argparse.Namespace):
    """--chaos → ChaosPolicy constructor kwargs (None when off).

    ``--chaos`` alone enables a representative default mix (injected
    dispatch latency + tier faults); any explicit ``--chaos-*`` rate
    overrides the defaults.  Without ``--chaos`` the knobs are inert —
    chaos must be asked for by name.  Returned as kwargs (not a
    policy) for :class:`~repro.serve.workers.WorkerSpec`, from which
    each worker builds its own seed-offset policy.
    """
    if not args.chaos:
        return None
    latency_ms = args.chaos_latency_ms
    tier_error_rate = args.chaos_tier_error_rate
    if (
        latency_ms == 0.0
        and tier_error_rate == 0.0
        and args.chaos_reset_rate == 0.0
        and args.chaos_slowloris_rate == 0.0
    ):
        latency_ms, tier_error_rate = 25.0, 0.25  # the default mix
    return {
        "latency_ms": latency_ms,
        "latency_rate": args.chaos_latency_rate,
        "latency_jitter_ms": args.chaos_latency_jitter_ms,
        "tier_error_rate": tier_error_rate,
        "tiers": tuple(t for t in (args.chaos_tiers or "").split(",") if t),
        "reset_rate": args.chaos_reset_rate,
        "slowloris_rate": args.chaos_slowloris_rate,
        "seed": args.chaos_seed,
    }


def _check_serve_args(args: argparse.Namespace) -> None:
    """Exit 2 on bad serve flags, before anything binds or forks."""
    for flag, value in (
        ("--max-batch", args.max_batch),
        ("--max-queue", args.max_queue),
        ("--session-capacity", args.session_capacity),
        ("--workers", args.workers),
        ("--site-capacity", args.site_capacity),
    ):
        if value < 1:
            _fail(f"{flag} must be >= 1, got {value}")
    # NaN passes every comparison-based check and inf never elapses: a
    # non-finite wait, deadline, brake or TTL hangs or misbehaves.
    for flag, value, floor in (
        ("--max-wait-ms", args.max_wait_ms, ">= 0"),
        ("--drain-deadline-s", args.drain_deadline_s, ">= 0"),
        ("--default-deadline-ms", args.default_deadline_ms, "> 0"),
        ("--p99-limit-ms", args.p99_limit_ms, "> 0"),
        ("--session-ttl-s", args.session_ttl_s, "> 0"),
        ("--for-seconds", args.for_seconds, "> 0"),
    ):
        if value is not None and not (
            math.isfinite(value) and (value >= 0 if floor == ">= 0" else value > 0)
        ):
            _fail(f"{flag} must be finite and {floor}, got {value}")
    # Past threading.TIMEOUT_MAX a wait raises OverflowError; a request
    # waits its deadline plus the handler's slack.
    from repro.serve.clock import waitable
    from repro.serve.http import waitable_budget

    for flag, value, ok in (
        ("--max-wait-ms", args.max_wait_ms, waitable(args.max_wait_ms / 1000.0)),
        ("--default-deadline-ms", args.default_deadline_ms,
         args.default_deadline_ms is None
         or waitable_budget(args.default_deadline_ms / 1000.0)),
        ("--for-seconds", args.for_seconds,
         args.for_seconds is None or waitable(args.for_seconds)),
    ):
        if not ok:
            _fail(f"{flag} must be finite and small enough to wait on, got {value}")
    if args.sites is None and args.database is None:
        _fail("serve needs a training database (or --sites FLEET)")
    if args.sites is not None and args.database is not None:
        _fail("give either a single database or --sites, not both")
    if args.sites is not None and args.plan:
        _fail("--plan is single-site; fleet manifests carry per-site ap_positions")
    if args.sites is None and args.default_site is not None:
        _fail("--default-site needs --sites")


def _print_banner(
    args: argparse.Namespace, url: str, info: dict, extra: List[str], chaos
) -> None:
    """The startup banner of both modes.  ``info`` is the default site's
    model card; the first line is machine-readable on purpose (tests,
    benches and perfbench launch ``repro serve --port 0`` and parse it)."""
    model = f"{info['algorithm']} ({info['locations']} locations, {info['aps']} APs"
    if info.get("tiers"):
        model += f"; tiers: {'>'.join(info['tiers'])}"
    model += ")"
    lines = [
        f"serving {url}  model: {model}",
        f"micro-batching: max_batch={args.max_batch} "
        f"max_wait_ms={args.max_wait_ms} max_queue={args.max_queue}",
        f"resilience: breakers={'off' if args.no_breakers else 'on'} "
        f"p99_limit_ms={args.p99_limit_ms} "
        f"drain_deadline_s={args.drain_deadline_s}",
        f"tracking: filter={args.track_filter} "
        f"session_capacity={args.session_capacity} "
        f"session_ttl_s={args.session_ttl_s}",
        *extra,
    ]
    if chaos is not None:
        lines.append(f"chaos: {chaos.describe()}")
    if args.for_seconds is None:
        lines.append("Ctrl-C to stop")
    print("\n".join(lines), flush=True)


def _serve_cmd(args: argparse.Namespace) -> int:
    """``repro serve``: one :class:`~repro.serve.workers.WorkerSpec` from
    the flags, served by this process (``--workers 1``: worker 0 built
    in-process by :func:`~repro.serve.workers.build_server`) or by a
    :class:`~repro.serve.workers.Supervisor` of N forked workers."""
    import os
    import signal
    import tempfile
    import threading

    from repro.core.floorplan import FloorPlan, FloorPlanError
    from repro.core.system import ap_positions_by_bssid, site_bounds
    from repro.serve.registry import UnknownSiteError, load_fleet, one_site_fleet
    from repro.serve.workers import Supervisor, WorkerSpec, build_server, install_recorder

    _check_serve_args(args)
    ap_positions = None
    bounds = None
    if args.plan:
        try:
            from repro.core.frozenpack import load_database

            plan = FloorPlan.load(args.plan)
            db_for_plan = load_database(args.database)  # .tdb or frozen .tdbx
            ap_positions = ap_positions_by_bssid(plan, db_for_plan)
        except (FloorPlanError, ValueError, OSError) as exc:
            _fail(str(exc))
        try:
            bounds = site_bounds(plan)
        except FloorPlanError:
            pass  # un-framed plan: serve without bounds filtering
    elif args.sites is None and args.algorithm in ("geometric", "multilateration"):
        _fail(f"algorithm {args.algorithm!r} needs --plan for AP positions")
    spec = WorkerSpec(
        # One database is a fleet of one building: every server is a
        # ModelRegistry.  A --sites path stays a path, so a restarted
        # worker reads the manifest as it is on disk.
        sites=args.sites if args.sites is not None else one_site_fleet(
            args.database, args.algorithm, ap_positions, bounds
        ),
        host=args.host,
        port=args.port,
        breakers=not args.no_breakers,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        p99_limit_ms=args.p99_limit_ms,
        drain_deadline_s=args.drain_deadline_s,
        track_filter=args.track_filter,
        session_capacity=args.session_capacity,
        session_ttl_s=args.session_ttl_s,
        chaos_kwargs=_chaos_kwargs(args),
        default_site=args.default_site,
        site_capacity=args.site_capacity,
    )
    server = supervisor = None
    extra: List[str] = []
    try:
        # The chaos rates, the manifest and the default site fail here,
        # before anything binds or forks.
        chaos = spec.chaos_policy()
        if args.sites is not None:
            fleet, default = load_fleet(args.sites)
            if args.default_site is not None:
                default = args.default_site
            if default not in fleet:
                raise UnknownSiteError(default, tuple(sorted(fleet)))
            extra.append(
                f"sites: {len(fleet)} (default {default}, capacity {args.site_capacity})"
            )
        if args.workers == 1:
            server = build_server(spec)  # loads the default site
            install_recorder(
                Path(tempfile.gettempdir()) / f"repro-traces-{os.getpid()}.jsonl"
            )
            server.start()
            url, info = server.url, server.service.describe()
        else:
            supervisor = Supervisor(spec, args.workers, rundir=args.rundir)
            infos = supervisor.start()
            url, info = supervisor.url, infos[0]["model"]
            extra.append(
                f"workers: {args.workers} rundir: {supervisor.rundir} "
                f"pids: {','.join(str(i['pid']) for i in infos)}"
            )
    except (KeyError, ValueError, OSError, RuntimeError) as exc:
        if server is not None:
            server.stop()  # frees the default site even though start() failed
        _fail(str(exc))
    # SIGTERM must end with a graceful drain, not a mid-request kill:
    # the handler only sets an event; the drain runs on the main thread.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    _print_banner(args, url, info, extra, chaos)
    try:
        if supervisor is None:
            stop.wait(timeout=args.for_seconds)
        else:
            supervisor.monitor(stop, for_seconds=args.for_seconds)
    except KeyboardInterrupt:
        pass
    # Graceful exit either way (SIGTERM, --for-seconds, Ctrl-C): stop
    # accepting, finish in-flight, flush the batchers, then report.
    if supervisor is None:
        report = server.drain()
        server.stop()
    else:
        report = supervisor.stop()
    print(f"drain complete: unfinished={report['unfinished']} "
          f"waited_s={report['waited_s']}", flush=True)
    return 0 if report["drained"] else 1


def _freeze_cmd(args: argparse.Namespace) -> int:
    """``repro freeze``: write a training database as a frozen pack."""
    from repro.core.floorplan import FloorPlan, FloorPlanError
    from repro.core.frozenpack import load_database
    from repro.core.system import ap_positions_by_bssid
    from repro.core.trainingdb import TrainingDBError

    try:
        db = load_database(args.database)
    except (TrainingDBError, OSError, ValueError) as exc:
        _fail(str(exc))
    ap_positions = None
    if args.plan:
        try:
            plan = FloorPlan.load(args.plan)
            ap_positions = ap_positions_by_bssid(plan, db)
        except (FloorPlanError, ValueError, OSError) as exc:
            _fail(str(exc))
    floors = tuple(args.std_floor) if args.std_floor else (0.5,)
    try:
        size = db.freeze(args.output, std_floors=floors, ap_positions=ap_positions)
    except (ValueError, OSError) as exc:
        _fail(str(exc))
    ranging = "with ranging" if ap_positions else "no ranging"
    print(
        f"froze {len(db)} locations, {len(db.bssids)} APs -> "
        f"{args.output} ({size} bytes, {ranging})"
    )
    return 0


def _sites_gen_fleet(args: argparse.Namespace) -> int:
    """``repro sites gen-fleet``: synthesize a multi-site fleet on disk.

    Cycles the experiment site presets (house / office / warehouse) so
    neighbouring sites have genuinely different radio maps, writes one
    pack per site plus a ``fleet.json`` manifest — ready for
    ``repro serve --sites <dir>``.
    """
    from repro.experiments.sites import office_floor, paper_house, warehouse
    from repro.serve.registry import SiteDefinition, write_fleet_manifest

    if args.count < 1:
        _fail(f"--count must be >= 1, got {args.count}")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    presets = (
        ("house", paper_house),
        ("office", office_floor),
        ("warehouse", warehouse),
    )
    sites = {}
    for i in range(args.count):
        kind, factory = presets[i % len(presets)]
        site_id = f"{kind}-{i:02d}"
        site = factory(dwell_s=args.dwell_s)
        db = site.training_database(rng=args.seed + i)
        ap_positions = site.ap_positions_by_bssid()
        path = out / f"{site_id}{'.tdbx' if args.freeze else '.tdb'}"
        if args.freeze:
            db.freeze(str(path), ap_positions=ap_positions)
        else:
            db.save(str(path))
        sites[site_id] = SiteDefinition(
            site_id,
            str(path),
            algorithm=args.algorithm,
            ap_positions=ap_positions,
            bounds=site.bounds(),
        )
        print(
            f"{site_id}: {len(db)} locations, {len(db.bssids)} APs "
            f"-> {path.name}"
        )
    default = sorted(sites)[0]
    manifest = write_fleet_manifest(out, sites, default=default)
    print(f"fleet: {len(sites)} sites, default {default} -> {manifest}")
    return 0


def _sites_freeze(args: argparse.Namespace) -> int:
    """``repro sites freeze``: freeze fleet packs to .tdbx, repoint manifest."""
    from repro.core.frozenpack import load_database
    from repro.core.trainingdb import TrainingDBError
    from repro.serve.registry import load_fleet, write_fleet_manifest

    target = Path(args.fleet)
    try:
        sites, default = load_fleet(target)
    except (TrainingDBError, OSError, ValueError) as exc:
        _fail(str(exc))
    root = target if target.is_dir() else target.parent
    wanted = set(args.site)
    if not args.all and not wanted:
        _fail("name site ids to freeze, or pass --all")
    unknown = wanted - set(sites)
    if unknown:
        _fail(f"unknown sites {sorted(unknown)} (fleet has {sorted(sites)})")
    frozen = 0
    for sid in sorted(sites):
        if not args.all and sid not in wanted:
            continue
        definition = sites[sid]
        src = Path(definition.database)
        if src.suffix == ".tdbx":
            print(f"{sid}: already frozen ({src.name})")
            continue
        dst = src.with_suffix(".tdbx")
        try:
            db = load_database(str(src))
            size = db.freeze(str(dst), ap_positions=definition.ap_positions)
        except (TrainingDBError, OSError, ValueError) as exc:
            _fail(f"{sid}: {exc}")
        definition.database = str(dst)
        frozen += 1
        print(f"{sid}: froze {len(db)} locations -> {dst.name} ({size} bytes)")
    manifest = write_fleet_manifest(root, sites, default=default)
    print(f"fleet: {frozen} newly frozen -> {manifest}")
    return 0


def _sites_status(args: argparse.Namespace) -> int:
    """``repro sites status``: the registry card, live or from disk."""
    import json

    if args.target.startswith(("http://", "https://")):
        from urllib.request import urlopen

        try:
            with urlopen(args.target.rstrip("/") + "/v1/sites", timeout=10) as resp:
                doc = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError) as exc:
            _fail(f"cannot read {args.target}/v1/sites: {exc}")
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    from repro.serve.registry import load_fleet

    try:
        sites, default = load_fleet(args.target)
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    print(f"fleet: {len(sites)} sites, default {default}")
    for sid in sorted(sites):
        definition = sites[sid]
        pack = Path(definition.database)
        kind = "frozen" if pack.suffix == ".tdbx" else "heap"
        geo = "with geometry" if definition.ap_positions else "no geometry"
        print(f"  {sid}: {definition.algorithm}, {kind} pack {pack.name}, {geo}")
    return 0


# ----------------------------------------------------------------------
# repro (umbrella command) — the `obs` telemetry group and `serve`
# ----------------------------------------------------------------------
def _load_snapshot(path: str) -> dict:
    import json

    p = Path(path)
    if not p.is_file():
        _fail(f"snapshot file not found: {p}")
    try:
        snap = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        _fail(f"cannot read snapshot {p}: {exc}")
    if not isinstance(snap, dict):
        _fail(f"{p} is not a metrics snapshot (expected a JSON object)")
    return snap


def _obs_dump(args: argparse.Namespace) -> int:
    from repro import obs

    snap = _load_snapshot(args.snapshot)
    if args.format == "text":
        print(obs.render_text(snap))
    elif args.format == "prometheus":
        print(obs.render_prometheus(snap), end="")
    else:
        print(obs.render_json(snap), end="")
    return 0


def _obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    before = _load_snapshot(args.before)
    after = _load_snapshot(args.after)
    if args.format == "json":
        print(json.dumps(obs.diff_snapshots(before, after), indent=2, sort_keys=True))
    else:
        print(obs.render_diff(before, after))
    return 0


def _span_line(span: dict) -> str:
    """One rendered span: name, timing, status, the useful attributes."""
    name = str(span.get("name", "?"))
    wall = span.get("wall_ms")
    timing = f" {float(wall):.2f}ms" if isinstance(wall, (int, float)) else ""
    status = str(span.get("status", "ok"))
    suffix = "" if status == "ok" else f" !{status}"
    attrs = span.get("attrs")
    extra = ""
    if isinstance(attrs, dict):
        shown = []
        for key in sorted(attrs):
            if key == "links":
                shown.append(f"links={len(attrs[key])}")
            else:
                shown.append(f"{key}={attrs[key]}")
        if shown:
            extra = "  {" + ", ".join(shown) + "}"
    return f"{name}{timing}{suffix}{extra}"


def _render_trace_tree(trace: dict) -> str:
    """ASCII span tree for one flight-recorder trace doc."""
    head = f"trace {trace.get('trace_id', '?')}"
    for key in ("method", "endpoint", "request_id"):
        if trace.get(key):
            head += f"  {key}={trace[key]}"
    if trace.get("status"):
        head += f"  status={trace['status']}"
    wall = trace.get("wall_ms")
    if isinstance(wall, (int, float)):
        head += f"  wall_ms={float(wall):.2f}"
    if trace.get("pinned"):
        head += f"  [pinned: {trace.get('reason', '?')}]"
    spans = [s for s in trace.get("spans", []) if isinstance(s, dict)]
    by_id = {s.get("span"): s for s in spans if s.get("span")}
    children: dict = {}
    roots = []
    for s in spans:
        parent = s.get("parent_span")
        if parent and parent in by_id and parent != s.get("span"):
            children.setdefault(parent, []).append(s)
        else:
            # No in-trace parent: an edge span, or a linked span copied
            # from a sibling trace (the batch-dispatch fan-in).
            roots.append(s)
    lines = [head]

    def walk(span: dict, prefix: str, is_last: bool) -> None:
        branch = "`- " if is_last else "|- "
        lines.append(prefix + branch + _span_line(span))
        kids = children.get(span.get("span"), [])
        kids.sort(key=lambda s: float(s.get("ts") or 0.0))
        child_prefix = prefix + ("   " if is_last else "|  ")
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1)

    roots.sort(key=lambda s: float(s.get("ts") or 0.0))
    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1)
    if not spans:
        lines.append("   (no spans retained)")
    return "\n".join(lines)


def _obs_traces(args: argparse.Namespace) -> int:
    """``repro obs traces``: render flight-recorder traces as span trees.

    The source is either a live server (``http://host:port`` — its
    ``/debug/traces`` endpoint, which on a fleet merges every worker's
    recorder) or a file: a ``/debug/traces`` JSON capture, a
    ``traces-<i>.json`` rundir dump, or a SIGUSR2 ``.jsonl`` dump.
    """
    import json

    source = args.source
    if source.startswith(("http://", "https://")):
        import urllib.error
        import urllib.parse
        import urllib.request

        url = source.rstrip("/")
        if "/debug/traces" not in url:
            url += "/debug/traces"
        if args.trace_id:
            url += "?" + urllib.parse.urlencode({"trace_id": args.trace_id})
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                doc = json.loads(resp.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            _fail(f"cannot fetch {url}: {exc}")
    else:
        path = Path(source)
        if not path.is_file():
            _fail(f"trace source not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".jsonl":
                traces = [json.loads(line) for line in text.splitlines() if line.strip()]
                doc = {"traces": traces}
            else:
                doc = json.loads(text)
        except (OSError, ValueError) as exc:
            _fail(f"cannot read {path}: {exc}")
    traces = [t for t in doc.get("traces", []) if isinstance(t, dict)]
    if args.trace_id:
        traces = [t for t in traces if t.get("trace_id") == args.trace_id]
    traces.sort(key=lambda t: float(t.get("ts") or 0.0))
    if args.json:
        out = dict(doc)
        out["traces"] = traces
        print(json.dumps(out, indent=2, sort_keys=True, default=str))
        return 0
    stats = doc.get("stats")
    if isinstance(stats, dict) and stats:
        summary = ", ".join(f"{k}={stats[k]}" for k in sorted(stats))
        workers = doc.get("workers")
        prefix = f"workers={workers}  " if workers else ""
        print(f"# {prefix}{summary}")
    if not traces:
        print("no traces retained" + (f" for trace_id={args.trace_id}" if args.trace_id else ""))
        return 1 if args.trace_id else 0
    for trace in traces:
        print(_render_trace_tree(trace))
        print()
    return 0


def repro_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.serve.batcher import DEFAULT_MAX_WAIT_MS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Toolkit umbrella command (see also the per-program "
        "entry points: floorplan-processor, training-db-generator, locate, ...).",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    obs_parser = sub.add_parser(
        "obs",
        help="telemetry: render snapshots, diff them, render traces "
        "(the live /metrics and /healthz are `repro serve`'s)",
    )
    obs_sub = obs_parser.add_subparsers(dest="command", required=True)

    dump = obs_sub.add_parser(
        "dump", help="render a snapshot file as text, Prometheus exposition, or JSON"
    )
    dump.add_argument("snapshot", help="snapshot JSON written by --metrics")
    dump.add_argument(
        "--format", choices=("text", "prometheus", "json"), default="text"
    )
    dump.set_defaults(func=_obs_dump)

    diff = obs_sub.add_parser(
        "diff", help="what changed between two snapshots (counter deltas, gauge moves)"
    )
    diff.add_argument("before", help="earlier snapshot JSON")
    diff.add_argument("after", help="later snapshot JSON")
    diff.add_argument("--format", choices=("text", "json"), default="text")
    diff.set_defaults(func=_obs_diff)

    traces = obs_sub.add_parser(
        "traces",
        help="render flight-recorder traces (from a live server's "
        "/debug/traces or a dump file) as span trees",
    )
    traces.add_argument(
        "source",
        help="server URL (http://host:port), a /debug/traces JSON capture, "
        "a rundir traces-<i>.json, or a SIGUSR2 .jsonl dump",
    )
    traces.add_argument(
        "--trace-id", help="show only this trace (exit 1 if not retained)"
    )
    traces.add_argument(
        "--json", action="store_true", help="print the raw trace documents"
    )
    traces.set_defaults(func=_obs_traces)

    serve = sub.add_parser(
        "serve",
        help="run the localization service: JSON observations over HTTP, "
        "micro-batched into the vectorized scoring engine",
    )
    serve.add_argument(
        "database", nargs="?", default=None,
        help=".tdb training database to load and warm, served as a one-site "
        "fleet named after its file stem (omit with --sites)",
    )
    serve.add_argument(
        "--sites", default=None, metavar="FLEET",
        help="serve a multi-site fleet: a fleet.json manifest or a directory "
        "of .tdb/.tdbx packs; routes /v1/sites/{id}/... and aliases the "
        "unprefixed routes to the default site (see docs/sites.md)",
    )
    serve.add_argument(
        "--default-site", default=None, metavar="ID",
        help="with --sites: site the unprefixed routes (/v1/locate, ...) hit "
        "(default: the manifest's default)",
    )
    serve.add_argument(
        "--site-capacity", type=int, default=8, metavar="N",
        help="with --sites: bound on concurrently resident site models; "
        "LRU eviction beyond it, but in-flight sites are never unloaded",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8311,
        help="bind port (0 picks a free one; the bound URL is printed)",
    )
    serve.add_argument(
        "--algorithm", default="fallback",
        help="localizer registry name (default: the degraded-mode fallback chain)",
    )
    serve.add_argument(
        "--plan",
        help="annotated floor-plan GIF: supplies AP positions (geometric tiers) "
        "and site bounds for the fallback chain",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="dispatch a micro-batch as soon as N requests are queued "
        "(1 disables coalescing)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=DEFAULT_MAX_WAIT_MS, metavar="MS",
        help="how long the first queued request may wait for company "
        "(default %(default)s: dispatch whatever is queued as soon as the "
        "dispatcher is free; a window trades that much latency on every "
        "request for fewer dispatches under closed-loop load)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admission control: queued requests beyond N are answered "
        "429 + Retry-After",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline applied to locate requests that do not carry their own",
    )
    serve.add_argument(
        "--p99-limit-ms", type=float, default=None, metavar="MS",
        help="latency brake: shed bulk traffic when the rolling p99 exceeds "
        "MS, normal traffic at 2x MS (default: queue watermarks only)",
    )
    serve.add_argument(
        "--drain-deadline-s", type=float, default=10.0, metavar="S",
        help="graceful drain (SIGTERM or POST /admin/drain): wait up to S "
        "seconds for in-flight requests before reporting them unfinished",
    )
    serve.add_argument(
        "--track-filter", choices=("kalman", "bayes", "particle"),
        default="kalman",
        help="which filter /v1/track/{session} sessions run",
    )
    serve.add_argument(
        "--session-capacity", type=int, default=10000, metavar="N",
        help="bound on live tracking sessions (LRU eviction beyond it)",
    )
    serve.add_argument(
        "--session-ttl-s", type=float, default=300.0, metavar="S",
        help="idle tracking sessions expire after S seconds without a scan",
    )
    serve.add_argument(
        "--no-breakers", action="store_true",
        help="disable the per-tier circuit breakers around the fallback chain",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="enable the chaos harness; alone it injects a default mix "
        "(25ms dispatch latency + 25%% tier faults), the --chaos-* knobs "
        "tune it",
    )
    serve.add_argument(
        "--chaos-latency-ms", type=float, default=0.0, metavar="MS",
        help="with --chaos: inject MS of dispatch latency",
    )
    serve.add_argument(
        "--chaos-latency-rate", type=float, default=1.0, metavar="R",
        help="with --chaos: fraction of locate requests paying the latency",
    )
    serve.add_argument(
        "--chaos-latency-jitter-ms", type=float, default=0.0, metavar="MS",
        help="with --chaos: uniform jitter added on top of --chaos-latency-ms",
    )
    serve.add_argument(
        "--chaos-tier-error-rate", type=float, default=0.0, metavar="R",
        help="with --chaos: fraction of fallback-tier calls raising an "
        "injected fault (the circuit-breaker workout)",
    )
    serve.add_argument(
        "--chaos-tiers", default="", metavar="NAMES",
        help="with --chaos: comma-separated tier names to fault (default: all)",
    )
    serve.add_argument(
        "--chaos-reset-rate", type=float, default=0.0, metavar="R",
        help="with --chaos: fraction of data-plane responses answered by "
        "abruptly closing the connection",
    )
    serve.add_argument(
        "--chaos-slowloris-rate", type=float, default=0.0, metavar="R",
        help="with --chaos: fraction of responses written in dribbled chunks",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="with --chaos: seed for the chaos draws (reproducible runs)",
    )
    serve.add_argument(
        "--for-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until Ctrl-C)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="prefork N worker processes sharing the port via SO_REUSEPORT "
        "(1 = classic single process); freeze the database to a .tdbx "
        "pack first so the N model copies share one mmap",
    )
    serve.add_argument(
        "--rundir", default=None, metavar="DIR",
        help="with --workers: directory for worker readiness / metrics / "
        "control files (default: a fresh temp dir)",
    )
    serve.set_defaults(func=_serve_cmd)

    freeze = sub.add_parser(
        "freeze",
        help="write a training database as a frozen model pack (.tdbx): "
        "mmap-able, checksummed, zero-copy on load — the format "
        "`repro serve --workers N` shares across processes",
    )
    freeze.add_argument("database", help=".tdb training database (or a pack to re-freeze)")
    freeze.add_argument("output", help="output pack path (convention: .tdbx)")
    freeze.add_argument(
        "--plan", default=None,
        help="annotated floor-plan GIF: also freeze the fitted ranging "
        "model so geometric tiers skip their per-AP regression at load",
    )
    freeze.add_argument(
        "--std-floor", type=float, action="append", default=None, metavar="F",
        help="extra std-matrix floor to precompute (repeatable; default 0.5)",
    )
    freeze.set_defaults(func=_freeze_cmd)

    sites_parser = sub.add_parser(
        "sites",
        help="multi-site fleet tools: generate synthetic fleets, freeze "
        "their packs, inspect a registry (docs/sites.md)",
    )
    sites_sub = sites_parser.add_subparsers(dest="sites_command", required=True)
    gen = sites_sub.add_parser(
        "gen-fleet",
        help="synthesize N training databases (house/office/warehouse "
        "presets) plus a fleet.json manifest",
    )
    gen.add_argument("output", help="fleet directory to create")
    gen.add_argument(
        "--count", type=int, default=4, metavar="N",
        help="number of sites to generate",
    )
    gen.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base RNG seed (site i surveys with seed+i)",
    )
    gen.add_argument(
        "--dwell-s", type=float, default=10.0, metavar="S",
        help="survey dwell per location (lower = faster generation, "
        "noisier radio maps)",
    )
    gen.add_argument(
        "--algorithm", default="fallback",
        help="localizer each site's manifest entry names",
    )
    gen.add_argument(
        "--freeze", action="store_true",
        help="write frozen .tdbx packs (mmap-shareable across --workers) "
        "instead of heap .tdb databases",
    )
    gen.set_defaults(func=_sites_gen_fleet)
    sfreeze = sites_sub.add_parser(
        "freeze",
        help="freeze fleet sites to .tdbx packs and repoint the manifest",
    )
    sfreeze.add_argument("fleet", help="fleet manifest or directory")
    sfreeze.add_argument("site", nargs="*", help="site ids to freeze")
    sfreeze.add_argument(
        "--all", action="store_true",
        help="freeze every heap (.tdb) site in the fleet",
    )
    sfreeze.set_defaults(func=_sites_freeze)
    sstatus = sites_sub.add_parser(
        "status",
        help="show a fleet: sites + default from a manifest/directory, or "
        "the live registry card from a running server URL",
    )
    sstatus.add_argument(
        "target", help="fleet manifest/directory or a server base URL",
    )
    sstatus.set_defaults(func=_sites_status)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - manual smoke entry
    raise SystemExit(processor_main())
