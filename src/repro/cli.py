"""Command-line interface: ``python -m repro <command>``.

Three commands cover the practitioner loop the paper's introduction
describes (adjust the input, re-plan, inspect):

* ``stats``   — print Table II-style statistics of a synthetic city;
* ``plan``    — plan one route with EBRR on a synthetic city and print
  the stops, metrics, and timings;
* ``sweep``   — run the effect-of-K experiment (EBRR + both baselines)
  and print the Fig. 7/8/13-style series, optionally exporting CSV;
* ``case-study`` — plan one route on ridership-style demand and write
  the Figs. 1/12-style artefacts (SVG map + GeoJSON route);
* ``lint`` — run reprolint, the repo's AST-based architectural
  invariant checker; its arguments go unchanged to ``python -m
  repro.lint`` (see :mod:`repro.lint` and DESIGN.md);
* ``trace`` — inspect a Chrome trace written by ``plan --trace`` or
  ``sweep --trace`` (``trace summarize FILE`` prints the deterministic
  text tree; the JSON itself loads in chrome://tracing or Perfetto);
* ``query`` — inspect the experiment store (``$REPRO_STORE`` /
  ``--db``): run rows, metrics, the bench series, the normalized gates
  view (with ``--check`` as the perf-regression gate), and trace
  pointers, as table/csv/json.

Real-data workflows go through the library API (see README); the CLI
exists for instant, zero-code reproduction.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from .core.config import EBRRConfig
from .core.ebrr import plan_route
from .datasets.registry import available_cities, load_city
from .eval.experiments import calibrated_alpha, dataset_statistics, effect_of_k
from .eval.export import rows_to_csv
from .eval.reporting import format_series, format_table


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bus Routing on Roads (BRR/EBRR) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_city_args(p):
        p.add_argument(
            "--city", choices=available_cities(), default="chicago",
            help="synthetic city dataset",
        )
        p.add_argument(
            "--scale", type=float, default=0.1,
            help="linear scale versus the paper's city sizes",
        )

    stats = sub.add_parser("stats", help="print dataset statistics (Table II)")
    add_city_args(stats)

    plan = sub.add_parser("plan", help="plan one route with EBRR")
    add_city_args(plan)
    plan.add_argument("-k", "--max-stops", type=int, default=20,
                      help="K: maximum number of stops")
    plan.add_argument("-c", "--max-adjacent-cost", type=float, default=2.0,
                      help="C: maximum cost between adjacent stops (km)")
    plan.add_argument("--alpha", type=float, default=None,
                      help="utility trade-off (default: calibrated)")
    plan.add_argument("--explain", action="store_true",
                      help="print the full run diagnostics report")
    plan.add_argument("--profile-searches", action="store_true",
                      help="print per-phase graph-search statistics "
                           "(searches, cache hits, settled nodes) and "
                           "the engine cache summary")
    plan.add_argument("--trace", type=str, default=None, metavar="PATH",
                      help="record a trace of the run and write it in "
                           "Chrome trace-event format (open in "
                           "chrome://tracing or Perfetto)")

    sweep = sub.add_parser("sweep", help="effect-of-K experiment (Figs. 7/8/13)")
    add_city_args(sweep)
    sweep.add_argument("--ks", type=str, default="10,20,30",
                       help="comma-separated K values")
    sweep.add_argument("-c", "--max-adjacent-cost", type=float, default=2.0)
    sweep.add_argument("--csv", type=str, default=None,
                       help="also export the rows to this CSV file")
    sweep.add_argument("--trace", type=str, default=None, metavar="PATH",
                       help="record a trace of the sweep and write it in "
                            "Chrome trace-event format")

    case = sub.add_parser(
        "case-study", help="plan a route and write SVG + GeoJSON artefacts"
    )
    add_city_args(case)
    case.add_argument("-k", "--max-stops", type=int, default=15)
    case.add_argument("-c", "--max-adjacent-cost", type=float, default=2.0)
    case.add_argument("--svg", type=str, default="case_study.svg",
                      help="output SVG map path")
    case.add_argument("--geojson", type=str, default=None,
                      help="optional output GeoJSON path")

    # Listed for --help only: main() hands `repro lint ARGS` to
    # repro.lint's own parser before this one runs.
    sub.add_parser(
        "lint", add_help=False,
        help="check the source against the reprolint invariants "
             "(arguments as for python -m repro.lint)",
    )

    serve = sub.add_parser(
        "serve", help="run the planning-as-a-service HTTP daemon"
    )
    serve.add_argument("--dataset", action="append", required=True,
                       metavar="CITY", choices=available_cities(),
                       help="city dataset to serve (repeatable; each is "
                            "loaded once and kept warm)")
    serve.add_argument("--scale", type=float, default=0.1,
                       help="linear scale versus the paper's city sizes")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default: loopback)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default: $REPRO_SERVE_PORT, then "
                            "8080; 0 picks an ephemeral port)")
    serve.add_argument("-k", "--max-stops", type=int, default=20,
                       help="default K for /v1/plan requests")
    serve.add_argument("-c", "--max-adjacent-cost", type=float, default=2.0,
                       help="default C for /v1/plan requests (km)")
    serve.add_argument("--alpha", type=float, default=None,
                       help="utility trade-off (default: calibrated per city)")
    serve.add_argument("--cache-capacity", type=int, default=None,
                       help="bound each tenant engine's LRU row cache "
                            "(daemon memory cap; default: engine default)")
    serve.add_argument("--max-queued", type=int, default=16,
                       help="requests allowed to wait for the planning "
                            "core, which runs one at a time; beyond this "
                            "the daemon sheds with 429")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline in seconds "
                            "(503 when exceeded while queued)")
    serve.add_argument("--trace-dir", type=str, default=None, metavar="DIR",
                       help="write one JSONL trace per request into DIR")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip boot-time warmup (preprocess + default "
                            "plan per tenant; default: warm, or "
                            "$REPRO_SERVE_WARM)")

    trace = sub.add_parser(
        "trace", help="inspect a recorded Chrome trace file"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="print the deterministic text summary tree"
    )
    trace_summarize.add_argument("file", help="Chrome trace JSON file")
    trace_summarize.add_argument(
        "--max-depth", type=int, default=6,
        help="deepest span level shown (default: 6)",
    )

    query = sub.add_parser(
        "query", help="inspect the experiment store (runs database)"
    )
    query_sub = query.add_subparsers(dest="view", required=True)

    def add_query_args(p, *, run_filter=False):
        p.add_argument("--db", type=str, default=None,
                       help="store database path (default: $REPRO_STORE)")
        p.add_argument("--format", choices=query_formats(), default="table",
                       help="output format (default: table)")
        p.add_argument("--last", type=int, default=None, metavar="N",
                       help="only the newest N rows")
        p.add_argument("--since", type=str, default=None, metavar="ISO",
                       help="only rows created at/after this ISO-8601 "
                            "UTC timestamp")
        if run_filter:
            p.add_argument("--run", type=int, default=None, metavar="ID",
                           help="only rows of this run id")

    q_runs = query_sub.add_parser("runs", help="run rows (config hash, "
                                               "seed, dataset, git rev)")
    add_query_args(q_runs)
    q_runs.add_argument("--dataset", type=str, default=None)
    q_runs.add_argument("--kind", type=str, default=None,
                        help="writer kind (planner, serve, ...)")

    q_metrics = query_sub.add_parser(
        "metrics", help="typed per-run metric key/values"
    )
    add_query_args(q_metrics, run_filter=True)
    q_metrics.add_argument("--dataset", type=str, default=None)
    q_metrics.add_argument("--metric", type=str, default=None,
                           help="only this metric key")

    q_benches = query_sub.add_parser(
        "benches", help="the BENCH_* series (perf trajectory history)"
    )
    add_query_args(q_benches)
    q_benches.add_argument("--bench", type=str, default=None,
                           help="only this bench name")

    q_gates = query_sub.add_parser(
        "gates", help="normalized gate view "
                      "(passed/failed/skipped incl. cpu_limited)"
    )
    add_query_args(q_gates)
    q_gates.add_argument("--check", type=str, default=None, metavar="PATH",
                         help="regression-gate against this committed "
                              "BENCH_trajectory.json (exit 1 on "
                              "regression)")
    q_gates.add_argument("--tolerance", type=float,
                         default=gate_tolerance(),
                         help="fractional slack below a committed "
                              "speedup headline")

    q_traces = query_sub.add_parser(
        "traces", help="pointers to exported obs trace files"
    )
    add_query_args(q_traces, run_filter=True)
    return parser


def query_formats():
    from .store.query import FORMATS

    return FORMATS


def gate_tolerance():
    from .store.gate import DEFAULT_TOLERANCE

    return DEFAULT_TOLERANCE


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "case-study":
        return _cmd_case_study(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "query":
        return _cmd_query(args)
    return 2  # unreachable: argparse enforces the choices


def _cmd_stats(args) -> int:
    dataset = load_city(args.city, scale=args.scale)
    rows = dataset_statistics([dataset])
    print(format_table(rows, title="Dataset statistics (Table II layout)"))
    return 0


def _cmd_query(args) -> int:
    from .exceptions import ConfigurationError
    from .store.query import run_query

    try:
        return run_query(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # query output is made for piping into head/grep; a closed pipe
        # is the reader saying "enough", not an error.  Redirect stdout
        # to devnull so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_trace(args) -> int:
    from .obs import load_chrome_trace, summarize

    try:
        spans, metrics = load_chrome_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    print(summarize(spans, metrics, max_depth=args.max_depth))
    return 0


def _write_trace(trace, path: str) -> None:
    from .obs import write_chrome_trace

    write_chrome_trace(trace, path)
    print(
        f"trace written to {path} ({len(trace.spans)} spans); "
        "open in chrome://tracing or https://ui.perfetto.dev"
    )


def _check_kernel_env() -> int:
    """Validate ``$REPRO_KERNEL`` *before* loading a city, so a typo'd
    environment variable fails in milliseconds with the choices listed
    instead of deep inside the engine."""
    from .exceptions import ConfigurationError
    from .network.engine import resolve_kernel

    try:
        resolve_kernel(None)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_plan(args) -> int:
    from .obs import tracing

    code = _check_kernel_env()
    if code:
        return code
    # The trace covers the dataset build and the calibration too; the
    # plan's own timings come from its own spans either way.
    with tracing() if args.trace else contextlib.nullcontext() as trace:
        dataset = load_city(args.city, scale=args.scale)
        alpha = args.alpha if args.alpha is not None else calibrated_alpha(dataset)
        instance = dataset.instance(alpha)
        config = EBRRConfig(
            max_stops=args.max_stops,
            max_adjacent_cost=args.max_adjacent_cost,
            alpha=alpha,
        )
        result = plan_route(instance, config)
    if args.trace:
        _write_trace(trace, args.trace)
    print(f"{dataset.name} (scale {args.scale}), alpha={alpha:.2f}")
    print(result.summary())
    print("stops:", " -> ".join(str(s) for s in result.route.stops))
    if args.explain:
        from .core.diagnostics import explain_result

        print()
        print(explain_result(instance, result))
    if args.profile_searches:
        from .core.diagnostics import search_stats_table
        from .network.engine import engine_for

        print()
        if not args.explain:  # --explain already embeds the phase table
            print(search_stats_table(result))
        engine = engine_for(instance.network)
        print(f"search kernel: {engine.kernel_name}")
        info = engine.cache_info()
        print(
            f"engine cache: {info.hits} hits / {info.misses} misses "
            f"(hit rate {info.hit_rate:.1%}), {info.rows} rows and "
            f"{info.points} point entries resident, {info.evictions} evictions"
        )
    if not result.is_feasible:
        print("violations:", "; ".join(result.constraint_violations))
        return 1
    return 0


def _cmd_serve(args) -> int:
    import signal

    from .env import env_bool, env_int
    from .exceptions import ReproError
    from .serve import (
        AdmissionController,
        DatasetRegistry,
        PlanService,
        TenantSpec,
        create_server,
        run_server,
    )

    code = _check_kernel_env()
    if code:
        return code
    try:
        port = args.port if args.port is not None else env_int(
            "REPRO_SERVE_PORT", 8080
        )
        warm = False if args.no_warm else env_bool("REPRO_SERVE_WARM", True)
        admission = AdmissionController(
            max_queued=args.max_queued,
            default_timeout_s=args.deadline,
        )
        registry = DatasetRegistry()
        for city in args.dataset:
            spec = TenantSpec(
                city=city,
                scale=args.scale,
                max_stops=args.max_stops,
                max_adjacent_cost=args.max_adjacent_cost,
                alpha=args.alpha,
                cache_capacity=args.cache_capacity,
            )
            print(f"loading {city} (scale {args.scale}, warm={warm}) ...")
            tenant = registry.add(spec, warm=warm)
            print(f"  ready: {len(tenant.instance.queries)} queries, "
                  f"alpha={tenant.alpha:.3f}, kernel={tenant.engine.kernel_name}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = PlanService(
        registry, admission=admission, trace_dir=args.trace_dir
    )
    server = create_server(service, host=args.host, port=port)
    bound_port = server.server_address[1]
    print(f"serving {', '.join(registry.names())} on "
          f"http://{args.host}:{bound_port} "
          f"(max-queued {args.max_queued}, "
          f"deadline {args.deadline:g}s)")
    sys.stdout.flush()

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        run_server(server)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        print("shutdown complete")
    return 0


def _cmd_sweep(args) -> int:
    try:
        ks = [int(k) for k in args.ks.split(",") if k]
    except ValueError:
        print(f"error: --ks must be comma-separated integers, got {args.ks!r}",
              file=sys.stderr)
        return 2
    if not ks:
        print("error: --ks is empty", file=sys.stderr)
        return 2
    code = _check_kernel_env()
    if code:
        return code
    dataset = load_city(args.city, scale=args.scale)
    alpha = calibrated_alpha(dataset)
    if args.trace:
        from .obs import tracing

        with tracing() as trace:
            rows = effect_of_k(
                dataset, ks, alpha=alpha,
                max_adjacent_cost=args.max_adjacent_cost,
            )
        _write_trace(trace, args.trace)
    else:
        rows = effect_of_k(
            dataset, ks, alpha=alpha, max_adjacent_cost=args.max_adjacent_cost,
        )
    for value, title in (
        ("walk_cost", "Walking cost vs K"),
        ("connectivity", "Connectivity vs K"),
        ("time_s", "Execution time (s) vs K"),
    ):
        print(format_series(rows, x="K", series="algorithm", value=value,
                            title=title))
        print()
    if args.csv:
        rows_to_csv(rows, args.csv)
        print(f"rows exported to {args.csv}")
    return 0


def _cmd_case_study(args) -> int:
    from .demand.ridership import ridership_demand
    from .core.utility import BRRInstance
    from .eval.visualize import render_case_study

    dataset = load_city(args.city, scale=args.scale)
    alpha = calibrated_alpha(dataset)
    queries = ridership_demand(
        dataset.transit, max(1000, len(dataset.queries) // 4), seed=5
    )
    alpha = max(alpha * len(queries) / len(dataset.queries), 1e-9)
    instance = BRRInstance(dataset.transit, queries, alpha=alpha)
    config = EBRRConfig(
        max_stops=args.max_stops,
        max_adjacent_cost=args.max_adjacent_cost,
        alpha=alpha,
    )
    result = plan_route(instance, config)
    print(result.summary())
    render_case_study(
        dataset.network,
        queries,
        dataset.transit.existing_stops,
        result.route,
        args.svg,
        title=f"{dataset.name} case study (K={args.max_stops})",
    )
    print(f"map written to {args.svg}")
    if args.geojson:
        from .eval.geojson import route_to_geojson

        route_to_geojson(
            dataset.network, result.route, args.geojson,
            utility=result.metrics.utility,
        )
        print(f"route written to {args.geojson}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
