"""The repository's benchmark: one workload per run.

    python3 perfbench/run.py --workload sweep-chicago --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The run prints every end-to-end metric that applies to the
workload, by name and unit, then, as its last line, one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are :data:`END_TO_END`; with ``--trace 1``
they are :data:`PER_LAYER`, taken from a separate traced run (see
``tracer.py``) whose end-to-end numbers are never reported.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> unit.  Every workload reports all of them.  On replan-orlando
#: ``plan_*`` is the replan latency: a ``plan_route`` with Algorithm 2
#: inside.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "plan_p50_ms": "ms",
    "plan_p90_ms": "ms",
}

#: name -> unit of the per-layer metrics every workload's traced run
#: reports.  Layer times are means per call of the layer's entry point.
PER_LAYER: Dict[str, str] = {
    "datasets.network_s": "s",
    "datasets.transit_s": "s",
    "datasets.demand_s": "s",
    "eval.calibrate_alpha_s": "s",
    "engine.build_s": "s",
    "engine.cache_hit_rate": "ratio",
    "engine.cache_evictions": "count",
    "search.searches": "count",
    "search.settled": "count",
    "preprocess.s": "s",
    "preprocess.labels_s": "s",
    "preprocess.balls_s": "s",
    "preprocess.utilities_s": "s",
    "selection.s": "s",
    "selection.evaluations": "count",
    "selection.useful_ratio": "ratio",
    "ordering.s": "s",
    "refinement.s": "s",
    "plan.unattributed_s": "s",
    "runtime.gc_pause_ms": "ms",
    "obs.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: Layer metrics only serve-nyc-rw exercises; printed, not in the JSON.
SERVE_ONLY: Dict[str, str] = {
    "update.s": "s",
    "update.searches": "count",
    "update.state_entries": "count",
    "journey.build_s": "s",
    "journey.builds": "count",
    "journey.query_s": "s",
    "serve.transport_ms": "ms",
    "serve.admission_wait_ms": "ms",
    "serve.lock_wait_ms": "ms",
    "serve.handler_ms": "ms",
    "serve.rejected": "count",
}

WORKLOAD_NAMES = ("sweep-chicago", "serve-nyc-rw", "replan-orlando")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's city scale (the smoke test "
                             "runs at minimal sizes)")
    return parser.parse_args(argv)


def gated(run, summary: Dict[str, "workloads.Metric"]) -> Dict[str, dict]:
    """The JSON metrics of a run: end-to-end untraced, per-layer traced."""
    if run.layers:
        values = {**run.counters, **run.layers}
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    kind = "replan" if run.workload == "replan-orlando" else "plan"
    out = {}
    for name, unit in END_TO_END.items():
        out[name] = {"value": summary[name.replace("plan", kind, 1)].value, "unit": unit}
    return out


def report(run, summary: Dict[str, "workloads.Metric"]) -> List[str]:
    lines = [f"{run.workload}: {run.attempted} ops attempted, {run.failed} failed, "
             f"{run.measured_s:.1f} s measured"]
    if run.layers:
        values = {**run.counters, **run.layers}
        units = dict(PER_LAYER, **SERVE_ONLY)
        lines.append("per-layer metrics (traced run):")
        for name, unit in units.items():
            if name in values:
                lines.append(f"  {name:<26} {values[name]:>14.6g} {unit}")
    else:
        lines.append("end-to-end metrics (scaled times are at the reference's "
                     "nominal host speed, raw times beside them):")
        for name, m in summary.items():
            count = f"  n={m.samples}" if m.samples is not None else ""
            raw = f"  raw {m.raw:.6g}" if m.raw is not None else ""
            lines.append(f"  {name:<26} {m.value:>14.6g} {m.unit:<6}{count}{raw}")
    lines.extend(f"  CHECK FAILED {p}" for p in run.problems[:20])
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import tracer
    import workloads

    workload = workloads.make(args.workload, args.seed, args.scale, bool(args.trace))
    run = workload.run(args.seconds)
    summary = workloads.summarize(run)
    print("\n".join(report(run, summary)))
    if run.layers:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        path = os.path.join(workloads.OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        tracer.write_trace(path, run.trace, {"workload": args.workload, "seed": args.seed,
                                             "metrics": {**run.counters, **run.layers}})
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": gated(run, summary),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
