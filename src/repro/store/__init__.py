"""``repro.store`` — the queryable experiment store.

An SQLite database of every perf number the repo produces: run rows
keyed by (config hash, seed, dataset, git rev), typed metric key/values
per run, the append-only ``bench_series`` imported from each gated
``BENCH_*.json``, and pointers to :mod:`repro.obs` trace exports.

Writers opt in through ``$REPRO_STORE`` (a database path): the bench
drivers (via ``benchmarks/_common.emit_bench``),
:func:`repro.eval.runner.run_planners` (one row per planner), the
serve daemon (one row per request), and the obs trace exporters all
record through :func:`store_from_env`.
Readers go through ``repro query`` (:mod:`repro.store.query`) and the
trajectory exporter (:mod:`repro.store.bench`), which rebuilds the
committed ``BENCH_trajectory.json`` byte-for-byte; CI's regression gate
(:mod:`repro.store.gate`) compares fresh runs against it.

See DESIGN.md §"Experiment store" for the schema and the determinism
contract.
"""

from __future__ import annotations

from .bench import (
    export_trajectory,
    gate_state,
    headline,
    import_bench_dir,
    import_bench_payload,
)
from .db import (
    ENV_VAR,
    RunStore,
    config_hash,
    current_git_rev,
    store_from_env,
)
from .gate import check_regression

__all__ = [
    "ENV_VAR",
    "RunStore",
    "check_regression",
    "config_hash",
    "current_git_rev",
    "export_trajectory",
    "gate_state",
    "headline",
    "import_bench_dir",
    "import_bench_payload",
    "store_from_env",
]
