"""Bench-payload normalization, import, and the trajectory exporter.

Every gated benchmark emits a free-form ``BENCH_<name>.json``; this
module is the one place that understands those shapes.  It normalizes
each payload to a (gate state, headline, cpu-limited) triple, imports
payloads into a :class:`~repro.store.db.RunStore`'s ``bench_series``
table, and exports the committed ``BENCH_trajectory.json`` artifact
from the store.

Determinism contract: :func:`export_trajectory` depends only on the
latest payload per bench — no timestamps, sorted keys — so exporting
twice over an unchanged store (or over a re-imported, unchanged results
directory) is byte-identical.  CI asserts this.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from .db import RunStore

__all__ = [
    "headline",
    "gate_state",
    "gate_rows",
    "is_cpu_limited",
    "import_bench_payload",
    "import_bench_dir",
    "export_trajectory",
]

#: The trajectory artifact's own filename (never imported as a bench).
TRAJECTORY_NAME = "BENCH_trajectory.json"


def headline(payload: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The one number a payload is about, if it declares one.

    Emitters are free-form, but the known shapes are:

    * a ``largest`` tier with a ``speedup`` (the kernel/preprocess
      ladder benches);
    * a flat ``speedup`` / ``*overhead_pct`` scalar.

    Anything unrecognised gets no headline (and the gates table will
    still carry its gate state, so it cannot vanish silently).
    """
    largest = payload.get("largest")
    if isinstance(largest, dict) and "speedup" in largest:
        return {"metric": "speedup", "value": largest["speedup"]}
    for key in ("speedup", "disabled_overhead_pct", "overhead_pct"):
        if isinstance(payload.get(key), (int, float)):
            return {"metric": key, "value": payload[key]}
    return None


def gate_state(payload: Mapping[str, Any]) -> Optional[str]:
    """The payload's gate verdict, normalized to a small vocabulary.

    ``gate`` strings pass through (``passed``/``failed``/``skipped``);
    bool ``passed`` fields map onto passed/failed; a measurement-vs-
    limit pair (``disabled_overhead_pct`` against
    ``max_disabled_overhead_pct``) is judged here.  ``None`` means the
    payload declares no gate at all.
    """
    gate = payload.get("gate")
    if isinstance(gate, str):
        return gate
    if isinstance(payload.get("passed"), bool):
        return "passed" if payload["passed"] else "failed"
    value = payload.get("disabled_overhead_pct")
    limit = payload.get("max_disabled_overhead_pct")
    if isinstance(value, (int, float)) and isinstance(limit, (int, float)):
        return "passed" if value < limit else "failed"
    return None


def is_cpu_limited(payload: Mapping[str, Any]) -> bool:
    """Whether the payload recorded a core-starved (1-core) run."""
    return bool(payload.get("cpu_limited"))


def import_bench_payload(
    store: RunStore, name: str, payload: Mapping[str, Any]
) -> int:
    """Normalize and append one payload to the store's bench series."""
    head = headline(payload)
    return store.record_bench(
        name,
        payload,
        gate=gate_state(payload),
        headline_metric=head["metric"] if head else None,
        headline_value=float(head["value"]) if head else None,
        cpu_limited=is_cpu_limited(payload),
    )


def import_bench_dir(store: RunStore, results_dir: Path) -> List[str]:
    """Import every ``BENCH_*.json`` under ``results_dir`` (except the
    trajectory itself); returns the imported bench names, sorted."""
    names: List[str] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == TRAJECTORY_NAME:
            continue
        name = path.stem[len("BENCH_") :]
        import_bench_payload(store, name, json.loads(path.read_text()))
        names.append(name)
    return names


def _gate_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """One trajectory ``gates`` entry from a normalized series row."""
    out: Dict[str, Any] = {"bench": row["bench"], "gate": row["gate"]}
    if row["headline_metric"] is not None:
        out["headline"] = {
            "metric": row["headline_metric"],
            "value": row["headline_value"],
        }
    if row["cpu_limited"]:
        out["cpu_limited"] = True
    return out


def gate_rows(store: RunStore, *, include_absent: bool = True) -> List[Dict[str, Any]]:
    """The normalized gates view — the row shape shared by ``repro
    query gates`` and the trajectory's ``gates`` table.

    Benches that declare no gate show up as ``absent`` (the gates table
    is also the completeness check) unless ``include_absent`` is off,
    as it is for the exported trajectory."""
    rows: List[Dict[str, Any]] = []
    for row in store.latest_benches():
        if row["gate"] is None and not include_absent:
            continue
        out = _gate_row(row)
        if out["gate"] is None:
            out["gate"] = "absent"
        rows.append(out)
    return rows


def export_trajectory(store: RunStore) -> Dict[str, Any]:
    """The ``BENCH_trajectory.json`` payload from the store's latest
    bench rows: every payload verbatim under ``benches``, plus the
    normalized ``gates`` table (gate-declaring benches only)."""
    benches = {
        row["bench"]: row["payload"] for row in store.latest_benches()
    }
    return {
        "artifact": "BENCH_trajectory",
        "sources": sorted(benches),
        "gates": gate_rows(store, include_absent=False),
        "benches": benches,
    }
