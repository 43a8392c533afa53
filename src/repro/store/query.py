"""``repro query`` — inspect the experiment store.

Query-UX follows percell3's ``cli/query.py``: one sub-view per table
(``runs``, ``metrics``, ``benches``, ``gates``, ``traces``), each
renderable as an aligned text table, CSV, or JSON.  Everything is
stdlib: tables are fixed-width (no rich), CSV goes through ``csv``,
JSON through ``json.dumps(sort_keys=True)`` — so output over an
unchanged database is byte-deterministic (CI asserts it by running
every view twice).

The database defaults to ``$REPRO_STORE``; ``--db`` overrides.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional, Sequence

from ..env import env_str
from ..exceptions import ConfigurationError
from .bench import gate_rows
from .db import ENV_VAR, RunStore
from .gate import check_regression

__all__ = ["FORMATS", "VIEWS", "format_rows", "run_query"]

FORMATS = ("table", "csv", "json")
VIEWS = ("runs", "metrics", "benches", "gates", "traces")


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def format_rows(
    rows: Sequence[Dict[str, Any]],
    columns: Sequence[str],
    fmt: str,
    *,
    title: str = "",
) -> str:
    """Render rows in the requested format (table, csv, or json)."""
    if fmt == "json":
        return json.dumps(list(rows), indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in columns])
        return buf.getvalue().rstrip("\n")
    if fmt != "table":
        raise ConfigurationError(
            f"unknown output format {fmt!r}; available: {', '.join(FORMATS)}"
        )
    if not rows:
        return f"{title}: no rows" if title else "no rows"
    widths = {
        col: max(len(col), *(len(_cell(row.get(col))) for row in rows))
        for col in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(_cell(row.get(col)).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def _flatten_gate(row: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"bench": row["bench"], "gate": row["gate"]}
    headline = row.get("headline")
    if isinstance(headline, dict):
        out["metric"] = headline.get("metric")
        out["value"] = headline.get("value")
    out["cpu_limited"] = bool(row.get("cpu_limited"))
    return out


_COLUMNS = {
    "runs": ("id", "created_at", "kind", "name", "dataset", "seed",
             "git_rev", "config_hash"),
    "metrics": ("run_id", "kind", "name", "dataset", "metric", "value"),
    "benches": ("id", "imported_at", "bench", "gate", "headline_metric",
                "headline_value", "cpu_limited"),
    "gates": ("bench", "gate", "metric", "value", "cpu_limited"),
    "traces": ("id", "created_at", "run_id", "kind", "path"),
}


def run_query(args: Any) -> int:
    """Execute one ``repro query`` invocation (argparse namespace with
    ``view``, ``db``, ``format`` and the per-view filters)."""
    db = args.db if args.db is not None else env_str(ENV_VAR)
    if db is None:
        print(
            "error: no database: pass --db PATH or set $REPRO_STORE",
            file=_stderr(),
        )
        return 2
    last: Optional[int] = getattr(args, "last", None)
    since: Optional[str] = getattr(args, "since", None)
    with RunStore(db) as store:
        view: str = args.view
        if view == "runs":
            rows = store.runs(
                dataset=args.dataset, kind=args.kind, since=since, last=last
            )
        elif view == "metrics":
            rows = store.metrics(
                run_id=args.run, metric=args.metric,
                dataset=args.dataset, since=since, last=last,
            )
        elif view == "benches":
            rows = [
                {k: v for k, v in row.items() if k != "payload"}
                for row in store.benches(
                    bench=args.bench, since=since, last=last
                )
            ]
        elif view == "gates":
            gates = gate_rows(store)
            if getattr(args, "check", None):
                return _check_gates(gates, args)
            rows = [_flatten_gate(row) for row in gates]
        elif view == "traces":
            rows = store.traces(run_id=args.run, last=last)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigurationError(f"unknown view {view!r}")
    title = f"{view} ({db})"
    print(format_rows(rows, _COLUMNS[view], args.format, title=title))
    return 0


def _check_gates(gates: List[Dict[str, Any]], args: Any) -> int:
    """``gates --check BASELINE``: regression-gate the store's current
    gates view against a committed trajectory file."""
    try:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load baseline {args.check!r}: {exc}",
              file=_stderr())
        return 2
    current = {"gates": gates}
    failures, warnings = check_regression(
        current, baseline, tolerance=args.tolerance
    )
    for finding in warnings:
        print(
            f"warning: {finding['bench']}: [{finding['kind']}] "
            f"{finding['detail']}",
            file=_stderr(),
        )
    for finding in failures:
        print(
            f"REGRESSION: {finding['bench']}: [{finding['kind']}] "
            f"{finding['detail']}",
            file=_stderr(),
        )
    if failures:
        return 1
    print(f"no regressions against {args.check}")
    return 0


def _stderr() -> Any:
    import sys

    return sys.stderr
