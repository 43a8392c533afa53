"""SQLite experiment store: schema + DAO.

One :class:`RunStore` wraps one SQLite database holding the repo's
entire experimental record:

* ``runs`` — one row per planner run or served request, keyed by the
  tuple the evaluation grid varies over: config hash, seed, dataset,
  git revision (plus a ``kind``/``name`` pair saying which driver wrote
  it);
* ``metrics`` — typed key/value rows per run (numbers in ``value_num``,
  everything else in ``value_text``);
* ``bench_series`` — the perf trajectory: one row per imported
  ``BENCH_*.json`` payload with its normalized gate state and headline
  (see :mod:`repro.store.bench`), append-only so the history of every
  gated number is queryable;
* ``traces`` — pointers to trace files written by :mod:`repro.obs`
  exporters, so a run's Chrome trace is one join away.

The DAO is stdlib-``sqlite3`` only and safe to open concurrently from
the bench drivers (WAL would be overkill: writers are short-lived and
the default rollback journal serializes them).  All query methods
return plain dict rows in a deterministic order so downstream
formatting (``repro query``, the trajectory exporter) is byte-stable
over an unchanged database.

Opt-in is environment-driven: set ``$REPRO_STORE`` to a database path
and every instrumented writer (bench drivers via
``benchmarks/_common.emit_bench``, :func:`repro.eval.runner.run_planners`,
the serve daemon, the obs trace exporters) records what it did; leave
it unset and nothing touches disk.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import sqlite3
import subprocess
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, List, Mapping, Optional, Type, Union

from ..env import env_str
from ..exceptions import ConfigurationError

__all__ = [
    "ENV_VAR",
    "RunStore",
    "config_hash",
    "current_git_rev",
    "store_from_env",
]

#: Environment variable naming the opt-in store database path.
ENV_VAR = "REPRO_STORE"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY,
    created_at  TEXT NOT NULL,
    kind        TEXT NOT NULL,
    name        TEXT NOT NULL,
    dataset     TEXT,
    seed        INTEGER,
    git_rev     TEXT,
    config_hash TEXT,
    config_json TEXT
);
CREATE INDEX IF NOT EXISTS runs_key
    ON runs (config_hash, seed, dataset, git_rev);
CREATE TABLE IF NOT EXISTS metrics (
    run_id     INTEGER NOT NULL REFERENCES runs (id),
    key        TEXT NOT NULL,
    value_num  REAL,
    value_text TEXT,
    PRIMARY KEY (run_id, key)
);
CREATE TABLE IF NOT EXISTS bench_series (
    id              INTEGER PRIMARY KEY,
    imported_at     TEXT NOT NULL,
    bench           TEXT NOT NULL,
    gate            TEXT,
    headline_metric TEXT,
    headline_value  REAL,
    cpu_limited     INTEGER NOT NULL DEFAULT 0,
    payload_json    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS bench_series_bench ON bench_series (bench);
CREATE TABLE IF NOT EXISTS traces (
    id         INTEGER PRIMARY KEY,
    created_at TEXT NOT NULL,
    run_id     INTEGER REFERENCES runs (id),
    kind       TEXT NOT NULL,
    path       TEXT NOT NULL
);
"""


def config_hash(config: Any) -> str:
    """A stable short hash of a config mapping/dataclass.

    Dataclasses are hashed field-by-field; mappings key-by-key.  The
    hash is over the canonical (sorted-key) JSON with non-JSON leaves
    stringified, so equal configs hash equal across processes.
    """
    if hasattr(config, "__dataclass_fields__"):
        payload = {
            name: getattr(config, name)
            for name in sorted(config.__dataclass_fields__)
        }
    elif isinstance(config, Mapping):
        payload = dict(config)
    else:
        payload = {"config": config}
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def current_git_rev(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    ``$GITHUB_SHA`` wins when set (CI checkouts can be detached in ways
    that confuse rev-parse, and the env var is authoritative there).
    """
    sha = env_str("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _utc_now() -> str:
    """ISO-8601 UTC wall timestamp for labelling rows (not a duration,
    so the clock concerns of RL008 do not apply to labels)."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )


def canonical_json(payload: Any) -> str:
    """The canonical serialization used for stored JSON columns."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class RunStore:
    """DAO over the experiment database (see the module docstring).

    Usable as a context manager; :meth:`close` is idempotent.  Paths
    get parent directories created on demand; ``":memory:"`` gives a
    throwaway store for tests and the trajectory exporter.
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).expanduser().resolve().parent.mkdir(
                parents=True, exist_ok=True
            )
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # -- writers -------------------------------------------------------

    def record_run(
        self,
        kind: str,
        name: str,
        *,
        dataset: Optional[str] = None,
        seed: Optional[int] = None,
        config: Any = None,
        git_rev: Optional[str] = None,
        metrics: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Insert one run row (plus its metrics) and return the run id.

        ``config`` may be a dataclass or mapping; it is hashed with
        :func:`config_hash` and stored canonically for later diffing.
        """
        config_json: Optional[str] = None
        chash: Optional[str] = None
        if config is not None:
            chash = config_hash(config)
            if hasattr(config, "__dataclass_fields__"):
                payload = {
                    field: getattr(config, field)
                    for field in sorted(config.__dataclass_fields__)
                }
            else:
                payload = dict(config)
            config_json = json.dumps(payload, sort_keys=True, default=repr)
        cur = self._conn.execute(
            "INSERT INTO runs (created_at, kind, name, dataset, seed,"
            " git_rev, config_hash, config_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                _utc_now(),
                kind,
                name,
                dataset,
                seed,
                git_rev if git_rev is not None else current_git_rev(),
                chash,
                config_json,
            ),
        )
        run_id = int(cur.lastrowid or 0)
        if metrics:
            self.add_metrics(run_id, metrics)
        self._conn.commit()
        return run_id

    def add_metrics(self, run_id: int, metrics: Mapping[str, Any]) -> None:
        """Attach typed key/value metrics to a run (upsert per key)."""
        rows = []
        for key in sorted(metrics):
            value = metrics[key]
            if isinstance(value, bool):
                rows.append((run_id, key, None, "true" if value else "false"))
            elif isinstance(value, (int, float)):
                rows.append((run_id, key, float(value), None))
            else:
                rows.append((run_id, key, None, str(value)))
        self._conn.executemany(
            "INSERT OR REPLACE INTO metrics (run_id, key, value_num,"
            " value_text) VALUES (?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()

    def record_bench(
        self,
        bench: str,
        payload: Mapping[str, Any],
        *,
        gate: Optional[str] = None,
        headline_metric: Optional[str] = None,
        headline_value: Optional[float] = None,
        cpu_limited: bool = False,
    ) -> int:
        """Append one bench payload to the series.

        Idempotent over unchanged payloads: when the latest row for
        ``bench`` already carries the identical canonical payload, no
        new row is written (re-importing a results directory must not
        grow the history), and that row's id is returned.
        """
        payload_json = canonical_json(payload)
        latest = self._conn.execute(
            "SELECT id, payload_json FROM bench_series WHERE bench = ?"
            " ORDER BY id DESC LIMIT 1",
            (bench,),
        ).fetchone()
        if latest is not None and latest["payload_json"] == payload_json:
            return int(latest["id"])
        cur = self._conn.execute(
            "INSERT INTO bench_series (imported_at, bench, gate,"
            " headline_metric, headline_value, cpu_limited, payload_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                _utc_now(),
                bench,
                gate,
                headline_metric,
                headline_value,
                1 if cpu_limited else 0,
                payload_json,
            ),
        )
        self._conn.commit()
        return int(cur.lastrowid or 0)

    def record_trace(
        self,
        path: Union[str, Path],
        *,
        kind: str = "chrome",
        run_id: Optional[int] = None,
    ) -> int:
        """Record a pointer to a trace file an obs exporter wrote."""
        cur = self._conn.execute(
            "INSERT INTO traces (created_at, run_id, kind, path)"
            " VALUES (?, ?, ?, ?)",
            (_utc_now(), run_id, kind, str(path)),
        )
        self._conn.commit()
        return int(cur.lastrowid or 0)

    # -- queries -------------------------------------------------------

    def runs(
        self,
        *,
        dataset: Optional[str] = None,
        kind: Optional[str] = None,
        since: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run rows, oldest first; ``last`` keeps only the newest N."""
        sql = (
            "SELECT id, created_at, kind, name, dataset, seed, git_rev,"
            " config_hash FROM runs"
        )
        clauses, params = _filters(dataset=dataset, kind=kind, since=since)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        rows = [dict(row) for row in self._conn.execute(sql, params)]
        return rows[-last:] if last else rows

    def run_config(self, run_id: int) -> Optional[Dict[str, Any]]:
        """The stored config of one run, parsed back from JSON."""
        row = self._conn.execute(
            "SELECT config_json FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None or row["config_json"] is None:
            return None
        parsed: Dict[str, Any] = json.loads(row["config_json"])
        return parsed

    def metrics(
        self,
        *,
        run_id: Optional[int] = None,
        metric: Optional[str] = None,
        dataset: Optional[str] = None,
        since: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Metric rows joined to their runs, ordered (run, key)."""
        sql = (
            "SELECT m.run_id, r.kind, r.name, r.dataset, m.key,"
            " m.value_num, m.value_text FROM metrics m"
            " JOIN runs r ON r.id = m.run_id"
        )
        clauses, params = _filters(
            dataset=dataset, since=since, prefix="r."
        )
        if run_id is not None:
            clauses.append("m.run_id = ?")
            params.append(run_id)
        if metric is not None:
            clauses.append("m.key = ?")
            params.append(metric)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY m.run_id, m.key"
        rows = []
        for row in self._conn.execute(sql, params):
            value = (
                row["value_num"]
                if row["value_num"] is not None
                else row["value_text"]
            )
            rows.append(
                {
                    "run_id": row["run_id"],
                    "kind": row["kind"],
                    "name": row["name"],
                    "dataset": row["dataset"],
                    "metric": row["key"],
                    "value": value,
                }
            )
        return rows[-last:] if last else rows

    def benches(
        self,
        *,
        bench: Optional[str] = None,
        since: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Bench-series rows (payloads parsed), oldest first."""
        sql = (
            "SELECT id, imported_at, bench, gate, headline_metric,"
            " headline_value, cpu_limited, payload_json FROM bench_series"
        )
        clauses: List[str] = []
        params: List[Any] = []
        if bench is not None:
            clauses.append("bench = ?")
            params.append(bench)
        if since is not None:
            clauses.append("imported_at >= ?")
            params.append(since)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        rows = []
        for row in self._conn.execute(sql, params):
            rows.append(
                {
                    "id": row["id"],
                    "imported_at": row["imported_at"],
                    "bench": row["bench"],
                    "gate": row["gate"],
                    "headline_metric": row["headline_metric"],
                    "headline_value": row["headline_value"],
                    "cpu_limited": bool(row["cpu_limited"]),
                    "payload": json.loads(row["payload_json"]),
                }
            )
        return rows[-last:] if last else rows

    def latest_benches(self) -> List[Dict[str, Any]]:
        """The newest series row per bench, sorted by bench name."""
        latest: Dict[str, Dict[str, Any]] = {}
        for row in self.benches():
            latest[row["bench"]] = row
        return [latest[name] for name in sorted(latest)]

    def traces(
        self, *, run_id: Optional[int] = None, last: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Trace-pointer rows, oldest first."""
        sql = "SELECT id, created_at, run_id, kind, path FROM traces"
        params: List[Any] = []
        if run_id is not None:
            sql += " WHERE run_id = ?"
            params.append(run_id)
        sql += " ORDER BY id"
        rows = [dict(row) for row in self._conn.execute(sql, params)]
        return rows[-last:] if last else rows


def _filters(
    *,
    dataset: Optional[str] = None,
    kind: Optional[str] = None,
    since: Optional[str] = None,
    prefix: str = "",
) -> "tuple[List[str], List[Any]]":
    clauses: List[str] = []
    params: List[Any] = []
    if dataset is not None:
        clauses.append(f"{prefix}dataset = ?")
        params.append(dataset)
    if kind is not None:
        clauses.append(f"{prefix}kind = ?")
        params.append(kind)
    if since is not None:
        clauses.append(f"{prefix}created_at >= ?")
        params.append(since)
    return clauses, params


def store_from_env() -> Optional[RunStore]:
    """The opt-in store named by ``$REPRO_STORE``, or ``None``.

    Raises:
        ConfigurationError: when the path exists but is not a usable
            SQLite database (a clear error beats sqlite's late one).
    """
    path = env_str(ENV_VAR)
    if path is None:
        return None
    try:
        return RunStore(path)
    except sqlite3.Error as exc:
        raise ConfigurationError(
            f"${ENV_VAR}={path!r} is not a usable SQLite database: {exc}"
        ) from exc
