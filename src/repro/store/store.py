"""The queryable run store: ingest + query over every observed run.

:class:`RunStore` owns one SQLite database (see
:mod:`repro.store.schema`) and exposes three surfaces:

* **registration** — :meth:`RunStore.register_run` inserts a ``running``
  placeholder the moment ``start_run`` creates a trace, so even a run
  that crashes before ``run-end`` is visible (and queryable as
  unfinished);
* **ingest** — :meth:`RunStore.ingest_trace` parses a finished trace
  (plus its sibling manifest) into ``runs`` / ``phases`` / ``metrics``
  / ``artifacts`` rows; :meth:`RunStore.ingest_bench` flattens a
  ``BENCH_*.json`` file into ``bench_results`` series rows.
  :meth:`RunStore.ingest_many` is the batch form with the ingest
  contract the tests pin: **quarantine and continue** — a corrupt,
  truncated, or schema-skewed input lands in the ``quarantine`` table
  and the rest of the batch still ingests;
* **query** — :meth:`RunStore.runs`, :meth:`RunStore.metrics`,
  :meth:`RunStore.artifacts`, :meth:`RunStore.bench_rows`,
  :meth:`RunStore.latest_run` — plain-dict rows for the ``repro
  query`` CLI and the trend gate.

Ingest is idempotent: runs are keyed by ``run_id`` (bench files by the
sha256 of their bytes), and re-ingesting replaces that run's dependent
rows instead of duplicating them.  Writers from separate processes are
safe: WAL journaling where available, a 30s busy timeout, and one
short transaction per run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import TRACE_FORMAT_VERSION, read_trace
from repro.store.schema import SCHEMA_SQL, STORE_SCHEMA_VERSION

#: ``REPRO_STORE`` values that switch auto-registration off entirely.
_OFF_VALUES = ("0", "off", "none", "disabled", "false")

#: Exit codes that mean the run did what it was asked (``repro solve``
#: answers with 10/20 for SAT/UNSAT by DIMACS convention).
_OK_EXIT_CODES = (0, 10, 20)


class StoreError(Exception):
    """Base error for run-store failures."""


class StoreIngestError(StoreError):
    """One input could not be ingested (quarantined in batch mode)."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


@dataclass
class IngestReport:
    """Outcome of a batch ingest (see :meth:`RunStore.ingest_many`)."""

    ingested: int = 0
    updated: int = 0
    quarantined: int = 0
    warnings: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Inputs touched, good or bad."""
        return self.ingested + self.updated + self.quarantined


def resolve_auto_store(
    trace_dir: Optional[Union[str, Path]]
) -> Optional[Path]:
    """Where auto-registration should write, or ``None`` when disabled.

    ``REPRO_STORE`` wins: a path routes every run there, an off-value
    (``0``/``off``/``none``) disables the store entirely.  Otherwise a
    traced run defaults to ``<trace_dir>/runstore.sqlite`` — beside the
    traces it indexes — and an untraced run has no store.
    """
    env = os.environ.get("REPRO_STORE", "").strip()
    if env.lower() in _OFF_VALUES:
        return None
    if env:
        return Path(env)
    if trace_dir is None:
        return None
    return Path(trace_dir) / "runstore.sqlite"


def file_sha256(path: Union[str, Path]) -> Tuple[str, int]:
    """(hex digest, byte count) of a file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _sibling_manifest(trace_path: Path) -> Path:
    """``<stem>.manifest.json`` beside a ``<stem>.jsonl`` trace."""
    return trace_path.with_name(trace_path.name[: -len(".jsonl")]
                                + ".manifest.json") \
        if trace_path.name.endswith(".jsonl") \
        else trace_path.with_suffix(".manifest.json")


class RunStore:
    """One SQLite run index; safe for short-lived concurrent writers."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout = 30000")
        try:
            self._conn.execute("PRAGMA journal_mode = WAL")
        except sqlite3.DatabaseError:
            pass  # network filesystems: rollback journal is fine
        self._conn.executescript(SCHEMA_SQL)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(STORE_SCHEMA_VERSION)),
            )
            self._conn.commit()
        elif int(row["value"]) > STORE_SCHEMA_VERSION:
            version = int(row["value"])
            self._conn.close()
            raise StoreError(
                f"{self.path} has store schema v{version}, newer than "
                f"this library's v{STORE_SCHEMA_VERSION} — upgrade the "
                f"code, the store is not downgradable"
            )

    def close(self) -> None:
        """Commit and release the connection (idempotent)."""
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration (the start_run hook) --------------------------------

    def register_run(
        self,
        run_id: str,
        kind: str,
        commit: str = "",
        policy: str = "",
        created_unix: float = 0.0,
        config: Optional[Dict[str, Any]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> int:
        """Insert a ``running`` placeholder row; returns the row id.

        Called by ``start_run`` before any work happens, so a run that
        dies mid-flight still appears (status ``running``) instead of
        vanishing.  A later :meth:`ingest_trace` of the same ``run_id``
        replaces the placeholder with the finished record.
        """
        cur = self._conn.execute(
            """
            INSERT INTO runs (run_id, kind, status, commit_ref, policy,
                              created_unix, format_version, config_json,
                              ingested_unix)
            VALUES (?, ?, 'running', ?, ?, ?, ?, ?, ?)
            ON CONFLICT (run_id) DO UPDATE SET
                kind = excluded.kind,
                commit_ref = excluded.commit_ref,
                policy = excluded.policy,
                created_unix = excluded.created_unix,
                config_json = excluded.config_json
            """,
            (
                run_id, kind, commit, policy, created_unix,
                TRACE_FORMAT_VERSION,
                json.dumps(config or {}, sort_keys=True, default=str),
                time.time(),
            ),
        )
        run_ref = cur.lastrowid or self._run_ref(run_id)
        for role, path in (("trace", trace_path), ("manifest", manifest_path)):
            if path is not None and Path(path).exists():
                self._record_artifact(run_ref, role, Path(path))
        self._conn.commit()
        return run_ref

    def register_artifact(
        self,
        path: Union[str, Path],
        role: str,
        run_id: Optional[str] = None,
    ) -> None:
        """Record a standalone artifact (e.g. a shrunk fuzz repro)."""
        run_ref = self._run_ref(run_id) if run_id else None
        self._record_artifact(run_ref, role, Path(path))
        self._conn.commit()

    def _record_artifact(
        self, run_ref: Optional[int], role: str, path: Path
    ) -> None:
        sha, size = file_sha256(path)
        self._conn.execute(
            """
            INSERT INTO artifacts (run_ref, role, path, sha256, bytes)
            VALUES (?, ?, ?, ?, ?)
            ON CONFLICT (run_ref, role, path) DO UPDATE SET
                sha256 = excluded.sha256, bytes = excluded.bytes
            """,
            (run_ref, role, str(Path(path).resolve()), sha, size),
        )

    def _run_ref(self, run_id: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT id FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return row["id"] if row else None

    # -- trace ingest ------------------------------------------------------

    def ingest_trace(
        self,
        trace_path: Union[str, Path],
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> str:
        """Index one trace file; returns ``"inserted"`` or ``"updated"``.

        Raises :class:`StoreIngestError` on unusable input — batch
        callers go through :meth:`ingest_many`, which converts that
        into a quarantine row and continues.
        """
        trace_path = Path(trace_path)
        try:
            loaded = read_trace(trace_path)
            events, errors, warnings = (
                loaded.events, loaded.errors, loaded.warnings
            )
        except OSError as exc:
            raise StoreIngestError("unreadable-trace", str(exc))
        except ValueError as exc:
            raise StoreIngestError("corrupt-trace", str(exc))
        if not events:
            detail = errors[0] if errors else "no parseable events"
            raise StoreIngestError("empty-trace", detail)

        manifest = self._load_manifest(trace_path, manifest_path, events)
        if manifest is None:
            raise StoreIngestError(
                "missing-manifest",
                "no run-start event and no readable sibling manifest",
            )
        version = int(
            manifest.get("trace_format_version")
            or next(
                (e.get("format_version", 0) for e in events
                 if e["event"] == "run-start"), 0
            )
            or 0
        )
        if version > TRACE_FORMAT_VERSION:
            raise StoreIngestError(
                "schema-version-skew",
                f"trace format v{version} is newer than this library's "
                f"v{TRACE_FORMAT_VERSION}",
            )

        run_id = manifest.get("run_id") or events[0]["run_id"]
        kind = manifest.get("command") or "unknown"
        run_end = next(
            (e for e in reversed(events) if e["event"] == "run-end"), None
        )
        exit_code = None
        status = "incomplete"
        phases: Dict[str, Dict[str, float]] = {}
        metrics: Dict[str, Any] = {}
        if run_end is not None:
            raw_code = run_end.get("exit_code")
            exit_code = int(raw_code) if raw_code is not None else None
            status = (
                "ok" if exit_code in _OK_EXIT_CODES or exit_code is None
                else "failed"
            )
            phases = run_end.get("phases", {}) or {}
            metrics = run_end.get("metrics", {}) or {}

        event_counts: Dict[str, int] = {}
        for record in events:
            event_counts[record["event"]] = (
                event_counts.get(record["event"], 0) + 1
            )

        existed = self._run_ref(run_id) is not None
        with self._conn:  # one transaction per run
            self._conn.execute(
                """
                INSERT INTO runs (run_id, kind, status, exit_code,
                                  commit_ref, policy, created_unix,
                                  wall_seconds, events, warnings,
                                  format_version, config_json,
                                  ingested_unix)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (run_id) DO UPDATE SET
                    kind = excluded.kind,
                    status = excluded.status,
                    exit_code = excluded.exit_code,
                    commit_ref = excluded.commit_ref,
                    policy = excluded.policy,
                    created_unix = excluded.created_unix,
                    wall_seconds = excluded.wall_seconds,
                    events = excluded.events,
                    warnings = excluded.warnings,
                    format_version = excluded.format_version,
                    config_json = excluded.config_json,
                    ingested_unix = excluded.ingested_unix
                """,
                (
                    run_id, kind, status, exit_code,
                    str(manifest.get("git", "")),
                    str(manifest.get("policy", "")),
                    float(manifest.get("created_unix", 0.0) or 0.0),
                    float(events[-1]["ts"]),
                    len(events),
                    len(warnings),
                    version,
                    json.dumps(
                        manifest.get("config", {}), sort_keys=True,
                        default=str,
                    ),
                    time.time(),
                ),
            )
            run_ref = self._run_ref(run_id)
            self._conn.execute(
                "DELETE FROM phases WHERE run_ref = ?", (run_ref,)
            )
            self._conn.execute(
                "DELETE FROM metrics WHERE run_ref = ?", (run_ref,)
            )
            for name, entry in sorted(phases.items()):
                self._conn.execute(
                    "INSERT INTO phases (run_ref, name, count, seconds) "
                    "VALUES (?, ?, ?, ?)",
                    (run_ref, name, int(entry.get("count", 0)),
                     float(entry.get("seconds", 0.0))),
                )
            self._insert_metrics(run_ref, metrics, event_counts)
            self._record_artifact(run_ref, "trace", trace_path)
            sibling = (
                Path(manifest_path) if manifest_path is not None
                else _sibling_manifest(trace_path)
            )
            if sibling.exists():
                self._record_artifact(run_ref, "manifest", sibling)
        return "updated" if existed else "inserted"

    def _insert_metrics(
        self,
        run_ref: int,
        metrics: Dict[str, Any],
        event_counts: Dict[str, int],
    ) -> None:
        rows: List[Tuple[int, str, str, float, Optional[str]]] = []
        for name, value in sorted(metrics.get("counters", {}).items()):
            rows.append((run_ref, name, "counter", float(value), None))
        for name, value in sorted(metrics.get("gauges", {}).items()):
            rows.append((run_ref, name, "gauge", float(value), None))
        for name, snap in sorted(metrics.get("histograms", {}).items()):
            rows.append((
                run_ref, name, "histogram",
                float(snap.get("count", 0)),
                json.dumps(snap, sort_keys=True, default=str),
            ))
        for name, count in sorted(event_counts.items()):
            rows.append((run_ref, f"events.{name}", "event", float(count),
                         None))
        self._conn.executemany(
            "INSERT INTO metrics (run_ref, name, kind, value, payload_json) "
            "VALUES (?, ?, ?, ?, ?)",
            rows,
        )

    def _load_manifest(
        self,
        trace_path: Path,
        manifest_path: Optional[Union[str, Path]],
        events: List[Dict[str, Any]],
    ) -> Optional[Dict[str, Any]]:
        """Embedded run-start manifest, else the sibling file, else None."""
        for record in events:
            if record["event"] == "run-start":
                manifest = record.get("manifest")
                if isinstance(manifest, dict):
                    return manifest
        candidate = (
            Path(manifest_path) if manifest_path is not None
            else _sibling_manifest(trace_path)
        )
        try:
            loaded = json.loads(candidate.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return loaded if isinstance(loaded, dict) else None

    # -- bench ingest ------------------------------------------------------

    def ingest_bench(
        self,
        path: Union[str, Path],
        commit: Optional[str] = None,
    ) -> int:
        """Flatten one ``BENCH_*.json`` into series rows; returns count.

        The synthetic run row is keyed by the file's content hash, so
        re-ingesting the identical file replaces (never duplicates) its
        series rows.  Ordering for trend queries comes from the
        payload's ``created_unix`` stamp.  A payload without one (the
        committed ``BENCH_bcp.json``) sorts before every stamped one, in
        ingest order among themselves: a file's mtime moves on checkout
        or ``touch``, and must not make a baseline the newest point.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StoreIngestError("unreadable-bench", str(exc))
        except ValueError as exc:
            raise StoreIngestError("corrupt-bench", str(exc))
        if not isinstance(payload, dict) or "bcp" not in payload:
            raise StoreIngestError(
                "unrecognized-bench", f"{path.name} has no 'bcp' section"
            )
        bcp = payload["bcp"]
        workloads = bcp.get("workloads", {})
        aggregate = bcp.get("aggregate", {})
        if not isinstance(workloads, dict) or not workloads:
            raise StoreIngestError(
                "unrecognized-bench", f"{path.name} has no workloads"
            )

        sha, size = file_sha256(path)
        run_id = f"b-{sha[:12]}"
        commit_ref = str(commit or payload.get("git", "") or "")
        created = float(payload.get("created_unix") or 0.0)
        smoke = 1 if payload.get("smoke") else 0

        rows: List[Tuple[str, str, int, float, float]] = []
        for workload, engines in sorted(workloads.items()):
            for engine, cell in sorted(engines.items()):
                if not isinstance(cell, dict):
                    continue  # speedup ratios, recomputed at query time
                rows.append((
                    workload, engine,
                    int(cell.get("propagations", 0)),
                    float(cell.get("seconds", 0.0)),
                    float(cell.get("props_per_sec", 0.0)),
                ))
        for engine, pps in sorted(aggregate.items()):
            if engine.startswith("speedup"):
                continue
            rows.append(("aggregate", engine, 0, 0.0, float(pps)))

        with self._conn:
            self._conn.execute(
                """
                INSERT INTO runs (run_id, kind, status, commit_ref,
                                  created_unix, config_json, ingested_unix)
                VALUES (?, 'bench-file', 'ok', ?, ?, ?, ?)
                ON CONFLICT (run_id) DO UPDATE SET
                    commit_ref = excluded.commit_ref,
                    created_unix = excluded.created_unix,
                    ingested_unix = excluded.ingested_unix
                """,
                (
                    run_id, commit_ref, created,
                    json.dumps({"source": str(path), "smoke": bool(smoke)}),
                    time.time(),
                ),
            )
            run_ref = self._run_ref(run_id)
            self._conn.execute(
                "DELETE FROM bench_results WHERE run_ref = ?", (run_ref,)
            )
            self._conn.executemany(
                """
                INSERT INTO bench_results
                    (run_ref, source, commit_ref, workload, engine,
                     propagations, seconds, props_per_sec, smoke,
                     created_unix)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                [
                    (run_ref, path.name, commit_ref, workload, engine,
                     props, seconds, pps, smoke, created)
                    for workload, engine, props, seconds, pps in rows
                ],
            )
            self._record_artifact(run_ref, "bench-json", path)
        return len(rows)

    # -- batch ingest (quarantine and continue) ---------------------------

    def ingest_many(
        self, paths: Sequence[Union[str, Path]]
    ) -> IngestReport:
        """Ingest a mixed batch of traces and bench files.

        The contract the tests pin: a bad input **never aborts the
        batch**.  Each failure becomes a ``quarantine`` row (reason +
        detail) and a line in the returned report; every good input
        still lands.
        """
        report = IngestReport()
        for path in paths:
            path = Path(path)
            try:
                if path.name.endswith(".manifest.json"):
                    continue  # ingested alongside its trace
                if path.suffix == ".json":
                    self.ingest_bench(path)
                    report.ingested += 1
                else:
                    outcome = self.ingest_trace(path)
                    if outcome == "updated":
                        report.updated += 1
                    else:
                        report.ingested += 1
                    report.warnings += len(read_trace(path).warnings)
            except StoreIngestError as exc:
                self._quarantine(path, exc.reason, exc.detail)
                report.quarantined += 1
                report.problems.append(f"{path}: {exc}")
            except Exception as exc:  # defensive: never abort the batch
                self._quarantine(path, "ingest-error",
                                 f"{type(exc).__name__}: {exc}")
                report.quarantined += 1
                report.problems.append(f"{path}: {exc}")
        return report

    def _quarantine(self, path: Path, reason: str, detail: str) -> None:
        self._conn.execute(
            "INSERT INTO quarantine (path, reason, detail, quarantined_unix) "
            "VALUES (?, ?, ?, ?)",
            (str(path), reason, detail, time.time()),
        )
        self._conn.commit()

    def quarantined(self) -> List[Dict[str, Any]]:
        """All quarantine rows, oldest first."""
        rows = self._conn.execute(
            "SELECT path, reason, detail, quarantined_unix "
            "FROM quarantine ORDER BY id"
        ).fetchall()
        return [dict(row) for row in rows]

    # -- queries -----------------------------------------------------------

    def runs(
        self,
        kind: Optional[str] = None,
        status: Optional[str] = None,
        commit: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Filtered run rows, newest first."""
        clauses: List[str] = []
        params: List[Any] = []
        for column, value in (
            ("kind", kind), ("status", status), ("commit_ref", commit)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if since is not None:
            clauses.append("created_unix >= ?")
            params.append(since)
        if until is not None:
            clauses.append("created_unix <= ?")
            params.append(until)
        sql = (
            "SELECT run_id, kind, status, exit_code, commit_ref, policy, "
            "created_unix, wall_seconds, events, warnings FROM runs"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_unix DESC, id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [dict(row) for row in self._conn.execute(sql, params)]

    def run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One full run record (config included), or ``None``."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            return None
        record = dict(row)
        record["config"] = json.loads(record.pop("config_json") or "{}")
        return record

    def latest_run(self, kind: str) -> Optional[Dict[str, Any]]:
        """The most recently created run of one kind, or ``None``."""
        row = self._conn.execute(
            "SELECT run_id FROM runs WHERE kind = ? "
            "ORDER BY created_unix DESC, id DESC LIMIT 1",
            (kind,),
        ).fetchone()
        return self.run(row["run_id"]) if row else None

    def metrics(
        self,
        run_id: Optional[str] = None,
        name: Optional[str] = None,
        metric_kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Flattened metric rows joined with their run identity.

        ``name`` matches exactly, unless it contains a ``*`` or ``%``
        wildcard — then SQL ``LIKE`` semantics apply (``*`` is mapped
        to ``%``, so ``serve.*`` selects every serve metric).
        """
        clauses: List[str] = []
        params: List[Any] = []
        if run_id is not None:
            clauses.append("r.run_id = ?")
            params.append(run_id)
        if name is not None:
            if "*" in name or "%" in name:
                clauses.append("m.name LIKE ?")
                params.append(name.replace("*", "%"))
            else:
                clauses.append("m.name = ?")
                params.append(name)
        if metric_kind is not None:
            clauses.append("m.kind = ?")
            params.append(metric_kind)
        sql = (
            "SELECT r.run_id AS run_id, r.kind AS kind, m.name AS name, "
            "m.kind AS metric_kind, m.value AS value "
            "FROM metrics m JOIN runs r ON r.id = m.run_ref"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY r.created_unix DESC, m.name"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [dict(row) for row in self._conn.execute(sql, params)]

    def phases(self, run_id: str) -> List[Dict[str, Any]]:
        """Phase totals for one run (empty for unknown runs)."""
        rows = self._conn.execute(
            "SELECT p.name AS name, p.count AS count, p.seconds AS seconds "
            "FROM phases p JOIN runs r ON r.id = p.run_ref "
            "WHERE r.run_id = ? ORDER BY p.seconds DESC",
            (run_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def artifacts(
        self,
        run_id: Optional[str] = None,
        role: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Artifact references, newest-run first."""
        clauses: List[str] = []
        params: List[Any] = []
        if run_id is not None:
            clauses.append("r.run_id = ?")
            params.append(run_id)
        if role is not None:
            clauses.append("a.role = ?")
            params.append(role)
        if kind is not None:
            clauses.append("r.kind = ?")
            params.append(kind)
        sql = (
            "SELECT r.run_id AS run_id, r.kind AS kind, a.role AS role, "
            "a.path AS path, a.sha256 AS sha256, a.bytes AS bytes "
            "FROM artifacts a LEFT JOIN runs r ON r.id = a.run_ref"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY a.id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [dict(row) for row in self._conn.execute(sql, params)]

    def trace_path(self, run_id: str) -> Optional[Path]:
        """The stored trace artifact path for one run, or ``None``."""
        for row in self.artifacts(run_id=run_id, role="trace"):
            return Path(row["path"])
        return None

    def bench_rows(self) -> List[Dict[str, Any]]:
        """Bench series rows, oldest first (trend order)."""
        return [dict(row) for row in self._conn.execute(
            "SELECT run_ref, source, commit_ref, workload, engine, "
            "propagations, seconds, props_per_sec, smoke, created_unix "
            "FROM bench_results ORDER BY created_unix, id"
        )]

    def counts(self) -> Dict[str, int]:
        """Row counts per table (the smoke test's round-trip check)."""
        out: Dict[str, int] = {}
        for table in ("runs", "phases", "metrics", "artifacts",
                      "bench_results", "quarantine"):
            out[table] = self._conn.execute(
                f"SELECT COUNT(*) AS n FROM {table}"
            ).fetchone()["n"]
        return out
