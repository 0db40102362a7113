"""SQLite schema for the run store (see :mod:`repro.store.store`).

One database indexes every observed run — traced solves, labelling
sweeps, benchmark suites, fuzz campaigns, serve/chaos sessions — plus
standalone benchmark result files, in five tables:

* ``runs``          — one row per run: kind, status, commit, policy,
  wall clock, event/warning counts, the manifest config as JSON;
* ``phases``        — per-run phase totals (the ``run-end`` span
  summary): name, count, seconds;
* ``metrics``       — flattened metrics snapshot: counters, gauges,
  histogram summaries (full histogram JSON kept in ``payload_json``),
  and per-event-type counts (``events.<type>`` rows);
* ``artifacts``     — content-addressed file references (sha256 +
  size): the trace, its manifest, ingested ``BENCH_*.json`` files,
  shrunk fuzz-corpus repros.  The store never copies artifact bytes —
  it records where they live and what they hashed to;
* ``bench_results`` — one row per (workload, engine) measurement from
  a ``BENCH_*.json`` file, the substrate for cross-commit trend
  queries and the regression gate.

``quarantine`` records inputs the ingester refused (corrupt JSON,
schema-version skew, empty traces) — ingest never aborts a batch, it
quarantines and continues.  ``meta`` pins the store schema version so
a newer store is rejected loudly instead of misread.

Everything is plain SQLite (stdlib ``sqlite3``), WAL-journaled when the
filesystem allows, so concurrent writers — parallel sweeps finishing at
once — serialize on short transactions instead of corrupting the index.
"""

from __future__ import annotations

#: Bump when tables/columns change incompatibly.  An older library
#: refuses to open a newer store (the reverse is handled by additive
#: migrations; none exist yet).
STORE_SCHEMA_VERSION = 1

#: Executed on every open; all statements are idempotent.
SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY,
    run_id         TEXT NOT NULL UNIQUE,
    kind           TEXT NOT NULL,
    status         TEXT NOT NULL,
    exit_code      INTEGER,
    commit_ref     TEXT NOT NULL DEFAULT '',
    policy         TEXT NOT NULL DEFAULT '',
    created_unix   REAL NOT NULL DEFAULT 0,
    wall_seconds   REAL NOT NULL DEFAULT 0,
    events         INTEGER NOT NULL DEFAULT 0,
    warnings       INTEGER NOT NULL DEFAULT 0,
    format_version INTEGER NOT NULL DEFAULT 0,
    config_json    TEXT NOT NULL DEFAULT '{}',
    ingested_unix  REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_runs_kind    ON runs (kind);
CREATE INDEX IF NOT EXISTS idx_runs_commit  ON runs (commit_ref);
CREATE INDEX IF NOT EXISTS idx_runs_created ON runs (created_unix);

CREATE TABLE IF NOT EXISTS phases (
    run_ref INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    count   INTEGER NOT NULL DEFAULT 0,
    seconds REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_phases_run ON phases (run_ref);

CREATE TABLE IF NOT EXISTS metrics (
    run_ref      INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name         TEXT NOT NULL,
    kind         TEXT NOT NULL,
    value        REAL NOT NULL DEFAULT 0,
    payload_json TEXT
);
CREATE INDEX IF NOT EXISTS idx_metrics_run  ON metrics (run_ref);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);

CREATE TABLE IF NOT EXISTS artifacts (
    id      INTEGER PRIMARY KEY,
    run_ref INTEGER REFERENCES runs (id) ON DELETE CASCADE,
    role    TEXT NOT NULL,
    path    TEXT NOT NULL,
    sha256  TEXT NOT NULL,
    bytes   INTEGER NOT NULL DEFAULT 0,
    UNIQUE (run_ref, role, path)
);
CREATE INDEX IF NOT EXISTS idx_artifacts_sha ON artifacts (sha256);

CREATE TABLE IF NOT EXISTS bench_results (
    id           INTEGER PRIMARY KEY,
    run_ref      INTEGER REFERENCES runs (id) ON DELETE CASCADE,
    source       TEXT NOT NULL,
    commit_ref   TEXT NOT NULL DEFAULT '',
    workload     TEXT NOT NULL,
    engine       TEXT NOT NULL,
    propagations INTEGER NOT NULL DEFAULT 0,
    seconds      REAL NOT NULL DEFAULT 0,
    props_per_sec REAL NOT NULL DEFAULT 0,
    smoke        INTEGER NOT NULL DEFAULT 0,
    created_unix REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_bench_series
    ON bench_results (workload, engine, created_unix);

CREATE TABLE IF NOT EXISTS quarantine (
    id               INTEGER PRIMARY KEY,
    path             TEXT NOT NULL,
    reason           TEXT NOT NULL,
    detail           TEXT NOT NULL DEFAULT '',
    quarantined_unix REAL NOT NULL DEFAULT 0
);
"""

#: Columns (and their order) the ``runs`` query surface exposes.
RUN_COLUMNS = (
    "run_id", "kind", "status", "exit_code", "commit_ref", "policy",
    "created_unix", "wall_seconds", "events", "warnings",
)

#: Columns the ``metrics`` query surface exposes.
METRIC_COLUMNS = ("run_id", "kind", "name", "metric_kind", "value")

#: Columns the ``traces``/artifact query surface exposes.
ARTIFACT_COLUMNS = ("run_id", "kind", "role", "path", "sha256", "bytes")

#: Columns ``repro trend`` prints.
TREND_COLUMNS = (
    "source", "commit_ref", "workload", "engine",
    "value", "baseline", "delta_pct",
)
