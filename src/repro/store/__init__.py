"""Queryable run store: index every trace, bench, fuzz, and chaos run.

The observability layer (PR 3) made every heavyweight path emit
self-describing trace manifests; this package is the layer above it —
the fleet-scale accounting the ROADMAP names.  One SQLite database
(:class:`~repro.store.store.RunStore`) indexes every observed run into
``runs`` / ``phases`` / ``metrics`` / ``artifacts`` rows, plus
``bench_results`` series flattened from ``BENCH_*.json`` files, so
questions like *"which labelling sweeps ran last week"*, *"did the
arena/legacy BCP ratio regress since commit X"*, or *"which chaos
scenarios ever went red"* are one query instead of a JSONL grep.

Auto-registration is caller-free: ``start_run`` registers every traced
run the moment its trace is created (status ``running``), and
``Observer.finish`` ingests the finished trace — so solve, dataset,
train, bench, fuzz, serve, and chaos runs all land in
``<trace_dir>/runstore.sqlite`` (or ``$REPRO_STORE``) without any
caller changes.  The benchmark writer and the fuzz corpus register
their artifacts the same way.  Set ``REPRO_STORE=off`` to disable.

Surfaces:

* ``repro query runs|metrics|traces`` — filterable table/csv/json
  output (:mod:`repro.store.render`);
* ``repro trend`` — ingest ``BENCH_*.json`` across commits, print
  rolling-baseline deltas of the arena/legacy BCP ratio, and gate
  regressions (:mod:`repro.store.trend`);
* ``repro report <run-id>`` / ``--latest kind=bench`` — resolve trace
  artifacts through the store instead of raw paths.

See ``docs/run_store.md`` for the schema and a query cookbook.
"""

from repro.store.render import FORMATS, format_rows, humanize_unix
from repro.store.schema import (
    ARTIFACT_COLUMNS,
    METRIC_COLUMNS,
    RUN_COLUMNS,
    STORE_SCHEMA_VERSION,
    TREND_COLUMNS,
)
from repro.store.store import (
    IngestReport,
    RunStore,
    StoreError,
    StoreIngestError,
    file_sha256,
    resolve_auto_store,
)
from repro.store.trend import (
    REGRESSION_THRESHOLD,
    TREND_WINDOW,
    TrendCheck,
    bench_trend,
    check_regression,
)

__all__ = [
    "ARTIFACT_COLUMNS",
    "FORMATS",
    "IngestReport",
    "METRIC_COLUMNS",
    "REGRESSION_THRESHOLD",
    "RUN_COLUMNS",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "StoreIngestError",
    "TREND_COLUMNS",
    "TREND_WINDOW",
    "TrendCheck",
    "bench_trend",
    "check_regression",
    "file_sha256",
    "format_rows",
    "humanize_unix",
    "resolve_auto_store",
]
