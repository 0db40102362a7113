"""Cross-commit benchmark trends and the regression gate.

Feeds on the ``bench_results`` series the store builds from
``BENCH_*.json`` files (see :meth:`repro.store.store.RunStore.ingest_bench`)
and answers two questions:

* **trend** — for every (workload, engine) series, and for the derived
  host-independent ``arena_vs_legacy`` speedup ratio, what is each
  measurement's delta against a *rolling baseline* (the mean of the
  previous ``window`` measurements)?
* **gate** — did the newest measurement regress more than ``threshold``
  below its rolling baseline?  ``repro trend --check-regression`` turns
  the answer into a process exit code CI can consume.

The gate defaults to the ``speedup`` metric on the ``aggregate``
pseudo-workload: the arena/legacy throughput ratio (the solver's engine
over the benchmark's fixed in-file copy of the seed engine) is measured
within one process, so absolute machine speed cancels out — the same
reasoning as the existing ``bench_bcp_micro.py --check-regression``
gate, now generalized to any depth of history.  ``--per-workload``
widens the gate to every workload series (noisier on busy CI hosts;
the aggregate is the stable contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.store.store import RunStore

#: Default regression threshold: fail when the newest value drops more
#: than 10% below the rolling baseline (matches the bench smoke gate).
DEFAULT_THRESHOLD = 0.10

#: Default rolling-baseline depth (measurements, not commits).
DEFAULT_WINDOW = 5

#: The derived ratio series: arena props/sec over seed-engine (legacy)
#: props/sec from the same benchmark run, per workload.
SPEEDUP_METRIC = "speedup_arena_vs_legacy"


@dataclass
class TrendCheck:
    """Outcome of a regression gate pass."""

    failures: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no series regressed past the threshold."""
        return not self.failures


def _series(rows: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
    """Group bench rows into ordered (workload, engine) series."""
    grouped: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for row in rows:  # rows arrive oldest-first from bench_rows()
        grouped.setdefault((row["workload"], row["engine"]), []).append(row)
    return grouped


def _speedup_series(
    rows: List[Dict[str, Any]]
) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
    """Derive per-workload arena/legacy ratio series, one point per run."""
    by_run: Dict[Any, Dict[Tuple[str, str], Dict[str, Any]]] = {}
    run_order: List[Any] = []
    for row in rows:
        if row["run_ref"] not in by_run:
            run_order.append(row["run_ref"])
        by_run.setdefault(row["run_ref"], {})[
            (row["workload"], row["engine"])
        ] = row
    series: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for run_ref in run_order:
        cells = by_run[run_ref]
        workloads = {workload for workload, _ in cells}
        for workload in sorted(workloads):
            arena = cells.get((workload, "arena"))
            legacy = cells.get((workload, "legacy"))
            if arena is None or legacy is None or not legacy["props_per_sec"]:
                continue
            point = dict(arena)
            point["engine"] = SPEEDUP_METRIC
            point["props_per_sec"] = (
                arena["props_per_sec"] / legacy["props_per_sec"]
            )
            series.setdefault((workload, SPEEDUP_METRIC), []).append(point)
    return series


def bench_trend(
    store: RunStore,
    metric: str = "speedup",
    workload: Optional[str] = None,
    engine: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
) -> List[Dict[str, Any]]:
    """Trend rows: each measurement with its rolling-baseline delta.

    ``metric`` is ``"speedup"`` (the derived arena-vs-legacy ratio) or
    ``"props_per_sec"`` (raw per-engine throughput).  Rows are ordered
    series-by-series, oldest measurement first, and carry ``baseline``
    (rolling mean of up to ``window`` prior points, ``None`` for the
    first point of a series) and ``delta_pct``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    rows = store.bench_rows(workload=workload)
    if metric == "speedup":
        grouped = _speedup_series(rows)
    elif metric == "props_per_sec":
        if engine is not None:
            rows = [row for row in rows if row["engine"] == engine]
        grouped = _series(rows)
    else:
        raise ValueError(
            f"unknown trend metric {metric!r} "
            f"(expected 'speedup' or 'props_per_sec')"
        )

    out: List[Dict[str, Any]] = []
    for (series_workload, series_engine), points in sorted(grouped.items()):
        history: List[float] = []
        for point in points:
            value = float(point["props_per_sec"])
            baseline = (
                sum(history[-window:]) / len(history[-window:])
                if history else None
            )
            delta_pct = (
                round(100.0 * (value / baseline - 1.0), 2)
                if baseline else None
            )
            out.append({
                "source": point["source"],
                "commit_ref": point["commit_ref"],
                "workload": series_workload,
                "engine": series_engine,
                "metric": metric,
                "value": round(value, 4),
                "baseline": round(baseline, 4) if baseline else None,
                "delta_pct": delta_pct,
            })
            history.append(value)
    return out


def check_regression(
    store: RunStore,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    metric: str = "speedup",
    per_workload: bool = False,
) -> TrendCheck:
    """Gate the newest measurement of each series against its baseline.

    Only series with at least two measurements are gated (a lone
    baseline has nothing to regress from).  By default just the
    ``aggregate`` pseudo-workload is checked — the host-independent
    contract — unless ``per_workload`` widens it.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    rows = bench_trend(store, metric=metric, window=window)
    check = TrendCheck()
    last_by_series: Dict[Tuple[str, str], Dict[str, Any]] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for row in rows:
        key = (row["workload"], row["engine"])
        last_by_series[key] = row
        counts[key] = counts.get(key, 0) + 1
    for key, row in sorted(last_by_series.items()):
        if not per_workload and row["workload"] != "aggregate":
            continue
        if counts[key] < 2 or row["baseline"] is None:
            continue
        check.checked += 1
        floor = (1.0 - threshold) * row["baseline"]
        if row["value"] < floor:
            check.failures.append(
                f"{row['workload']}/{row['engine']}: {row['value']} is "
                f"{-row['delta_pct']:.1f}% below the rolling baseline "
                f"{row['baseline']} (threshold {100 * threshold:.0f}%, "
                f"newest source {row['source']})"
            )
    return check
