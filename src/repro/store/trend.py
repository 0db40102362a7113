"""Cross-commit benchmark trends and the BCP regression gate.

Feeds on the ``bench_results`` series the store builds from
``BENCH_*.json`` files (see :meth:`repro.store.store.RunStore.ingest_bench`)
and answers two questions:

* **trend** — for every workload's derived arena/legacy speedup ratio,
  what is each measurement's delta against a *rolling baseline* (the
  mean of the previous ``TREND_WINDOW`` measurements)?
* **gate** — did the newest ``aggregate`` ratio drop more than
  ``REGRESSION_THRESHOLD`` below its rolling baseline?  ``repro trend
  --check-regression`` turns the answer into a process exit code; it
  is the one BCP regression gate CI runs.

The ratio is the solver's arena engine over the benchmark's fixed
in-file copy of the seed engine (legacy), both measured within one
process, so absolute machine speed cancels out.  Only the aggregate
is gated: single workloads are too short to be stable on busy hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.store.store import RunStore

#: Fail when the newest aggregate ratio drops more than 10% below the
#: rolling baseline.
REGRESSION_THRESHOLD = 0.10

#: Rolling-baseline depth (measurements, not commits).
TREND_WINDOW = 5

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


def _speedup_series(rows: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """Derive per-workload arena/legacy ratio series, one point per run."""
    by_run: Dict[Any, Dict[Tuple[str, str], Dict[str, Any]]] = {}
    for row in rows:  # rows arrive oldest-first from bench_rows()
        by_run.setdefault(row["run_ref"], {})[
            (row["workload"], row["engine"])
        ] = row
    series: Dict[str, List[Dict[str, Any]]] = {}
    for cells in by_run.values():  # dicts keep first-seen (run) order
        for workload in sorted({workload for workload, _ in cells}):
            arena = cells.get((workload, "arena"))
            legacy = cells.get((workload, "legacy"))
            if arena is None or legacy is None or not legacy["props_per_sec"]:
                continue
            point = dict(arena)
            point["value"] = arena["props_per_sec"] / legacy["props_per_sec"]
            series.setdefault(workload, []).append(point)
    return series


def bench_trend(store: RunStore) -> List[Dict[str, Any]]:
    """Trend rows: each speedup measurement with its rolling-baseline delta.

    Rows are ordered workload by workload, oldest measurement first,
    and carry ``baseline`` (rolling mean of up to ``TREND_WINDOW``
    prior points, ``None`` for the first point of a series) and
    ``delta_pct``.
    """
    out: List[Dict[str, Any]] = []
    for workload, points in sorted(_speedup_series(store.bench_rows()).items()):
        history: List[float] = []
        for point in points:
            value = float(point["value"])
            recent = history[-TREND_WINDOW:]
            baseline = sum(recent) / len(recent) if recent else None
            out.append({
                "source": point["source"],
                "commit_ref": point["commit_ref"],
                "workload": workload,
                "engine": SPEEDUP_METRIC,
                "value": round(value, 4),
                "baseline": round(baseline, 4) if baseline else None,
                "delta_pct": (
                    round(100.0 * (value / baseline - 1.0), 2)
                    if baseline else None
                ),
            })
            history.append(value)
    return out


def check_regression(store: RunStore) -> TrendCheck:
    """Gate the newest ``aggregate`` ratio against its rolling baseline.

    A lone measurement has nothing to regress from and is not gated.
    """
    check = TrendCheck()
    aggregate = [row for row in bench_trend(store) if row["workload"] == "aggregate"]
    if not aggregate or aggregate[-1]["baseline"] is None:
        return check
    row = aggregate[-1]
    check.checked = 1
    if row["value"] < (1.0 - REGRESSION_THRESHOLD) * row["baseline"]:
        check.failures.append(
            f"aggregate/{row['engine']}: {row['value']} is "
            f"{-row['delta_pct']:.1f}% below the rolling baseline "
            f"{row['baseline']} (threshold "
            f"{100 * REGRESSION_THRESHOLD:.0f}%, newest source "
            f"{row['source']})"
        )
    return check
