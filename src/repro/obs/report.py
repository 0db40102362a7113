"""Trace analysis: turn ``.jsonl`` run traces into human-readable reports.

``repro report <trace.jsonl> ...`` renders, per the ISSUE's contract:

* **per-phase time breakdown** — from each run's ``run-end`` phase
  totals (falling back to aggregating ``span`` events for truncated
  traces);
* **event counts** — restarts, reductions (with clauses deleted),
  and the rest of the event taxonomy;
* **task latency** — exact percentiles over ``task-finish`` wall-clock
  (the supervisor measures failed attempts too, so timeouts show their
  real cost);
* **failure taxonomy** — TIMEOUT / ERROR / MEMOUT counts plus retry
  volume;
* **policy comparison** — per-policy effort aggregates, with the
  propagation delta when exactly two policies appear (the Table 3
  shape);
* **metric histograms** — registry snapshots embedded in ``run-end``
  (BCP batch sizes, learned-clause glue, span durations);
* **service summary** — for ``repro serve`` traces: inference
  batch-size histogram with flush-trigger counts (the amortization
  evidence: forward passes vs requests), admission tallies, queue-wait
  and request-wall percentiles, and response status counts;
* **resilience summary** — degraded responses, rejections by reason
  (queue-full vs deadline sheds), deadline misses, breaker transitions,
  tolerated journal-write errors, and — for ``repro chaos`` traces —
  injected faults by injection point and per-scenario verdicts.

Everything works from the files alone — no live process, no pickle —
so traces from remote sweeps can be analysed anywhere.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from repro.obs.trace import read_trace


def _percentile(values: List[float], q: float) -> float:
    """Exact nearest-rank percentile of a non-empty sorted list."""
    if not values:
        return 0.0
    rank = max(0, min(len(values) - 1, int(round(q * (len(values) - 1)))))
    return values[rank]


def summarize_traces(
    paths: Sequence[Union[str, Path]]
) -> Dict[str, Any]:
    """Aggregate one or more trace files into a JSON-able summary."""
    runs: List[Dict[str, Any]] = []
    errors: List[str] = []
    event_counts: Dict[str, int] = {}
    phases: Dict[str, Dict[str, float]] = {}
    deleted_clauses = 0
    task_wall: List[float] = []
    cached_tasks = 0
    resumed_tasks = 0
    retries = 0
    failures: Dict[str, int] = {}
    by_policy: Dict[str, Dict[str, float]] = {}
    metrics_by_run: Dict[str, Dict[str, Any]] = {}
    solves: List[Dict[str, Any]] = []
    serve_admitted = 0
    serve_rejected = 0
    serve_batches: List[int] = []
    serve_triggers: Dict[str, int] = {}
    serve_inference_seconds = 0.0
    serve_waits: List[float] = []
    serve_walls: List[float] = []
    serve_statuses: Dict[str, int] = {}
    serve_degraded = 0
    serve_deadline_missed = 0
    reject_reasons: Dict[str, int] = {}
    breaker_transitions: Dict[str, int] = {}
    journal_errors = 0
    chaos_faults: Dict[str, int] = {}
    chaos_runs: List[Dict[str, Any]] = []

    trace_warnings = 0
    for path in paths:
        loaded = read_trace(path)
        events, file_errors = loaded.events, loaded.errors
        errors.extend(f"{path}: {err}" for err in file_errors)
        trace_warnings += loaded.warning_count
        run_phases: Dict[str, Dict[str, float]] = {}
        span_fallback: Dict[str, List[float]] = {}
        run_info: Dict[str, Any] = {
            "file": str(path),
            "warnings": loaded.warning_count,
        }
        for record in events:
            kind = record["event"]
            event_counts[kind] = event_counts.get(kind, 0) + 1
            run_info.setdefault("run_id", record["run_id"])
            if kind == "run-start":
                manifest = record.get("manifest", {})
                run_info["command"] = record.get("command", "")
                run_info["git"] = manifest.get("git", "")
                run_info["policy"] = manifest.get("policy", "")
                run_info["solver_engine"] = manifest.get("solver_engine", "")
            elif kind == "run-end":
                run_phases = record.get("phases", {}) or {}
                metrics = record.get("metrics")
                if metrics:
                    metrics_by_run[record["run_id"]] = metrics
            elif kind == "span":
                entry = span_fallback.setdefault(record.get("name", "?"), [0, 0.0])
                entry[0] += 1
                entry[1] += float(record.get("seconds", 0.0))
            elif kind == "reduce":
                deleted_clauses += int(record.get("deleted", 0))
            elif kind == "task-retry":
                retries += 1
            elif kind == "task-finish":
                status = str(record.get("status", ""))
                if record.get("cached"):
                    cached_tasks += 1
                elif record.get("resumed"):
                    resumed_tasks += 1
                else:
                    task_wall.append(float(record.get("wall_seconds", 0.0)))
                if status in ("TIMEOUT", "ERROR", "MEMOUT"):
                    failures[status] = failures.get(status, 0) + 1
                policy = str(record.get("policy", ""))
                if policy:
                    agg = by_policy.setdefault(policy, {
                        "tasks": 0, "decided": 0, "failed": 0,
                        "propagations": 0, "conflicts": 0, "wall_seconds": 0.0,
                    })
                    agg["tasks"] += 1
                    agg["decided"] += 1 if status in ("SATISFIABLE", "UNSATISFIABLE") else 0
                    agg["failed"] += 1 if status in ("TIMEOUT", "ERROR", "MEMOUT") else 0
                    agg["propagations"] += int(record.get("propagations", 0))
                    agg["conflicts"] += int(record.get("conflicts", 0))
                    agg["wall_seconds"] += float(record.get("wall_seconds", 0.0))
            elif kind == "serve-request":
                if record.get("admitted"):
                    serve_admitted += 1
                else:
                    serve_rejected += 1
                    reason = str(record.get("reason", "") or "unknown")
                    reject_reasons[reason] = (
                        reject_reasons.get(reason, 0) + 1
                    )
            elif kind == "serve-batch":
                serve_batches.append(int(record.get("size", 0)))
                trigger = str(record.get("trigger", "?"))
                serve_triggers[trigger] = serve_triggers.get(trigger, 0) + 1
                serve_inference_seconds += float(
                    record.get("inference_seconds", 0.0)
                )
            elif kind == "serve-response":
                status = str(record.get("status", ""))
                serve_statuses[status] = serve_statuses.get(status, 0) + 1
                if "queue_wait_seconds" in record:
                    serve_waits.append(float(record["queue_wait_seconds"]))
                if "wall_seconds" in record:
                    serve_walls.append(float(record["wall_seconds"]))
                if record.get("degraded"):
                    serve_degraded += 1
                if record.get("deadline_missed"):
                    serve_deadline_missed += 1
            elif kind == "breaker-transition":
                edge = (
                    f"{record.get('from_state', '?')}->"
                    f"{record.get('to_state', '?')}"
                )
                breaker_transitions[edge] = (
                    breaker_transitions.get(edge, 0) + 1
                )
            elif kind == "journal-error":
                journal_errors += 1
            elif kind == "chaos-fault":
                point = (
                    f"{record.get('point', '?')}/{record.get('kind', '?')}"
                )
                chaos_faults[point] = chaos_faults.get(point, 0) + 1
            elif kind == "chaos-end":
                chaos_runs.append({
                    "scenario": record.get("scenario", "?"),
                    "ok": bool(record.get("ok")),
                    "fingerprint": str(record.get("fingerprint", ""))[:16],
                    "requests": int(record.get("requests", 0)),
                })
            elif kind == "solve-end":
                solves.append({
                    "status": record.get("status", ""),
                    "policy": record.get("policy", ""),
                    "wall_seconds": float(record.get("wall_seconds", 0.0)),
                    "stats": record.get("stats", {}),
                })
        if not run_phases and span_fallback:
            run_phases = {
                name: {"count": count, "seconds": total}
                for name, (count, total) in span_fallback.items()
            }
        for name, entry in run_phases.items():
            merged = phases.setdefault(name, {"count": 0, "seconds": 0.0})
            merged["count"] += int(entry.get("count", 0))
            merged["seconds"] += float(entry.get("seconds", 0.0))
        runs.append(run_info)

    task_wall.sort()
    latency = {}
    if task_wall:
        latency = {
            "tasks": len(task_wall),
            "total_seconds": round(sum(task_wall), 6),
            "p50": round(_percentile(task_wall, 0.50), 6),
            "p90": round(_percentile(task_wall, 0.90), 6),
            "p99": round(_percentile(task_wall, 0.99), 6),
            "max": round(task_wall[-1], 6),
        }
    service: Dict[str, Any] = {}
    if serve_batches or serve_admitted or serve_rejected:
        sizes: Dict[int, int] = {}
        for size in serve_batches:
            sizes[size] = sizes.get(size, 0) + 1
        serve_waits.sort()
        serve_walls.sort()
        service = {
            "admitted": serve_admitted,
            "rejected": serve_rejected,
            "responses": sum(serve_statuses.values()),
            "statuses": dict(sorted(serve_statuses.items())),
            "inference_passes": len(serve_batches),
            "batched_requests": sum(serve_batches),
            "batch_sizes": dict(sorted(sizes.items())),
            "max_batch": max(serve_batches) if serve_batches else 0,
            "triggers": dict(sorted(serve_triggers.items())),
            "inference_seconds": round(serve_inference_seconds, 6),
        }
        if serve_waits:
            service["queue_wait"] = {
                "p50": round(_percentile(serve_waits, 0.50), 6),
                "p90": round(_percentile(serve_waits, 0.90), 6),
                "p99": round(_percentile(serve_waits, 0.99), 6),
                "max": round(serve_waits[-1], 6),
            }
        if serve_walls:
            service["request_wall"] = {
                "p50": round(_percentile(serve_walls, 0.50), 6),
                "p90": round(_percentile(serve_walls, 0.90), 6),
                "p99": round(_percentile(serve_walls, 0.99), 6),
                "max": round(serve_walls[-1], 6),
            }
    resilience: Dict[str, Any] = {}
    if (
        serve_degraded or serve_deadline_missed or reject_reasons
        or breaker_transitions or journal_errors or chaos_faults
        or chaos_runs
    ):
        resilience = {
            "degraded_responses": serve_degraded,
            "deadline_missed": serve_deadline_missed,
            "reject_reasons": dict(sorted(reject_reasons.items())),
            "breaker_transitions": dict(sorted(breaker_transitions.items())),
            "journal_errors": journal_errors,
            "chaos_faults": dict(sorted(chaos_faults.items())),
            "chaos_runs": chaos_runs,
        }
    return {
        "files": [str(p) for p in paths],
        "runs": runs,
        "errors": errors,
        "trace_warnings": trace_warnings,
        "event_counts": dict(sorted(event_counts.items())),
        "phases": phases,
        "deleted_clauses": deleted_clauses,
        "latency": latency,
        "cached_tasks": cached_tasks,
        "resumed_tasks": resumed_tasks,
        "retries": retries,
        "failures": failures,
        "by_policy": by_policy,
        "metrics_by_run": metrics_by_run,
        "solves": solves,
        "service": service,
        "resilience": resilience,
    }


def _render_histogram(name: str, snapshot: Dict[str, Any]) -> List[str]:
    """Render one histogram snapshot as indented text lines."""
    count = snapshot.get("count", 0)
    lines = [
        f"  {name}: n={count} mean={snapshot.get('mean', 0.0):.4g} "
        f"min={snapshot.get('min', 0.0):.4g} max={snapshot.get('max', 0.0):.4g}"
    ]
    if not count:
        return lines
    bounds = snapshot.get("bounds", [])
    counts = snapshot.get("counts", [])
    peak = max(counts) or 1
    for i, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        label = f"<= {bounds[i]:g}" if i < len(bounds) else f"> {bounds[-1]:g}"
        bar = "#" * max(1, round(20 * bucket_count / peak))
        lines.append(f"    {label:>12s} {bucket_count:8d} {bar}")
    return lines


def render_report(summary: Dict[str, Any]) -> str:
    """Format a :func:`summarize_traces` summary as a text report."""
    out: List[str] = []
    out.append(f"trace report over {len(summary['files'])} file(s)")
    for run in summary["runs"]:
        bits = [run.get("run_id", "?")]
        if run.get("command"):
            bits.append(f"command={run['command']}")
        if run.get("git"):
            bits.append(f"git={run['git']}")
        if run.get("solver_engine"):
            bits.append(f"engine={run['solver_engine']}")
        out.append(f"  run {'  '.join(bits)}")

    if summary["errors"]:
        out.append("")
        out.append(f"schema errors ({len(summary['errors'])}):")
        out.extend(f"  {err}" for err in summary["errors"])
    if summary.get("trace_warnings"):
        out.append("")
        out.append(
            f"tolerated trace warnings (torn/skipped lines): "
            f"{summary['trace_warnings']}"
        )

    out.append("")
    out.append("event counts:")
    for name, count in summary["event_counts"].items():
        out.append(f"  {name:16s} {count}")
    if summary["deleted_clauses"]:
        out.append(f"  clauses deleted across reductions: "
                   f"{summary['deleted_clauses']}")

    phases = summary["phases"]
    if phases:
        out.append("")
        out.append("per-phase time breakdown:")
        total = sum(entry["seconds"] for entry in phases.values()) or 1.0
        ordered = sorted(
            phases.items(), key=lambda kv: kv[1]["seconds"], reverse=True
        )
        for name, entry in ordered:
            out.append(
                f"  {name:20s} {entry['seconds']:10.4f}s "
                f"x{int(entry['count']):<6d} {100 * entry['seconds'] / total:5.1f}%"
            )

    if summary["latency"]:
        lat = summary["latency"]
        out.append("")
        out.append(
            f"task latency ({lat['tasks']} executed, "
            f"{summary['cached_tasks']} cached, "
            f"{summary['resumed_tasks']} resumed):"
        )
        out.append(
            f"  p50={lat['p50']:.4f}s p90={lat['p90']:.4f}s "
            f"p99={lat['p99']:.4f}s max={lat['max']:.4f}s "
            f"total={lat['total_seconds']:.2f}s"
        )

    if summary["failures"] or summary["retries"]:
        out.append("")
        out.append("failure taxonomy:")
        for status, count in sorted(summary["failures"].items()):
            out.append(f"  {status:10s} {count}")
        if summary["retries"]:
            out.append(f"  retried attempts: {summary['retries']}")

    by_policy = summary["by_policy"]
    if by_policy:
        out.append("")
        out.append("policy comparison:")
        for policy, agg in sorted(by_policy.items()):
            tasks = int(agg["tasks"]) or 1
            out.append(
                f"  {policy:12s} tasks={int(agg['tasks']):<5d} "
                f"decided={int(agg['decided']):<5d} "
                f"failed={int(agg['failed']):<4d} "
                f"props={int(agg['propagations']):<12d} "
                f"mean wall={agg['wall_seconds'] / tasks:.4f}s"
            )
        if len(by_policy) == 2:
            (name_a, a), (name_b, b) = sorted(by_policy.items())
            if a["propagations"]:
                delta = 1.0 - b["propagations"] / a["propagations"]
                out.append(
                    f"  {name_b} vs {name_a}: {100 * delta:+.2f}% propagations"
                )

    service = summary.get("service") or {}
    if service:
        out.append("")
        out.append("service summary:")
        out.append(
            f"  admitted={service['admitted']} "
            f"rejected={service['rejected']} "
            f"responses={service['responses']}"
        )
        passes = service["inference_passes"]
        batched = service["batched_requests"]
        out.append(
            f"  inference: {passes} forward pass(es) over {batched} "
            f"request(s) "
            f"({service['inference_seconds']:.4f}s model time)"
        )
        if service["batch_sizes"]:
            out.append("  batch-size histogram:")
            peak = max(service["batch_sizes"].values()) or 1
            for size, count in service["batch_sizes"].items():
                bar = "#" * max(1, round(20 * count / peak))
                out.append(f"    size {size:>4d} {count:8d} {bar}")
        if service["triggers"]:
            out.append("  flush triggers: " + "  ".join(
                f"{name}={count}"
                for name, count in service["triggers"].items()
            ))
        if service.get("queue_wait"):
            wait = service["queue_wait"]
            out.append(
                f"  queue wait: p50={wait['p50']:.4f}s "
                f"p90={wait['p90']:.4f}s p99={wait['p99']:.4f}s "
                f"max={wait['max']:.4f}s"
            )
        if service.get("request_wall"):
            wall = service["request_wall"]
            out.append(
                f"  request wall: p50={wall['p50']:.4f}s "
                f"p90={wall['p90']:.4f}s p99={wall['p99']:.4f}s "
                f"max={wall['max']:.4f}s"
            )
        if service["statuses"]:
            out.append("  responses by status: " + "  ".join(
                f"{name}={count}"
                for name, count in service["statuses"].items()
            ))

    resilience = summary.get("resilience") or {}
    if resilience:
        out.append("")
        out.append("resilience summary:")
        out.append(
            f"  degraded responses={resilience['degraded_responses']} "
            f"deadline misses={resilience['deadline_missed']} "
            f"tolerated journal errors={resilience['journal_errors']}"
        )
        if resilience["reject_reasons"]:
            out.append("  rejections by reason: " + "  ".join(
                f"{name}={count}"
                for name, count in resilience["reject_reasons"].items()
            ))
        if resilience["breaker_transitions"]:
            out.append("  breaker transitions: " + "  ".join(
                f"{edge}={count}"
                for edge, count in resilience["breaker_transitions"].items()
            ))
        if resilience["chaos_faults"]:
            out.append("  injected faults: " + "  ".join(
                f"{point}={count}"
                for point, count in resilience["chaos_faults"].items()
            ))
        for run in resilience["chaos_runs"]:
            verdict = "OK" if run["ok"] else "FAILED"
            out.append(
                f"  chaos {run['scenario']}: {verdict} "
                f"({run['requests']} requests, "
                f"fingerprint {run['fingerprint']})"
            )

    for solve in summary["solves"]:
        out.append("")
        out.append(
            f"solve: {solve['status']} policy={solve['policy']} "
            f"wall={solve['wall_seconds']:.4f}s"
        )
        stats = solve.get("stats", {})
        if stats:
            keys = ("conflicts", "propagations", "restarts", "reductions",
                    "deleted_clauses", "learned_clauses")
            out.append("  " + "  ".join(
                f"{k}={stats[k]}" for k in keys if k in stats
            ))

    for run_id, metrics in summary["metrics_by_run"].items():
        histograms = metrics.get("histograms", {})
        counters = metrics.get("counters", {})
        if not histograms and not counters:
            continue
        out.append("")
        out.append(f"metrics ({run_id}):")
        for name, value in counters.items():
            out.append(f"  {name}: {value}")
        for name, snapshot in histograms.items():
            out.extend(_render_histogram(name, snapshot))

    return "\n".join(out) + "\n"


def validate_traces(paths: Sequence[Union[str, Path]]) -> List[str]:
    """Schema-check trace files; returns all errors (empty = valid)."""
    errors: List[str] = []
    for path in paths:
        _, file_errors = read_trace(path)
        errors.extend(f"{path}: {err}" for err in file_errors)
    return errors
