"""Tests for the observability layer (repro.obs).

Covers the metrics registry, the buffered JSONL trace sink and its
torn-final-line-tolerant reader, the observer façade, run manifests,
the trace report, the instrumented solver/trainer paths, the CLI
``--trace`` flags, and the disabled-path overhead guard.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.cnf.generators import random_ksat
from repro.obs import (
    BATCH_BUCKETS,
    EVENT_TYPES,
    NULL_OBSERVER,
    Histogram,
    MetricsRegistry,
    Observer,
    RunManifest,
    TraceSink,
    collect_manifest,
    new_run_id,
    read_trace,
    render_prometheus,
    render_report,
    start_run,
    summarize_traces,
    validate_event,
    validate_traces,
)
from repro.solver import Solver, Status


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("runner.done").inc()
        registry.counter("runner.done").inc(3)
        registry.gauge("depth").set(7.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["runner.done"] == 4
        assert snapshot["gauges"]["depth"] == 7.5

    def test_histogram_buckets_and_summary(self):
        h = Histogram("t", bounds=[1, 10, 100])
        for value in (0.5, 1, 5, 50, 500):
            h.observe(value)
        # counts[i] holds observations <= bounds[i]; last slot overflows.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 500
        assert h.mean() == pytest.approx(556.5 / 5)

    def test_histogram_quantile_is_bucket_resolution(self):
        h = Histogram("t", bounds=[1, 10, 100])
        for value in (0.2, 0.4, 5, 5, 5, 5, 5, 5, 5, 250):
            h.observe(value)
        assert h.quantile(0.5) == 10  # the bucket bound, not the raw value
        assert h.quantile(1.0) == 250  # overflow reports the recorded max
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=[])
        with pytest.raises(ValueError):
            Histogram("t", bounds=[1, 1, 2])
        with pytest.raises(ValueError):
            Histogram("t", bounds=[2, 1])

    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        first = registry.histogram("h", bounds=[1, 2])
        # Later callers inherit the original bucket layout.
        assert registry.histogram("h", bounds=[5, 6]) is first
        assert first.bounds == (1.0, 2.0)

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x").inc(100)
        registry.gauge("g").set(1.0)
        registry.histogram("h", BATCH_BUCKETS).observe(3)
        assert registry.snapshot() == {}
        # Null instruments are shared singletons.
        assert registry.counter("a") is registry.counter("b")


# ---------------------------------------------------------------------------
# trace sink + reader


class TestTraceSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(path) as sink:
            sink.emit("run-start", {"command": "test"})
            sink.emit("restart", {"conflicts": 10})
            sink.emit("run-end", {})
        events, errors = read_trace(path)
        assert errors == []
        assert [e["event"] for e in events] == ["run-start", "restart", "run-end"]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert all(e["run_id"] == sink.run_id for e in events)
        # Monotonic timestamps relative to run start.
        assert events[0]["ts"] <= events[1]["ts"] <= events[2]["ts"]

    def test_buffering_defers_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TraceSink(path, buffer_lines=64)
        sink.emit("restart", {})
        assert not path.exists() or path.read_text() == ""
        sink.flush()
        assert len(path.read_text().splitlines()) == 1
        sink.close()

    def test_buffer_flushes_at_capacity(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TraceSink(path, buffer_lines=4)
        for _ in range(4):
            sink.emit("restart", {})
        assert len(path.read_text().splitlines()) == 4
        sink.close()

    def test_emit_after_close_is_dropped(self, tmp_path):
        sink = TraceSink(tmp_path / "t.jsonl")
        sink.emit("restart", {})
        sink.close()
        sink.emit("restart", {})
        sink.close()  # idempotent
        events, _ = read_trace(sink.path)
        assert len(events) == 1

    def test_exotic_values_serialize_via_str(self, tmp_path):
        sink = TraceSink(tmp_path / "t.jsonl")
        sink.emit("solve-end", {"status": Status.SATISFIABLE})
        sink.close()
        events, errors = read_trace(sink.path)
        assert errors == []
        assert "SATISFIABLE" in str(events[0]["status"])

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(path) as sink:
            sink.emit("run-start", {})
            sink.emit("restart", {})
        with path.open("a") as handle:
            handle.write('{"event": "run-end", "ts": 0.5, "ru')  # killed writer
        events, errors = read_trace(path)
        assert errors == []
        assert len(events) == 2

    def test_torn_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('not json\n{"event":"restart","ts":0.1,"run_id":"r-0","seq":0}\n')
        events, errors = read_trace(path)
        assert len(events) == 1
        assert errors and "line 1" in errors[0]
        with pytest.raises(ValueError):
            read_trace(path, strict=True)

    def test_new_run_id_shape(self):
        run_id = new_run_id()
        assert run_id.startswith("r-") and len(run_id) == 14
        assert run_id != new_run_id()


class TestValidateEvent:
    def test_valid(self):
        assert validate_event(
            {"event": "restart", "ts": 0.1, "run_id": "r-0", "seq": 3}
        ) is None

    @pytest.mark.parametrize("record,fragment", [
        ([1, 2], "not a JSON object"),
        ({"ts": 0.1, "run_id": "r", "seq": 0}, "missing required field"),
        ({"event": "restart", "ts": "x", "run_id": "r", "seq": 0}, "wrong type"),
        ({"event": "restart", "ts": 0.1, "run_id": "r", "seq": True}, "wrong type"),
        ({"event": "nope", "ts": 0.1, "run_id": "r", "seq": 0}, "unknown event"),
        ({"event": "restart", "ts": -1, "run_id": "r", "seq": 0}, "negative timestamp"),
        ({"event": "restart", "ts": 0.1, "run_id": "r", "seq": -2}, "negative sequence"),
    ])
    def test_invalid(self, record, fragment):
        assert fragment in validate_event(record)

    def test_every_declared_event_type_validates(self):
        for event in EVENT_TYPES:
            record = {"event": event, "ts": 0.0, "run_id": "r-0", "seq": 0}
            assert validate_event(record) is None


# ---------------------------------------------------------------------------
# observer


class TestObserver:
    def test_null_observer_is_fully_inert(self, tmp_path):
        assert not NULL_OBSERVER.enabled
        assert not NULL_OBSERVER.tracing
        NULL_OBSERVER.event("restart", conflicts=1)
        with NULL_OBSERVER.span("anything"):
            pass
        NULL_OBSERVER.counter("x").inc()
        NULL_OBSERVER.finish(exit_code=0)
        assert NULL_OBSERVER.span_summary() == {}
        assert list(tmp_path.iterdir()) == []

    def test_span_aggregation_and_histogram(self, tmp_path):
        observer = Observer(
            sink=TraceSink(tmp_path / "t.jsonl"), registry=MetricsRegistry()
        )
        for _ in range(3):
            with observer.span("reduce"):
                pass
        summary = observer.span_summary()
        assert summary["reduce"]["count"] == 3
        assert summary["reduce"]["seconds"] >= 0.0
        assert observer.registry.histogram("span.reduce.seconds").count == 3
        observer.close()

    def test_span_emit_writes_span_event(self, tmp_path):
        observer = Observer(sink=TraceSink(tmp_path / "t.jsonl"))
        with observer.span("suite", emit=True, policy="default"):
            pass
        with observer.span("inner"):  # aggregate-only
            pass
        observer.close()
        events, _ = read_trace(observer.sink.path)
        spans = [e for e in events if e["event"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "suite" and spans[0]["policy"] == "default"

    def test_finish_embeds_phases_and_metrics(self, tmp_path):
        observer = Observer(
            sink=TraceSink(tmp_path / "t.jsonl"), registry=MetricsRegistry()
        )
        observer.counter("runner.done").inc(2)
        with observer.span("solve"):
            pass
        observer.finish(exit_code=10)
        events, errors = read_trace(observer.sink.path)
        assert errors == []
        end = events[-1]
        assert end["event"] == "run-end"
        assert end["exit_code"] == 10
        assert end["phases"]["solve"]["count"] == 1
        assert end["metrics"]["counters"]["runner.done"] == 2

    def test_metrics_only_observer_times_spans_without_sink(self):
        observer = Observer(registry=MetricsRegistry())
        assert observer.enabled and not observer.tracing
        with observer.span("solve"):
            pass
        assert observer.registry.histogram("span.solve.seconds").count == 1


# ---------------------------------------------------------------------------
# manifest + start_run


class TestManifest:
    def test_collect_and_write(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        manifest = collect_manifest(
            "r-abc", "solve", argv=["solve", "x.cnf"],
            config={"policy": "default"}, seeds={"instance": 3},
            policy="default",
        )
        assert manifest.python and manifest.platform and manifest.cpu_count > 0
        assert manifest.env["REPRO_TRACE_DIR"] == str(tmp_path)
        path = tmp_path / "m.json"
        manifest.write(path)
        loaded = json.loads(path.read_text())
        assert loaded["run_id"] == "r-abc"
        assert loaded["seeds"] == {"instance": 3}
        assert loaded == RunManifest(**loaded).to_dict()

    def test_manifest_records_solver_engine(self):
        from repro.solver import kernel

        manifest = collect_manifest("r-eng", "solve").to_dict()
        engine, reason = kernel.engine_info()
        assert manifest["solver_engine"] == engine in ("c", "python")
        assert manifest["solver_engine_reason"] == reason
        assert (engine == "c") == (reason == "")

    def test_start_run_without_dir_returns_null(self):
        assert start_run(None, "solve") is NULL_OBSERVER

    def test_start_run_creates_trace_and_manifest(self, tmp_path):
        observer = start_run(
            tmp_path, "solve", argv=["solve"], policy="frequency"
        )
        observer.finish(exit_code=0)
        traces = list(tmp_path.glob("solve-*.jsonl"))
        manifests = list(tmp_path.glob("solve-*.manifest.json"))
        assert len(traces) == 1 and len(manifests) == 1
        events, errors = read_trace(traces[0])
        assert errors == []
        assert events[0]["event"] == "run-start"
        assert events[0]["manifest"]["policy"] == "frequency"
        assert events[0]["manifest"]["run_id"] == observer.run_id

    def test_start_run_metrics_flag(self, tmp_path):
        observer = start_run(tmp_path, "solve", metrics=False)
        assert observer.tracing and not observer.registry.enabled
        observer.finish(exit_code=0)


# ---------------------------------------------------------------------------
# instrumented components


def _traced_solve(tmp_path, cnf, **solve_kwargs):
    observer = start_run(tmp_path, "solve", policy="default")
    result = Solver(cnf, observer=observer).solve(**solve_kwargs)
    observer.finish(exit_code=0)
    events, errors = read_trace(observer.sink.path)
    assert errors == []
    return result, events


class TestInstrumentedSolve:
    def test_traced_solve_event_stream(self, tmp_path):
        cnf = random_ksat(60, 250, seed=3)
        result, events = _traced_solve(tmp_path, cnf)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        assert "solve-start" in kinds and "solve-end" in kinds
        end = next(e for e in events if e["event"] == "solve-end")
        assert end["status"] == result.status.name
        assert end["stats"]["conflicts"] == result.stats.conflicts
        if result.stats.restarts:
            assert kinds.count("restart") == result.stats.restarts

    def test_traced_solve_matches_untraced_stats(self, tmp_path):
        cnf = random_ksat(50, 205, seed=11)
        plain = Solver(cnf).solve()
        traced, _ = _traced_solve(tmp_path, cnf)
        assert traced.status is plain.status
        assert traced.stats.conflicts == plain.stats.conflicts
        assert traced.stats.propagations == plain.stats.propagations
        assert traced.stats.bcp_rounds == plain.stats.bcp_rounds

    def test_glue_and_batch_histograms_populated(self, tmp_path):
        observer = start_run(tmp_path, "solve")
        result = Solver(random_ksat(60, 250, seed=3), observer=observer).solve()
        registry = observer.registry
        assert registry.histogram("bcp.batch_size").count == result.stats.bcp_rounds
        assert registry.histogram("solver.learned_glue").count > 0
        observer.finish(exit_code=0)

    def test_reduce_event_on_long_run(self, tmp_path):
        cnf = random_ksat(120, 504, seed=9)
        result, events = _traced_solve(tmp_path, cnf, max_conflicts=5000)
        if result.stats.reductions:
            reduces = [e for e in events if e["event"] == "reduce"]
            assert len(reduces) == result.stats.reductions
            assert all("deleted" in e and "candidates" in e for e in reduces)


class TestInstrumentedTrainer:
    def test_epoch_events(self, tmp_path, simple_sat_cnf, simple_unsat_cnf):
        from repro.models.baselines import FeatureLogisticRegression
        from repro.selection.trainer import Trainer
        from tests.conftest import make_labeled

        observer = start_run(tmp_path, "train")
        instances = [
            make_labeled(simple_sat_cnf, 1),
            make_labeled(simple_unsat_cnf, 0),
        ]
        trainer = Trainer(
            FeatureLogisticRegression(seed=0), epochs=3, observer=observer
        )
        trainer.fit(instances)
        observer.finish(exit_code=0)
        events, errors = read_trace(observer.sink.path)
        assert errors == []
        epochs = [e for e in events if e["event"] == "epoch-end"]
        assert len(epochs) == 3
        assert all(
            "loss" in e and "accuracy" in e and "grad_norm" in e for e in epochs
        )
        assert any(e["event"] == "train-start" for e in events)
        assert any(e["event"] == "train-end" for e in events)


# ---------------------------------------------------------------------------
# report


class TestReport:
    def _make_traces(self, tmp_path):
        cnf = random_ksat(60, 250, seed=3)
        observer = start_run(tmp_path, "solve", policy="default")
        Solver(cnf, observer=observer).solve()
        observer.finish(exit_code=10)
        return sorted(tmp_path.glob("*.jsonl"))

    def test_summarize_and_render(self, tmp_path):
        paths = self._make_traces(tmp_path)
        summary = summarize_traces(paths)
        assert len(summary["files"]) == 1
        assert summary["errors"] == []
        assert summary["event_counts"]["solve-start"] == 1
        assert "solve" in summary["phases"]
        text = render_report(summary)
        assert "trace report" in text
        assert "per-phase time breakdown" in text
        assert "solve" in text

    def test_validate_traces_flags_bad_lines(self, tmp_path):
        paths = self._make_traces(tmp_path)
        assert validate_traces(paths) == []
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"event":"bogus","ts":0.1,"run_id":"r-0","seq":0}\n'
            '{"event":"restart","ts":0.2,"run_id":"r-0","seq":1}\n'
        )
        errors = validate_traces(paths + [bad])
        assert len(errors) == 1 and "bogus" in errors[0]

    def test_summary_is_json_serializable(self, tmp_path):
        summary = summarize_traces(self._make_traces(tmp_path))
        json.dumps(summary, default=str)


# ---------------------------------------------------------------------------
# CLI


class TestCliTracing:
    def _write_cnf(self, tmp_path):
        from repro.cnf import write_dimacs_file

        path = tmp_path / "f.cnf"
        write_dimacs_file(random_ksat(40, 165, seed=7), path)
        return path

    def test_solve_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        cnf = self._write_cnf(tmp_path)
        trace_dir = tmp_path / "traces"
        code = main(["solve", "--trace", str(trace_dir), str(cnf)])
        assert code in (10, 20)
        out = capsys.readouterr().out
        assert "c trace " in out
        traces = list(trace_dir.glob("solve-*.jsonl"))
        assert len(traces) == 1
        events, errors = read_trace(traces[0])
        assert errors == []
        assert events[-1]["event"] == "run-end"
        assert events[-1]["exit_code"] == code

    def test_trace_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        cnf = self._write_cnf(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "env-traces"))
        main(["solve", str(cnf)])
        assert list((tmp_path / "env-traces").glob("solve-*.jsonl"))

    def test_no_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main

        cnf = self._write_cnf(tmp_path)
        main(["solve", "--trace", str(tmp_path / "t"), "--no-metrics", str(cnf)])
        trace = next((tmp_path / "t").glob("solve-*.jsonl"))
        events, _ = read_trace(trace)
        assert next(e for e in events if e["event"] == "run-end")["metrics"] == {}

    def test_untraced_solve_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cnf = self._write_cnf(tmp_path)
        before = set(tmp_path.iterdir())
        main(["solve", str(cnf)])
        assert "c trace" not in capsys.readouterr().out
        assert set(tmp_path.iterdir()) == before

    def test_report_renders_traces(self, tmp_path, capsys):
        from repro.cli import main

        cnf = self._write_cnf(tmp_path)
        trace_dir = tmp_path / "traces"
        main(["solve", "--trace", str(trace_dir), str(cnf)])
        capsys.readouterr()
        trace = str(next(trace_dir.glob("*.jsonl")))
        assert main(["report", "--validate", trace]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out and "solve" in out

    def test_report_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        cnf = self._write_cnf(tmp_path)
        trace_dir = tmp_path / "traces"
        main(["solve", "--trace", str(trace_dir), str(cnf)])
        capsys.readouterr()
        main(["report", "--json", str(next(trace_dir.glob("*.jsonl")))])
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["files"]) == 1

    def test_report_validate_fails_on_bad_trace(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event":"bogus","ts":0.1,"run_id":"r-0","seq":0}\n')
        assert main(["report", "--validate", str(bad)]) == 1

    def test_bench_subcommand_traced(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = tmp_path / "traces"
        code = main([
            "bench", "--instances", "2", "--max-propagations", "20000",
            "--trace", str(trace_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "solved" in out and "sweep:" in out
        trace = next(trace_dir.glob("bench-*.jsonl"))
        events, errors = read_trace(trace)
        assert errors == []
        kinds = [e["event"] for e in events]
        assert "suite-start" in kinds and "suite-end" in kinds
        assert kinds.count("task-finish") == 2


# ---------------------------------------------------------------------------
# overhead guard


#: Instrument mutators that must never run on a disabled hot path.  The
#: null observer's coarse no-op guards (``event`` with no sink, ``span``
#: returning the shared null span) are allowed — they fire per restart /
#: reduction, not per propagation — but any of these names firing means
#: real instrumentation leaked into the disabled path.
FORBIDDEN_OBS_CALLS = frozenset(
    {"observe", "inc", "set", "emit", "flush", "_record_span"}
)


def _profile_obs_calls(action):
    """Run ``action`` under a profiler; return obs-module frame names."""
    names = []

    def profiler(frame, event, arg):
        if event == "call" and "/obs/" in frame.f_code.co_filename:
            names.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return names


class TestDisabledOverhead:
    def test_disabled_solve_skips_all_instruments(self):
        """No metric/trace mutator may execute during an unobserved solve.

        The disabled path may make a handful of coarse no-op calls
        (one per restart/reduction), but the per-propagation and
        per-conflict instruments must be skipped entirely — that is
        what keeps disabled tracing at baseline cost.
        """
        cnf = random_ksat(60, 250, seed=2)
        solver = Solver(cnf)
        calls = _profile_obs_calls(solver.solve)
        assert not FORBIDDEN_OBS_CALLS.intersection(calls)
        # Coarse no-op guards scale with restarts/reductions, never
        # with propagations.
        stats = solver.stats
        ceiling = 8 + stats.restarts + 4 * stats.reductions
        assert len(calls) <= ceiling, calls


# ---------------------------------------------------------------------------
# Prometheus text exposition


class TestRenderPrometheus:
    def test_counters_gauges_and_cumulative_histogram(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("serve.requests").inc(5)
        registry.gauge("queue.depth").set(2.0)
        histogram = registry.histogram("serve.batch_size", (1.0, 4.0, 8.0))
        for value in (1, 3, 5, 100):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())

        assert "# TYPE serve_requests counter\nserve_requests 5" in text
        assert "# TYPE queue_depth gauge\nqueue_depth 2" in text
        # Snapshot counts are per-bucket; the exposition must be
        # cumulative and close with the +Inf bucket holding everything.
        assert 'serve_batch_size_bucket{le="1"} 1' in text
        assert 'serve_batch_size_bucket{le="4"} 2' in text
        assert 'serve_batch_size_bucket{le="8"} 3' in text
        assert 'serve_batch_size_bucket{le="+Inf"} 4' in text
        assert "serve_batch_size_count 4" in text
        assert "serve_batch_size_sum 109" in text
        assert text.endswith("\n")

    def test_extra_gauges_and_name_sanitization(self):
        text = render_prometheus(
            {},
            extra_gauges={
                "serve.breaker.state": "closed",  # non-numeric: skipped
                "serve.accepting": True,
                "1weird-name": 7,
            },
        )
        assert "# TYPE serve_accepting gauge\nserve_accepting 1" in text
        assert "_1weird_name 7" in text
        assert "closed" not in text

    def test_empty_snapshot_renders_empty_document(self):
        assert render_prometheus({}) == "\n"
