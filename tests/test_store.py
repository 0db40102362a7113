"""Tests for the queryable run store (``repro.store``).

Pins the three contracts the store ships with:

* **auto-registration** — every traced CLI run (solve, dataset, bench,
  fuzz) lands in the store with the right kind/status/commit, with no
  caller changes, and ``repro query runs --json`` round-trips them;
* **quarantine-and-continue** — corrupt, truncated, or
  schema-version-skewed inputs never abort a batch ingest; they are
  quarantined with a reason and every good input still lands;
* **trend gating** — ``repro trend`` reproduces the committed
  ``BENCH_bcp.json`` aggregate ratio, and a newer aggregate ratio more
  than 10% below it makes ``repro trend --check-regression`` exit
  nonzero.
"""

import copy
import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.cnf import CNF, write_dimacs_file
from repro.obs import read_trace, start_run
from repro.store import (
    IngestReport,
    RunStore,
    StoreError,
    StoreIngestError,
    format_rows,
    resolve_auto_store,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_BASELINE = REPO_ROOT / "BENCH_bcp.json"


@pytest.fixture(autouse=True)
def _clean_store_env(monkeypatch):
    """Tests control the store location explicitly."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    write_dimacs_file(CNF([[1, 2], [-2, 3], [-1, -3]]), path)
    return str(path)


def _write_trace(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _event(event, seq, run_id="r-abcdef123456", **fields):
    record = {"event": event, "ts": float(seq), "run_id": run_id,
              "seq": seq}
    record.update(fields)
    return json.dumps(record)


def _manifest(run_id="r-abcdef123456", command="solve", version=1):
    return {
        "run_id": run_id,
        "command": command,
        "git": "deadbeef",
        "policy": "default",
        "config": {"seed": 7},
        "created_unix": 1700000000.0,
        "trace_format_version": version,
    }


# ---------------------------------------------------------------------------
# Acceptance: traced CLI runs of every kind auto-ingest and round-trip


class TestAutoIngestEndToEnd:
    def test_four_kinds_round_trip_through_query(
        self, tmp_path, sat_file, capsys
    ):
        trace_dir = tmp_path / "traces"
        store_path = trace_dir / "runstore.sqlite"

        assert main(["solve", sat_file, "--trace", str(trace_dir)]) == 10
        assert main([
            "dataset", "--out", str(tmp_path / "ds.json"),
            "--per-year", "1", "--label-budget", "100",
            "--trace", str(trace_dir),
        ]) == 0
        assert main([
            "bench", "--instances", "1", "--max-propagations", "2000",
            "--trace", str(trace_dir),
        ]) == 0
        assert main([
            "fuzz", "--seeds", "2", "--budget", "500", "--mutants", "1",
            "--trace", str(trace_dir),
        ]) == 0
        capsys.readouterr()

        assert main([
            "query", "runs", "--store", str(store_path), "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["kind"] for row in rows} == {
            "solve", "dataset", "bench", "fuzz"
        }
        assert all(row["status"] == "ok" for row in rows)
        by_kind = {row["kind"]: row for row in rows}
        assert by_kind["solve"]["exit_code"] == 10  # SAT convention
        assert by_kind["fuzz"]["exit_code"] == 0
        # Every run of this process carries the same source commit.
        assert len({row["commit_ref"] for row in rows}) == 1
        assert all(row["events"] >= 2 for row in rows)  # start + end

        # Metrics and artifacts round-trip too.
        with RunStore(store_path) as store:
            solve_id = by_kind["solve"]["run_id"]
            names = {m["name"] for m in store.metrics(run_id=solve_id)}
            assert "events.run-start" in names
            assert store.trace_path(solve_id) is not None
            assert store.run(solve_id)["config"]["policy"] == "default"
            assert store.quarantined() == []

    def test_registration_precedes_ingest(self, tmp_path):
        trace_dir = tmp_path / "t"
        observer = start_run(str(trace_dir), "solve", argv=[], config={})
        store_path = resolve_auto_store(trace_dir)
        with RunStore(store_path) as store:
            (row,) = store.runs()
            assert row["status"] == "running"  # visible before finish
        observer.finish(exit_code=0)
        with RunStore(store_path) as store:
            (row,) = store.runs()
            assert row["status"] == "ok"
            assert row["exit_code"] == 0

    def test_failed_and_incomplete_statuses(self, tmp_path):
        trace_dir = tmp_path / "t"
        crashed = start_run(str(trace_dir), "solve", argv=[], config={})
        crashed.event("solve-start", variables=1, clauses=1)
        crashed.close()  # killed before finish(): no run-end, no ingest
        failed = start_run(str(trace_dir), "chaos", argv=[], config={})
        failed.finish(exit_code=1)

        store_path = resolve_auto_store(trace_dir)
        with RunStore(store_path) as store:
            store.ingest_trace(crashed.sink.path)
            by_kind = {row["kind"]: row for row in store.runs()}
        assert by_kind["solve"]["status"] == "incomplete"
        assert by_kind["chaos"]["status"] == "failed"
        assert by_kind["chaos"]["exit_code"] == 1

    def test_repro_store_env_overrides_and_disables(
        self, tmp_path, monkeypatch
    ):
        elsewhere = tmp_path / "central.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(elsewhere))
        start_run(str(tmp_path / "t"), "solve").finish(exit_code=0)
        with RunStore(elsewhere) as store:
            assert len(store.runs()) == 1

        monkeypatch.setenv("REPRO_STORE", "off")
        assert resolve_auto_store(tmp_path / "t2") is None
        observer = start_run(str(tmp_path / "t2"), "solve")
        assert observer.store_path is None
        observer.finish(exit_code=0)
        assert not (tmp_path / "t2" / "runstore.sqlite").exists()

    def test_reingest_is_idempotent(self, tmp_path):
        trace_dir = tmp_path / "t"
        observer = start_run(str(trace_dir), "solve")
        observer.finish(exit_code=0)
        store_path = resolve_auto_store(trace_dir)
        with RunStore(store_path) as store:
            before = store.counts()
            assert store.ingest_trace(observer.sink.path) == "updated"
            assert store.counts() == before  # replaced, not duplicated


# ---------------------------------------------------------------------------
# Satellite: collision-safe filenames + structured read_trace warnings


class TestFilenamesAndWarnings:
    def test_manifest_filenames_embed_run_id_and_pid(self, tmp_path):
        a = start_run(str(tmp_path), "solve")
        b = start_run(str(tmp_path), "solve")
        assert a.sink.path != b.sink.path
        for observer in (a, b):
            assert f"-p{os.getpid()}." in observer.sink.path.name
            assert observer.run_id in observer.sink.path.name
            assert observer.manifest_path.exists()
            observer.finish(exit_code=0)

    def test_read_trace_unpacks_as_pair_and_carries_warnings(
        self, tmp_path
    ):
        trace = _write_trace(tmp_path / "torn.jsonl", [
            _event("run-start", 0, manifest=_manifest(), format_version=1),
            "",
            _event("run-end", 1, exit_code=0),
            '{"event": "solve-end", "ts": 2.0, "run',  # torn final line
        ])
        events, errors = read_trace(trace)  # historical 2-tuple unpack
        assert len(events) == 2
        assert errors == []
        loaded = read_trace(trace)
        assert loaded.events == events
        assert loaded.warning_count == 2
        assert [w["reason"] for w in loaded.warnings] == [
            "blank-line", "torn-final-line"
        ]
        assert all(
            isinstance(w["line"], int) and w["detail"]
            for w in loaded.warnings
        )

    def test_interior_garbage_is_an_error_not_a_warning(self, tmp_path):
        trace = _write_trace(tmp_path / "bad.jsonl", [
            _event("run-start", 0, manifest=_manifest()),
            "not json at all",
            _event("run-end", 1, exit_code=0),
        ])
        loaded = read_trace(trace)
        assert loaded.warning_count == 0
        assert len(loaded.errors) == 1
        with pytest.raises(ValueError):
            read_trace(trace, strict=True)

    def test_report_surfaces_tolerated_warnings(self, tmp_path, capsys):
        from repro.obs import render_report, summarize_traces

        trace = _write_trace(tmp_path / "torn.jsonl", [
            _event("run-start", 0, manifest=_manifest(), format_version=1),
            _event("run-end", 1, exit_code=0),
            '{"torn": ',
        ])
        summary = summarize_traces([trace])
        assert summary["trace_warnings"] == 1
        assert "tolerated trace warnings" in render_report(summary)

    def test_store_counts_warnings_per_run(self, tmp_path):
        trace = _write_trace(tmp_path / "torn.jsonl", [
            _event("run-start", 0, manifest=_manifest(), format_version=1),
            _event("run-end", 1, exit_code=0),
            '{"torn": ',
        ])
        with RunStore(tmp_path / "s.sqlite") as store:
            store.ingest_trace(trace)
            (row,) = store.runs()
            assert row["warnings"] == 1


# ---------------------------------------------------------------------------
# Satellite: quarantine-and-continue ingest of damaged inputs


class TestQuarantine:
    def _good_trace(self, tmp_path, run_id="r-feedfacecafe"):
        return _write_trace(tmp_path / f"{run_id}.jsonl", [
            _event("run-start", 0, run_id=run_id,
                   manifest=_manifest(run_id=run_id), format_version=1),
            _event("run-end", 1, run_id=run_id, exit_code=0),
        ])

    def test_corrupt_trace_quarantined(self, tmp_path):
        corrupt = _write_trace(tmp_path / "corrupt.jsonl", [
            "\x00\x01garbage", "{{{{", "more garbage",
        ])
        with RunStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreIngestError) as excinfo:
                store.ingest_trace(corrupt)
            assert excinfo.value.reason == "empty-trace"

    def test_schema_version_skew_quarantined(self, tmp_path):
        skewed = _write_trace(tmp_path / "future.jsonl", [
            _event("run-start", 0, manifest=_manifest(version=99),
                   format_version=99),
            _event("run-end", 1, exit_code=0),
        ])
        with RunStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreIngestError) as excinfo:
                store.ingest_trace(skewed)
            assert excinfo.value.reason == "schema-version-skew"

    def test_missing_manifest_quarantined(self, tmp_path):
        orphan = _write_trace(tmp_path / "orphan.jsonl", [
            _event("solve-start", 0, variables=1, clauses=1),
            _event("solve-end", 1),
        ])
        with RunStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreIngestError) as excinfo:
                store.ingest_trace(orphan)
            assert excinfo.value.reason == "missing-manifest"

    def test_batch_never_aborts(self, tmp_path):
        good = self._good_trace(tmp_path)
        corrupt = _write_trace(tmp_path / "corrupt.jsonl", ["{{{{", "::"])
        skewed = _write_trace(tmp_path / "future.jsonl", [
            _event("run-start", 0, manifest=_manifest(version=99),
                   format_version=99),
        ])
        truncated = _write_trace(tmp_path / "torn.jsonl", [
            _event("run-start", 0, run_id="r-0123456789ab",
                   manifest=_manifest(run_id="r-0123456789ab"),
                   format_version=1),
            '{"event": "run-end", "ts',  # killed writer
        ])
        bad_bench = tmp_path / "BENCH_broken.json"
        bad_bench.write_text("{not json")

        with RunStore(tmp_path / "s.sqlite") as store:
            report = store.ingest_many(
                [corrupt, good, skewed, bad_bench, truncated]
            )
            assert isinstance(report, IngestReport)
            assert report.ingested == 2      # good + truncated
            assert report.quarantined == 3
            assert report.warnings == 1      # the torn final line
            assert len(report.problems) == 3
            rows = store.runs()
            assert len(rows) == 2
            quarantine = store.quarantined()
            assert {q["reason"] for q in quarantine} == {
                "empty-trace", "schema-version-skew", "corrupt-bench",
            }
            assert all(q["path"] and q["detail"] is not None
                       for q in quarantine)

    def test_manifest_siblings_skipped_in_batch(self, tmp_path):
        observer = start_run(str(tmp_path / "t"), "solve")
        observer.finish(exit_code=0)
        inputs = sorted((tmp_path / "t").glob("solve-*"))
        assert len(inputs) == 2  # trace + manifest
        with RunStore(tmp_path / "s.sqlite") as store:
            report = store.ingest_many(inputs)
            assert report.total == 1
            assert report.quarantined == 0

    def test_newer_store_schema_refused(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with RunStore(path) as store:
            store._conn.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
            store._conn.commit()
        with pytest.raises(StoreError):
            RunStore(path)


# ---------------------------------------------------------------------------
# Acceptance: repro trend reproduces BENCH_bcp.json; regression gate fires


def _scaled_aggregate(payload, factor, created_unix):
    """A copy of ``payload`` whose aggregate arena/legacy ratio is
    ``factor`` times the original, stamped newer."""
    scaled = copy.deepcopy(payload)
    scaled["bcp"]["aggregate"]["arena"] *= factor
    scaled["created_unix"] = created_unix
    return scaled


class TestBenchTrend:
    def _baseline_payload(self):
        payload = json.loads(BENCH_BASELINE.read_text())
        payload.setdefault("created_unix", 1700000000.0)
        return payload

    def test_trend_reproduces_committed_aggregates(self, tmp_path, capsys):
        store_path = tmp_path / "s.sqlite"
        with RunStore(store_path) as store:
            store.ingest_bench(BENCH_BASELINE)
            rows = store.bench_rows()
        aggregate = self._baseline_payload()["bcp"]["aggregate"]
        by_engine = {
            row["engine"]: row["props_per_sec"]
            for row in rows if row["workload"] == "aggregate"
        }
        assert by_engine == pytest.approx(
            {"legacy": aggregate["legacy"], "arena": aggregate["arena"]}
        )
        # The derived speedup row reproduces the committed ratio of
        # aggregate throughputs.
        assert main(["trend", "--store", str(store_path), "--json"]) == 0
        trend = json.loads(capsys.readouterr().out)
        (point,) = [row for row in trend if row["workload"] == "aggregate"]
        assert point["engine"] == "speedup_arena_vs_legacy"
        assert point["baseline"] is None
        assert point["value"] == pytest.approx(
            aggregate["speedup_arena_vs_legacy"], abs=1e-3
        )

    def test_degraded_bench_fails_regression_gate(self, tmp_path, capsys):
        baseline = self._baseline_payload()
        b1 = tmp_path / "BENCH_base.json"
        b1.write_text(json.dumps(baseline))

        degraded = copy.deepcopy(baseline)
        for cell in degraded["bcp"]["workloads"].values():
            cell["arena"]["seconds"] *= 3.0
            cell["arena"]["props_per_sec"] /= 3.0
        degraded["bcp"]["aggregate"]["arena"] /= 3.0
        degraded["created_unix"] = baseline["created_unix"] + 100.0
        b2 = tmp_path / "BENCH_degraded.json"
        b2.write_text(json.dumps(degraded))

        store_path = tmp_path / "s.sqlite"
        assert main([
            "trend", str(b1), str(b2), "--store", str(store_path),
            "--check-regression",
        ]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "aggregate" in err

        # A healthy re-measurement (identical numbers, newer stamp)
        # passes the same gate in a fresh store.
        healthy = copy.deepcopy(baseline)
        healthy["created_unix"] = degraded["created_unix"] + 100.0
        b3 = tmp_path / "BENCH_healthy.json"
        b3.write_text(json.dumps(healthy))
        assert main([
            "trend", str(b1), str(b3),
            "--store", str(tmp_path / "fresh.sqlite"),
            "--check-regression",
        ]) == 0
        assert "trend gate" in capsys.readouterr().err

    @pytest.mark.parametrize("factor,code", [(0.89, 1), (0.91, 0)])
    def test_gate_bound_is_ten_percent_of_committed_ratio(
        self, tmp_path, capsys, factor, code
    ):
        # The bound the deleted in-script gate enforced (fail below 0.9x
        # the committed aggregate ratio), now held by the trend gate.
        baseline = self._baseline_payload()
        newer = _scaled_aggregate(
            baseline, factor, baseline["created_unix"] + 100.0
        )
        b1 = tmp_path / "BENCH_bcp.json"
        b1.write_text(json.dumps(baseline))
        b2 = tmp_path / "BENCH_bcp_smoke.json"
        b2.write_text(json.dumps(newer))
        assert main([
            "trend", str(b1), str(b2), "--store",
            str(tmp_path / "s.sqlite"), "--check-regression",
        ]) == code
        assert ("REGRESSION" in capsys.readouterr().err) == (code == 1)

    def test_touched_committed_baseline_stays_the_baseline(
        self, tmp_path, capsys
    ):
        # The committed file carries no created_unix; a checkout or touch
        # makes it the newest file on disk, but it must still sort before
        # a stamped smoke result, so the gate checks the smoke result.
        committed = json.loads(BENCH_BASELINE.read_text())
        assert "created_unix" not in committed
        b1 = tmp_path / "BENCH_bcp.json"
        b1.write_text(json.dumps(committed))
        smoke = _scaled_aggregate(committed, 0.5, time.time() - 3600.0)
        b2 = tmp_path / "BENCH_bcp_smoke.json"
        b2.write_text(json.dumps(smoke))
        os.utime(b1)
        assert b1.stat().st_mtime > smoke["created_unix"]
        assert main([
            "trend", str(b2), str(b1), "--store",
            str(tmp_path / "s.sqlite"), "--check-regression",
        ]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "BENCH_bcp_smoke.json" in err

    def test_smoke_results_flagged_and_reingest_replaces(self, tmp_path):
        payload = self._baseline_payload()
        payload["smoke"] = True
        path = tmp_path / "BENCH_bcp_smoke.json"
        path.write_text(json.dumps(payload))
        with RunStore(tmp_path / "s.sqlite") as store:
            count = store.ingest_bench(path)
            assert count == store.ingest_bench(path)  # idempotent
            rows = [
                row for row in store.bench_rows()
                if row["workload"] == "aggregate"
            ]
            assert {row["engine"] for row in rows} == {"legacy", "arena"}
            assert all(row["smoke"] == 1 for row in rows)
            assert len(rows) == 2  # replaced, not appended


# ---------------------------------------------------------------------------
# Query CLI rendering, filters, and report-by-run-id


class TestQueryCLI:
    @pytest.fixture
    def populated(self, tmp_path):
        trace_dir = tmp_path / "t"
        observer = start_run(
            str(trace_dir), "solve", argv=["x"], config={}, policy="lbd"
        )
        observer.counter("solver.conflicts").inc(3)
        observer.finish(exit_code=10)
        return trace_dir / "runstore.sqlite", observer.run_id

    def test_table_csv_json_formats(self, populated, capsys):
        store_path, run_id = populated
        assert main(["query", "runs", "--store", str(store_path)]) == 0
        table = capsys.readouterr().out
        assert run_id in table
        assert "created" in table and "----" in table

        assert main([
            "query", "runs", "--store", str(store_path), "--format", "csv",
        ]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0].startswith("run_id,kind,status")

        assert main([
            "query", "metrics", "--store", str(store_path),
            "--name", "solver.*", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{
            "run_id": run_id, "kind": "solve", "name": "solver.conflicts",
            "metric_kind": "counter", "value": 3.0,
        }]

    def test_filters_and_limit(self, populated, capsys):
        store_path, run_id = populated
        assert main([
            "query", "runs", "--store", str(store_path),
            "--kind", "solve", "--status", "ok", "--since", "1d",
            "--limit", "5", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in rows] == [run_id]
        assert main([
            "query", "runs", "--store", str(store_path),
            "--kind", "chaos", "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_traces_lists_artifacts(self, populated, capsys):
        store_path, run_id = populated
        assert main([
            "query", "traces", "--store", str(store_path), "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["role"] == "trace"
        assert rows[0]["sha256"] and rows[0]["bytes"] > 0
        assert main([
            "query", "traces", "--store", str(store_path),
            "--role", "all", "--json",
        ]) == 0
        roles = {row["role"] for row in json.loads(capsys.readouterr().out)}
        assert roles == {"trace", "manifest"}

    def test_report_accepts_run_id_and_latest(self, populated, capsys):
        store_path, run_id = populated
        assert main([
            "report", run_id, "--store", str(store_path),
        ]) == 0
        assert run_id in capsys.readouterr().out
        assert main([
            "report", "--latest", "kind=solve", "--store", str(store_path),
        ]) == 0
        assert run_id in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["report", "r-nosuchrun000", "--store", str(store_path)])
        with pytest.raises(SystemExit):
            main(["report", "--latest", "kind=nope",
                  "--store", str(store_path)])

    def test_missing_store_exits_with_guidance(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="no run store"):
            main(["query", "runs"])

    def test_parse_when_forms(self):
        from repro.cli import _parse_when

        assert _parse_when(None) is None
        assert _parse_when("1700000000") == 1700000000.0
        assert abs(_parse_when("1h") - (time.time() - 3600)) < 5
        parsed = _parse_when("2026-01-02")
        assert time.localtime(parsed).tm_mday == 2
        with pytest.raises(SystemExit):
            _parse_when("next tuesday")

    def test_format_rows_renderer(self):
        rows = [
            {"name": "a", "value": 1.5}, {"name": "bb", "value": None},
        ]
        table = format_rows(rows, ("name", "value"), "table")
        assert table.splitlines()[0].startswith("name")
        assert "1.5" in table
        csv_text = format_rows(rows, ("name", "value"), "csv")
        assert csv_text.splitlines()[0] == "name,value"
        parsed = json.loads(format_rows(rows, ("name",), "json"))
        assert parsed == [{"name": "a"}, {"name": "bb"}]
        assert format_rows([], ("x",), "table") == "(no rows)"
        with pytest.raises(ValueError):
            format_rows(rows, ("name",), "yaml")


# ---------------------------------------------------------------------------
# Fuzz corpus artifact registration


class TestFuzzCorpusArtifacts:
    def test_corpus_entries_registered(self, tmp_path, monkeypatch):
        from repro.fuzz.oracles import Discrepancy
        from repro.fuzz.shrink import FailureCorpus

        store_path = tmp_path / "s.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(store_path))
        corpus = FailureCorpus(tmp_path / "corpus")
        corpus.add(
            CNF([[1, 2], [-1, -2]]),
            Discrepancy(
                oracle="dpll", kind="status", case="c0",
                expected="SATISFIABLE", observed="UNSATISFIABLE",
            ),
        )
        with RunStore(store_path) as store:
            roles = {row["role"]: row for row in store.artifacts()}
            assert set(roles) == {"fuzz-repro", "fuzz-repro-manifest"}
            assert roles["fuzz-repro"]["path"].endswith(".cnf")
