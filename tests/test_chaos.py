"""Chaos harness: fault injectors, scripted scenarios, determinism.

The harness itself is test infrastructure, so these tests check it at
two levels:

* the injectors do exactly what their schedule says — the N-th forward
  pass crashes, the scheduled journal append raises, the tagged task's
  worker gets its fault plan — and nothing else;
* whole scenarios run green against a real service: every invariant
  holds (terminal, correct, degraded-honest, fault-delivery, breaker
  recovery, replay), and running a scenario twice yields the same
  fingerprint — the determinism claim ``repro chaos
  --check-determinism`` enforces in CI.

Tests drive the event loop with ``asyncio.run`` (no pytest-asyncio
dependency).
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    SCENARIOS,
    ChaoticModel,
    FlakyJournal,
    InferenceFault,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.cli import main
from repro.models import NeuroSelect
from repro.parallel import ParallelRunner, SolveTask
from repro.parallel.supervisor import Fault
from repro.chaos.faults import attach_worker_faults
from repro.cnf import random_ksat
from repro.solver import Status


# ---------------------------------------------------------------------------
# fault injectors


def test_chaotic_model_faults_fire_on_schedule():
    model = ChaoticModel(
        NeuroSelect(hidden_dim=8, seed=0),
        faults={2: InferenceFault("raise")},
    )
    from repro.graph import BipartiteGraph
    from repro.graph.batching import BatchedBipartiteGraph

    batch = BatchedBipartiteGraph(
        [BipartiteGraph(random_ksat(8, 24, seed=0))]
    )
    model.predict_proba_batch(batch)  # call 1: clean
    with pytest.raises(RuntimeError):
        model.predict_proba_batch(batch)  # call 2: scheduled crash
    model.predict_proba_batch(batch)  # call 3: clean again
    assert model.calls == 3
    assert model.triggered == [(2, "raise")]


def test_inference_fault_validation():
    with pytest.raises(ValueError):
        InferenceFault("explode")
    with pytest.raises(ValueError):
        InferenceFault("slow", seconds=-1.0)


def test_flaky_journal_fails_only_scheduled_writes(tmp_path):
    journal = FlakyJournal(
        tmp_path / "journal.jsonl", fail_writes=(2,)
    )
    journal.record("a", {"status": "SATISFIABLE"})
    with pytest.raises(OSError):
        journal.record("b", {"status": "SATISFIABLE"})
    journal.record("c", {"status": "SATISFIABLE"})
    assert journal.record_calls == 3
    assert journal.injected == 1
    assert journal.get("a") is not None
    assert journal.get("b") is None  # the failed write really was lost
    assert journal.get("c") is not None


def test_attach_worker_faults_translates_tags_to_indices():
    runner = ParallelRunner(workers=1)
    schedule = {"victim": Fault("raise", message="chaos: injected")}
    attach_worker_faults(runner, schedule)
    tasks = [
        SolveTask(cnf=random_ksat(8, 24, seed=i), policy="default",
                  max_conflicts=500, tag=tag)
        for i, tag in enumerate(["bystander", "victim"])
    ]
    outcomes = runner.run(tasks)
    assert outcomes[0].status in (
        Status.SATISFIABLE, Status.UNSATISFIABLE, Status.UNKNOWN
    )
    assert outcomes[1].status is Status.ERROR
    assert "chaos: injected" in outcomes[1].error
    assert runner.fault_plan is None  # restored after the run


# ---------------------------------------------------------------------------
# scenario registry


def test_registry_names_and_lookup():
    names = scenario_names()
    assert "mixed" in names and "inference-crash" in names
    assert get_scenario("mixed").name == "mixed"
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")
    for scenario in SCENARIOS.values():
        assert scenario.total_requests == scenario.waves * scenario.wave_size


# ---------------------------------------------------------------------------
# scenarios against a live service


def _assert_green(report):
    for invariant in report.invariants:
        assert invariant.ok, f"{invariant.name}: {invariant.detail}"
    assert report.ok


def test_journal_flake_scenario_is_green_and_deterministic(tmp_path):
    first = run_scenario("journal-flake", seed=0,
                         workdir=tmp_path / "run1")
    _assert_green(first)
    second = run_scenario("journal-flake", seed=0,
                          workdir=tmp_path / "run2")
    assert first.fingerprint == second.fingerprint
    assert first.service_stats["journal_injected"] == 1
    assert first.service_stats["journal_errors"] == 1


def test_inference_crash_scenario_breaker_recovers(tmp_path):
    report = run_scenario("inference-crash", seed=0, workdir=tmp_path)
    _assert_green(report)
    edges = [(t[0], t[1]) for t in report.breaker_transitions]
    assert ("CLOSED", "OPEN") in edges
    assert ("HALF_OPEN", "CLOSED") in edges
    degraded = [r for r in report.records if r.degraded]
    assert len(degraded) == 6  # both crashed waves, full batches
    assert all(r.policy == "default" for r in degraded)


def test_worker_kill_scenario_structured_failures(tmp_path):
    report = run_scenario("worker-kill", seed=0, workdir=tmp_path)
    _assert_green(report)
    by_ordinal = {r.ordinal: r for r in report.records}
    assert by_ordinal[1].status == "ERROR"      # SIGKILLed worker
    assert by_ordinal[1].code == 500
    assert by_ordinal[4].status == "MEMOUT"     # OOMed worker
    assert by_ordinal[4].code == 507
    healthy = [r for r in report.records if r.ordinal not in (1, 4)]
    assert all(r.status not in ("ERROR", "MEMOUT") for r in healthy)


def test_restart_scenario_replays_from_journal(tmp_path):
    report = run_scenario("restart", seed=0, workdir=tmp_path)
    _assert_green(report)
    replayed = [r for r in report.records if r.phase == "replay"]
    assert len(replayed) == 6
    assert all(r.resumed for r in replayed)


def test_disconnect_scenario_terminates_and_fingerprints(tmp_path):
    report = run_scenario("disconnect", seed=0, workdir=tmp_path)
    _assert_green(report)
    torn = [r for r in report.records if r.disconnected]
    assert len(torn) == 1
    assert torn[0].terminal
    assert torn[0].facts()["status"] == "DISCONNECTED"


def test_different_seed_changes_fingerprint(tmp_path):
    a = run_scenario("journal-flake", seed=0, workdir=tmp_path / "a")
    b = run_scenario("journal-flake", seed=1, workdir=tmp_path / "b")
    assert a.ok and b.ok
    assert a.fingerprint != b.fingerprint


# ---------------------------------------------------------------------------
# CLI


def test_cli_chaos_list_and_run(tmp_path, capsys):
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    code = main([
        "chaos", "--scenario", "journal-flake",
        "--workdir", str(tmp_path), "--json",
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert '"ok": true' in captured
