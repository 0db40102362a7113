"""Arena-specific behavior: growth, compaction, metadata, and stress.

These tests target exactly the hazards the flat int32 clause arena
introduces: buffer growth mid-solve, offset relocation under compaction
while watchers and reason references are live, id-indexed metadata
surviving relocation, and int32 discipline at scale.  The audit helpers
from :mod:`tests.test_solver_internals_audit` do the structural
walking; this file drives the arena into the states worth auditing.
"""

import random

import pytest

from repro.cnf import CNF, random_ksat
from repro.fuzz import CampaignConfig, run_campaign
from repro.policies import FrequencyPolicy
from repro.selection.labeling import default_labeling_config
from repro.solver import Solver, Status
from repro.solver.arena import HEADER_WORDS, ArenaWatchLists, ClauseArena
from repro.solver.reference import dpll_solve
from tests.test_solver_internals_audit import audit_arena


def planted_3sat(num_vars: int, num_clauses: int, seed: int) -> CNF:
    """Dense satisfiable 3-SAT: every clause satisfies a hidden model."""
    rng = random.Random(seed)
    plant = [rng.random() < 0.5 for _ in range(num_vars + 1)]
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if not any((lit > 0) == plant[abs(lit)] for lit in lits):
            i = rng.randrange(3)
            var = abs(lits[i])
            lits[i] = var if plant[var] else -var
        clauses.append(lits)
    return CNF(clauses)


# ---------------------------------------------------------------------------
# bump_clause: learned-only activity invariant
# ---------------------------------------------------------------------------


def test_arena_bump_rejects_original_clause():
    arena = ClauseArena()
    cid = arena.add_original([0, 2])
    with pytest.raises(ValueError, match="original"):
        arena.bump_clause(cid)
    assert arena.activity[cid] == 0.0


def test_arena_bump_overflow_rescales_learned_only():
    arena = ClauseArena()
    original = arena.add_original([0, 2, 4])
    low = arena.add_learned([1, 3], glue=2)
    high = arena.add_learned([5, 7], glue=2)
    arena.activity[low] = 1.0
    arena.activity[high] = 9e19
    arena.clause_inc = 2e19
    arena.bump_clause(high)  # 1.1e20 > 1e20 triggers the rescale
    assert arena.activity[high] == pytest.approx(1.1e20 * 1e-20)
    assert arena.activity[low] == pytest.approx(1e-20)
    assert arena.clause_inc == pytest.approx(2e19 * 1e-20)
    # Originals carry no activity, so the rescale must leave them at 0:
    # a nonzero original would silently dodge every future rescale.
    assert arena.activity[original] == 0.0
    assert arena.used[high] == 1


# ---------------------------------------------------------------------------
# growth and compaction
# ---------------------------------------------------------------------------


def test_arena_grows_mid_solve():
    cnf = random_ksat(150, 645, seed=2)
    solver = Solver(cnf)
    initial_words = solver.clause_db.arena_words()
    initial_ids = len(solver.clause_db.offset)
    result = solver.solve(max_conflicts=1500)
    assert result.stats.conflicts > 0
    # Learning appends blocks; the buffer and the id space both grow.
    assert solver.clause_db.arena_words() > initial_words
    assert len(solver.clause_db.offset) > initial_ids
    assert solver.clause_db.num_learned > 0
    audit_arena(solver)


def test_compaction_relocates_watchers_and_preserves_literals():
    """Unit-level compaction: watchers survive, survivors keep literals."""
    arena = ClauseArena()
    watches = ArenaWatchLists(num_vars=20, arena=arena)
    lits_by_cid = {}
    rng = random.Random(9)
    for i in range(40):
        width = rng.choice([2, 3, 5, 8])
        lits = rng.sample(range(40), width)
        cid = arena.add_original(lits)
        lits_by_cid[cid] = lits
        watches.attach(cid)
    doomed = [cid for cid in lits_by_cid if cid % 3 == 0 and len(lits_by_cid[cid]) > 2]
    for cid in doomed:
        arena.mark_garbage(cid)
    watches.detach_garbage()
    remap = arena.compact()
    watches.relocate(remap)

    for cid, lits in lits_by_cid.items():
        if cid in doomed:
            assert arena.offset[cid] == -1
            continue
        assert arena.literals(cid) == lits
        # The block header must agree with the relocated offset table.
        off = arena.offset[cid]
        assert arena.data[off - HEADER_WORDS] == cid
        assert arena.data[off - 1] == len(lits)
    # Every long watcher offset must point at a live, relocated block.
    for lit in range(len(watches.watches)):
        records = watches.watches[lit]
        for i in range(1, len(records), 2):
            off = records[i]
            cid = arena.data[off - HEADER_WORDS]
            assert arena.offset[cid] == off
            assert cid not in doomed


def test_compaction_during_solve_keeps_reasons_valid():
    cnf = random_ksat(150, 645, seed=2)
    solver = Solver(cnf, policy=FrequencyPolicy(), config=default_labeling_config())
    result = solver.solve(max_conflicts=4000)
    assert result.stats.reductions > 0  # compaction actually happened
    audit_arena(solver)  # includes reason-reference and watcher walks


def test_frequency_survives_compaction():
    """Relocation must not zero or misattribute Eq. (2) counters."""
    arena = ClauseArena()
    watches = ArenaWatchLists(num_vars=10, arena=arena)
    expected = {}
    for i in range(12):
        cid = arena.add_original([i % 8 * 2, (i + 3) % 8 * 2 + 1, 16 + (i % 4)])
        watches.attach(cid)
        arena.frequency[cid] = 100 + i
        expected[cid] = 100 + i
    doomed = {2, 5, 8}
    for cid in doomed:
        arena.mark_garbage(cid)
    watches.detach_garbage()
    watches.relocate(arena.compact())
    for cid, freq in expected.items():
        if cid not in doomed:
            assert arena.frequency[cid] == freq
            assert arena.view(cid).frequency == freq


def test_frequency_metadata_tracks_solve_with_reductions():
    cnf = random_ksat(150, 645, seed=2)
    solver = Solver(cnf, policy=FrequencyPolicy(), config=default_labeling_config())
    result = solver.solve(max_conflicts=4000)
    assert result.stats.reductions > 0
    # The frequency policy refreshed per-clause counters at least once
    # and compaction did not zero them for surviving learned clauses.
    assert any(
        solver.clause_db.frequency[cid] > 0
        for cid in solver.clause_db.live_learned_ids()
    )


# ---------------------------------------------------------------------------
# 100k-clause stress vs the DPLL reference oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", ["planted", "overconstrained"])
def test_100k_clause_stress_vs_dpll(make):
    if make == "planted":
        cnf = planted_3sat(26, 100_000, seed=7)
    else:
        cnf = random_ksat(26, 100_000, seed=42)
    solver = Solver(cnf)
    result = solver.solve()
    truth, _ = dpll_solve(cnf)
    assert result.status is truth
    if result.status is Status.SATISFIABLE:
        assert cnf.check_model(result.model)
    assert len(solver.clause_db.offset) >= 100_000
    solver.clause_db.as_int32()  # int32 discipline holds at scale


# ---------------------------------------------------------------------------
# fuzz smoke
# ---------------------------------------------------------------------------


def test_fuzz_smoke_200_seeds_on_arena():
    config = CampaignConfig(seeds=200, base_seed=11, budget=500, mutants=1)
    report = run_campaign(config)
    assert report.clean, [d.summary() for d in report.discrepancies]
    assert report.checks["incremental"] == 200
