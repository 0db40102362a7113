"""Post-solve audit of solver-internal invariants.

After any solve, the engine's data structures must be internally
consistent: watch lists point at live clauses, learned clauses are
well-formed (distinct literals, sane glue), and trail bookkeeping is
coherent.  The arena is audited through its flat buffer, metadata
arrays, and offset tables.
"""

import pytest

from repro.cnf import random_ksat, pigeonhole
from repro.policies import FrequencyPolicy
from repro.selection.labeling import default_labeling_config
from repro.solver import Solver, Status


def audit_arena(solver: Solver) -> None:
    """Assert every arena-core invariant we can check from outside."""
    arena = solver.clause_db
    data = arena.data
    watches = solver.watches

    # -- arena block structure: back-to-back [id, size, lits...] ------------
    walked = set()
    pos = 0
    while pos < len(data):
        cid = data[pos]
        size = data[pos + 1]
        assert 0 <= cid < len(arena.offset), "block id out of range"
        assert arena.offset[cid] == pos + 2, "offset table disagrees with block"
        assert size >= 2, "unit/empty clause in the arena"
        assert not arena.garbage[cid], "garbage block survived compaction"
        walked.add(cid)
        pos += 2 + size
    assert pos == len(data), "trailing bytes after the last block"
    live = set(arena.live_ids())
    assert walked == live, "live-id view disagrees with the arena walk"
    for cid in range(len(arena.offset)):
        if cid not in live:
            assert arena.offset[cid] == -1, "garbage id kept an offset"

    # -- clause hygiene -----------------------------------------------------
    for cid in live:
        lits = arena.literals(cid)
        variables = [lit >> 1 for lit in lits]
        assert len(set(lits)) == len(lits), "duplicate literals"
        assert len(set(variables)) == len(variables), "tautological clause"
        if arena.learned[cid]:
            assert arena.glue[cid] >= 1

    # -- watch invariant: every clause in exactly the right table -----------
    for cid in live:
        lits = arena.literals(cid)
        if len(lits) == 2:
            a, b = lits
            assert b in watches.binary[a] and a in watches.binary[b], (
                "binary watcher pair missing"
            )
        elif len(lits) == 3:
            for lit in lits:
                assert (
                    watches.ternary_watch_ids(lit).count(cid) == 1
                ), "ternary clause not watched on all three literals"
        else:
            watched = [
                lit for lit in lits if cid in watches.long_watch_ids(lit)
            ]
            assert watched == lits[:2], (
                "long clause must be watched on exactly its first two slots"
            )

    # -- watcher records reference live clauses with sane blockers ----------
    for lit in range(len(watches.watches)):
        lst = watches.watches[lit]
        for i in range(0, len(lst), 2):
            blocker, off = lst[i], lst[i + 1]
            cid = data[off - 2]
            assert cid in live, "watcher references a dead clause"
            lits = arena.literals(cid)
            assert lit in lits[:2], "watcher literal not in a watch slot"
            assert blocker in lits, "blocker outside clause"
        tlst = watches.ternary[lit]
        for i in range(0, len(tlst), 3):
            o1, o2, cid = tlst[i], tlst[i + 1], tlst[i + 2]
            assert cid in live, "ternary watcher references a dead clause"
            assert sorted(arena.literals(cid)) == sorted([lit, o1, o2]), (
                "ternary record disagrees with the clause"
            )

    # -- reason references survive deletion/compaction ----------------------
    for lit in solver.trail.trail:
        var = lit >> 1
        reason = solver.trail.reasons[var]
        if reason is None or reason < 0:
            continue  # decision / binary reason: nothing to dangle
        assert reason in live, "reason clause was deleted"
        rlits = arena.literals(reason)
        assert lit in rlits, "implied literal missing from its reason"

    # -- metadata arrays stay parallel --------------------------------------
    n = len(arena.offset)
    for array in (
        arena.glue,
        arena.activity,
        arena.used,
        arena.garbage,
        arena.frequency,
        arena.learned,
    ):
        assert len(array) == n, "metadata array out of sync with ids"

    # -- int32 discipline ----------------------------------------------------
    arena.as_int32()

    audit_trail(solver)


def audit_trail(solver: Solver) -> None:
    seen_vars = set()
    for lit in solver.trail.trail:
        var = lit >> 1
        assert var not in seen_vars, "variable assigned twice on the trail"
        seen_vars.add(var)
        assert solver.trail.value_var(var) != -1


@pytest.mark.parametrize("seed", range(6))
def test_invariants_after_random_solve(seed):
    cnf = random_ksat(60, 255, seed=seed)
    solver = Solver(cnf, config=default_labeling_config())
    solver.solve(max_conflicts=2000)
    audit_arena(solver)


def test_invariants_after_reduction_heavy_run():
    cnf = random_ksat(150, 645, seed=2)
    solver = Solver(
        cnf, policy=FrequencyPolicy(), config=default_labeling_config()
    )
    result = solver.solve(max_conflicts=4000)
    assert result.stats.reductions > 0
    audit_arena(solver)


def test_invariants_after_unsat():
    solver = Solver(pigeonhole(5))
    assert solver.solve().status is Status.UNSATISFIABLE
    audit_arena(solver)


def test_invariants_survive_incremental_use():
    cnf = random_ksat(40, 160, seed=2)
    solver = Solver(cnf)
    solver.solve()
    solver.add_clause([-1, -2])
    solver.solve()
    solver.add_clause([3])
    solver.solve(assumptions=[4])
    audit_arena(solver)
