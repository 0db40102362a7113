"""Tests for decision heuristic, restarts, clause DB, and reduction."""

import pytest

from repro.policies import DefaultPolicy, FrequencyPolicy
from repro.solver.arena import (
    ArenaPropagator,
    ArenaTrail,
    ArenaWatchLists,
    ClauseArena,
)
from repro.solver.decide import Decider
from repro.solver.reduce import ReduceScheduler
from repro.solver.restart import LubyRestarts, luby
from repro.solver.statistics import SolverStatistics
from repro.solver.types import encode


def make_trail(num_vars):
    return ArenaTrail(num_vars, ClauseArena())


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, 16)] == expected

    def test_powers(self):
        assert luby(2**10 - 1) == 2**9

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)


class TestLubyRestarts:
    def test_restart_after_base_conflicts(self):
        policy = LubyRestarts(base=3)
        for _ in range(2):
            policy.on_conflict()
        assert not policy.should_restart()
        policy.on_conflict()
        assert policy.should_restart()
        policy.on_restart()
        assert not policy.should_restart()

    def test_limits_follow_luby(self):
        policy = LubyRestarts(base=10)
        limits = [policy._limit]
        for _ in range(4):
            policy.on_restart()
            limits.append(policy._limit)
        assert limits == [10, 10, 20, 10, 10]


class TestDecider:
    def test_picks_highest_activity(self):
        trail = make_trail(3)
        decider = Decider(trail)
        decider.bump(2)
        decider.bump(2)
        decider.bump(3)
        assert decider.pick_branch_variable() == 2

    def test_skips_assigned(self):
        trail = make_trail(2)
        decider = Decider(trail)
        decider.bump(1)
        trail.assign(encode(1), None)
        assert decider.pick_branch_variable() == 2

    def test_none_when_all_assigned(self):
        trail = make_trail(1)
        decider = Decider(trail)
        trail.assign(encode(1), None)
        assert decider.pick_branch_variable() is None

    def test_requeue_after_backtrack(self):
        trail = make_trail(1)
        decider = Decider(trail)
        assert decider.pick_branch_variable() == 1
        trail.new_decision_level()
        trail.assign(encode(1), None)
        for lit in trail.backtrack(0):
            decider.requeue(lit >> 1)
        assert decider.pick_branch_variable() == 1

    def test_phase_saving_controls_polarity(self):
        trail = make_trail(1)
        decider = Decider(trail)
        assert decider.pick_branch_literal() == encode(1)
        decider.requeue(1)
        decider.saved_phase[1] = False
        assert decider.pick_branch_literal() == encode(-1)

    def test_rescale_preserves_order(self):
        trail = make_trail(3)
        decider = Decider(trail)
        decider.activity[1] = 9e99
        decider.var_inc = 5e99
        decider.bump(1)  # triggers rescale
        decider.bump(2)
        assert decider.activity[1] > decider.activity[3]
        assert decider.pick_branch_variable() in (1, 2)

    def test_decay_grows_increment(self):
        trail = make_trail(1)
        decider = Decider(trail)
        before = decider.var_inc
        decider.decay_activities()
        assert decider.var_inc == pytest.approx(before / 0.95)


class TestClauseDatabase:
    def test_reducible_excludes_low_glue_and_binaries(self):
        db = ClauseArena(keep_glue=2)
        low = db.add_learned([2, 4, 6], glue=2)
        binary = db.add_learned([2, 4], glue=5)
        big = db.add_learned([2, 4, 6, 8], glue=5)
        reducible = db.reducible_clauses()
        assert big in reducible
        assert low not in reducible
        assert binary not in reducible

    def test_bump_and_rescale(self):
        db = ClauseArena()
        cid = db.add_learned([2, 4, 6], glue=3)
        db.activity[cid] = 2e20
        db.bump_clause(cid)
        assert db.activity[cid] == pytest.approx(2.0)  # rescaled by 1e-20
        assert db.clause_inc == pytest.approx(1e-20)
        assert db.used[cid]

    def test_sweep_removes_garbage(self):
        db = ClauseArena()
        keep = db.add_learned([2, 4, 6], glue=3)
        drop = db.add_learned([2, 4, 8], glue=3)
        db.mark_garbage(drop)
        db.compact()
        assert db.live_learned_ids() == [keep]
        assert db.offset[drop] == -1
        assert db.literals(keep) == [2, 4, 6]

    def test_counts(self):
        db = ClauseArena()
        db.add_original([2, 4])
        db.add_learned([2, 6, 8], glue=3)
        assert db.num_original == 1
        assert db.num_learned == 1


def build_reduce_fixture(policy, num_clauses=10, **kwargs):
    db = ClauseArena(keep_glue=2)
    trail = ArenaTrail(30, db)
    watches = ArenaWatchLists(30, db)
    stats = SolverStatistics()
    prop = ArenaPropagator(trail, watches, stats)
    clauses = []
    for i in range(num_clauses):
        lits = [encode(1 + i), encode(-(2 + i)), encode(3 + i)]
        cid = db.add_learned(lits, glue=3 + (i % 4))
        watches.attach(cid)
        clauses.append(cid)
    reducer = ReduceScheduler(db, trail, watches, prop, stats, policy, **kwargs)
    return reducer, db, stats, clauses, prop


class TestReduceScheduler:
    def test_should_reduce_follows_conflicts(self):
        reducer, _, stats, _, _ = build_reduce_fixture(DefaultPolicy(), interval=5)
        assert not reducer.should_reduce()
        stats.conflicts = 5
        assert reducer.should_reduce()

    def test_reduce_deletes_target_fraction(self):
        reducer, db, stats, clauses, _ = build_reduce_fixture(
            DefaultPolicy(), num_clauses=10, target_fraction=0.5, protect_used=False
        )
        deleted = reducer.reduce()
        assert deleted == 5
        assert db.num_learned == 5
        assert stats.deleted_clauses == 5

    def test_worst_glue_deleted_first(self):
        reducer, db, _, clauses, _ = build_reduce_fixture(
            DefaultPolicy(), num_clauses=8, target_fraction=0.5, protect_used=False
        )
        reducer.reduce()
        survivors = [db.glue[cid] for cid in db.live_learned_ids()]
        deleted = [db.glue[cid] for cid in clauses if db.garbage[cid]]
        # The worst glue tier goes before any better one survives it.
        assert max(survivors) <= min(deleted)
        assert min(db.glue[cid] for cid in clauses) in survivors

    def test_used_clauses_get_one_round_grace(self):
        reducer, db, _, clauses, _ = build_reduce_fixture(
            DefaultPolicy(), num_clauses=4, target_fraction=1.0, protect_used=True
        )
        for cid in clauses:
            db.used[cid] = 1
        assert reducer.reduce() == 0
        assert not any(db.used[cid] for cid in db.live_learned_ids())
        assert reducer.reduce() == 4

    def test_reason_clauses_protected(self):
        reducer, db, _, clauses, _ = build_reduce_fixture(
            DefaultPolicy(), num_clauses=3, target_fraction=1.0, protect_used=False
        )
        reason = clauses[0]
        reducer.trail.assign(db.literals(reason)[0], reason)
        reducer.reduce()
        assert reason in db.live_learned_ids()

    def test_frequencies_reset_after_reduce(self):
        reducer, _, _, _, prop = build_reduce_fixture(DefaultPolicy(), protect_used=False)
        prop.frequency[5] = 99
        reducer.reduce()
        assert prop.frequency[5] == 0

    def test_limit_grows_between_rounds(self):
        reducer, _, stats, _, _ = build_reduce_fixture(
            DefaultPolicy(), interval=10, interval_growth=7, protect_used=False
        )
        stats.conflicts = 10
        reducer.reduce()
        first_limit = reducer._limit
        stats.conflicts = first_limit
        reducer.reduce()
        assert reducer._limit - stats.conflicts > 10 + 7

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            build_reduce_fixture(DefaultPolicy(), target_fraction=0.0)

    def test_frequency_policy_changes_tie_breaking(self):
        # Two clauses with identical glue/size; one over hot variables.
        policy = FrequencyPolicy()
        db = ClauseArena(keep_glue=2)
        trail = ArenaTrail(10, db)
        watches = ArenaWatchLists(10, db)
        stats = SolverStatistics()
        prop = ArenaPropagator(trail, watches, stats)
        cold = db.add_learned([encode(1), encode(2), encode(3)], glue=4)
        hot = db.add_learned([encode(4), encode(5), encode(6)], glue=4)
        for cid in (cold, hot):
            watches.attach(cid)
        for hot_var in (4, 5, 6):
            prop.bump_frequency(hot_var, 100)
        prop.bump_frequency(1, 1)
        reducer = ReduceScheduler(
            db, trail, watches, prop, stats, policy,
            target_fraction=0.5, protect_used=False,
        )
        reducer.reduce()
        assert db.live_learned_ids() == [hot]
