"""Tests for the assignment trail."""

import pytest

from repro.solver.arena import ArenaTrail, ClauseArena
from repro.solver.types import FALSE, TRUE, UNASSIGNED, encode


def make_trail(num_vars):
    return ArenaTrail(num_vars, ClauseArena())


def add_clause(trail, lits):
    """Store a clause in the trail's arena; returns its id (a reason)."""
    return trail.arena.add_original([encode(lit) for lit in lits])


class TestTrailBasics:
    def test_initial_state(self):
        trail = make_trail(4)
        assert trail.decision_level == 0
        assert trail.num_assigned() == 0
        assert all(trail.value_var(v) == UNASSIGNED for v in range(1, 5))

    def test_assign_sets_value_level_reason(self):
        trail = make_trail(3)
        trail.new_decision_level()
        cid = add_clause(trail, [1, 2])
        trail.assign(encode(1), cid)
        assert trail.value_var(1) == TRUE
        assert trail.levels[1] == 1
        assert trail.reasons[1] == cid

    def test_negative_literal_assignment(self):
        trail = make_trail(3)
        trail.assign(encode(-2), None)
        assert trail.value_var(2) == FALSE
        assert trail.value_lit(encode(-2)) == TRUE
        assert trail.value_lit(encode(2)) == FALSE

    def test_value_lit_unassigned(self):
        trail = make_trail(2)
        assert trail.value_lit(encode(1)) == UNASSIGNED

    def test_double_assign_asserts(self):
        trail = make_trail(2)
        trail.assign(encode(1), None)
        with pytest.raises(AssertionError):
            trail.assign(encode(-1), None)

    def test_all_assigned(self):
        trail = make_trail(2)
        trail.assign(encode(1), None)
        assert not trail.all_assigned()
        trail.assign(encode(2), None)
        assert trail.all_assigned()


class TestBacktracking:
    def test_backtrack_removes_above_level(self):
        trail = make_trail(5)
        trail.assign(encode(1), None)  # level 0
        trail.new_decision_level()
        trail.assign(encode(2), None)
        trail.assign(encode(3), None)
        trail.new_decision_level()
        trail.assign(encode(4), None)

        undone = trail.backtrack(1)
        assert [u >> 1 for u in undone] == [4]
        assert trail.decision_level == 1
        assert trail.value_var(4) == UNASSIGNED
        assert trail.value_var(2) == TRUE

    def test_backtrack_to_zero(self):
        trail = make_trail(3)
        trail.assign(encode(1), None)
        trail.new_decision_level()
        trail.assign(encode(2), None)
        trail.backtrack(0)
        assert trail.decision_level == 0
        assert trail.value_var(1) == TRUE  # level-0 assignment survives
        assert trail.value_var(2) == UNASSIGNED

    def test_backtrack_to_current_level_is_noop(self):
        trail = make_trail(2)
        trail.new_decision_level()
        trail.assign(encode(1), None)
        assert trail.backtrack(1) == []
        assert trail.value_var(1) == TRUE

    def test_backtrack_resets_qhead(self):
        trail = make_trail(3)
        trail.new_decision_level()
        trail.assign(encode(1), None)
        trail.assign(encode(2), None)
        trail.qhead = 2
        trail.backtrack(0)
        assert trail.qhead == 0

    def test_backtrack_clears_reasons(self):
        # ``reasons`` goes stale for unassigned variables; what matters
        # is that the clause no longer counts as a reason.
        trail = make_trail(2)
        trail.new_decision_level()
        cid = add_clause(trail, [1, 2])
        trail.assign(encode(1), cid)
        assert trail.is_reason(cid)
        trail.backtrack(0)
        assert not trail.is_reason(cid)


class TestModelAndReasons:
    def test_model_reflects_assignment(self):
        trail = make_trail(3)
        trail.assign(encode(1), None)
        trail.assign(encode(-3), None)
        model = trail.model()
        assert model[1] is True
        assert model[2] is None
        assert model[3] is False

    def test_is_reason(self):
        trail = make_trail(2)
        cid = add_clause(trail, [1, 2])
        trail.assign(encode(1), cid)
        assert trail.is_reason(cid)
        other = add_clause(trail, [2, 1])
        assert not trail.is_reason(other)

    def test_is_reason_false_when_unassigned(self):
        trail = make_trail(2)
        cid = add_clause(trail, [1, 2])
        assert not trail.is_reason(cid)
