"""Tests for watched-literal unit propagation over the clause arena."""

from repro.solver.arena import (
    ArenaPropagator,
    ArenaTrail,
    ArenaWatchLists,
    ClauseArena,
)
from repro.solver.statistics import SolverStatistics
from repro.solver.types import TRUE, UNASSIGNED, encode


def make_engine(num_vars):
    arena = ClauseArena()
    trail = ArenaTrail(num_vars, arena)
    watches = ArenaWatchLists(num_vars, arena)
    stats = SolverStatistics()
    return trail, watches, ArenaPropagator(trail, watches, stats), stats


def attach(watches, lits):
    cid = watches.arena.add_original([encode(l) for l in lits])
    watches.attach(cid)
    return cid


class TestPropagation:
    def test_unit_propagation_chain(self):
        trail, watches, prop, stats = make_engine(3)
        attach(watches, [-1, 2])
        attach(watches, [-2, 3])
        trail.assign(encode(1), None)
        conflict = prop.propagate()
        assert conflict is None
        assert trail.value_var(2) == TRUE
        assert trail.value_var(3) == TRUE
        assert stats.propagations == 2

    def test_no_propagation_when_satisfied(self):
        trail, watches, prop, stats = make_engine(3)
        attach(watches, [1, 2])
        trail.assign(encode(1), None)
        prop.propagate()
        assert trail.value_var(2) == UNASSIGNED
        assert stats.propagations == 0

    def test_watch_relocation(self):
        trail, watches, prop, _ = make_engine(4)
        cid = attach(watches, [1, 2, 3, 4])
        trail.assign(encode(-1), None)
        prop.propagate()
        # Watch moved off the falsified literal; no assignment forced.
        assert trail.value_var(2) == UNASSIGNED
        watched = [
            lit for lit in watches.arena.literals(cid)
            if cid in watches.long_watch_ids(lit)
        ]
        assert len(watched) == 2
        assert encode(1) not in watched

    def test_conflict_detection(self):
        trail, watches, prop, _ = make_engine(2)
        attach(watches, [1, 2])
        trail.assign(encode(-1), None)
        trail.assign(encode(-2), None)
        conflict = prop.propagate()
        # Binary conflicts carry the clause's two (false) literals.
        assert set(conflict) == {encode(1), encode(2)}

    def test_conflict_via_two_units(self):
        trail, watches, prop, _ = make_engine(3)
        attach(watches, [-1, 2])
        attach(watches, [-1, -2])
        trail.assign(encode(1), None)
        conflict = prop.propagate()
        assert conflict is not None

    def test_reason_recorded_with_implied_literal_first(self):
        trail, watches, prop, _ = make_engine(4)
        cid = attach(watches, [-1, -2, -4, 3])
        trail.assign(encode(1), None)
        trail.assign(encode(2), None)
        trail.assign(encode(4), None)
        prop.propagate()
        assert trail.value_var(3) == TRUE
        assert trail.reasons[3] == cid
        assert watches.arena.literals(cid)[0] == encode(3)

    def test_garbage_clauses_never_propagate_once_detached(self):
        # Contract: garbage is detached before propagation runs (as
        # ReduceScheduler.reduce does), so the hot loop never sees it.
        trail, watches, prop, _ = make_engine(3)
        cid = attach(watches, [-1, -2, 3])
        watches.arena.mark_garbage(cid)
        watches.detach_garbage()
        trail.assign(encode(1), None)
        trail.assign(encode(2), None)
        assert prop.propagate() is None
        assert trail.value_var(3) == UNASSIGNED


class TestFrequencyCounters:
    def test_propagated_variables_counted(self):
        trail, watches, prop, _ = make_engine(3)
        attach(watches, [-1, 2])
        attach(watches, [-2, 3])
        trail.assign(encode(1), None)
        prop.propagate()
        assert prop.frequency[1] == 0  # decision, not propagation
        assert prop.frequency[2] == 1
        assert prop.frequency[3] == 1

    def test_lifetime_survives_reset(self):
        trail, watches, prop, _ = make_engine(2)
        attach(watches, [-1, 2])
        trail.assign(encode(1), None)
        prop.propagate()
        prop.reset_frequencies()
        assert prop.frequency[2] == 0
        assert prop.lifetime_frequency[2] == 1

    def test_max_frequency(self):
        trail, watches, prop, _ = make_engine(3)
        attach(watches, [-1, 2])
        attach(watches, [-1, 3])
        trail.assign(encode(1), None)
        prop.propagate()
        assert prop.max_frequency() == 1
