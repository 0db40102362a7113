"""Additional unit tests: watch lists, statistics edge cases, calibration scale."""

import pytest

from repro.bench.calibration import EffortScale, PAPER_TIMEOUT_SECONDS
from repro.solver.arena import ArenaWatchLists, ClauseArena
from repro.solver.statistics import SolverStatistics


def make_watches(num_vars):
    return ArenaWatchLists(num_vars, ClauseArena())


def attach(watches, lits):
    cid = watches.arena.add_original(list(lits))
    watches.attach(cid)
    return cid


def watched_ids(watches, lit):
    """Every clause id with a watcher record on ``lit``, any table."""
    return watches.ternary_watch_ids(lit) + watches.long_watch_ids(lit)


class TestWatchLists:
    def test_attach_requires_two_literals(self):
        watches = make_watches(3)
        cid = watches.arena.add_original([2])
        with pytest.raises(AssertionError):
            watches.attach(cid)

    def test_attach_registers_both_watches(self):
        watches = make_watches(4)
        cid = attach(watches, [2, 4, 6, 8])
        assert cid in watches.long_watch_ids(2)
        assert cid in watches.long_watch_ids(4)
        assert cid not in watches.long_watch_ids(6)
        assert watches.total_watches() == 2

    def test_detach_garbage_sweeps_everywhere(self):
        watches = make_watches(4)
        keep = attach(watches, [2, 4, 6])
        drop = attach(watches, [2, 6, 8])
        watches.arena.mark_garbage(drop)
        watches.detach_garbage()
        assert keep in watches.ternary_watch_ids(2)
        assert drop not in watches.ternary_watch_ids(2)
        assert watches.total_watches() == 3

    def test_binary_clauses_use_binary_table(self):
        watches = make_watches(4)
        attach(watches, [2, 4])
        long = attach(watches, [2, 4, 6, 8])
        assert 4 in watches.binary[2]
        assert 2 in watches.binary[4]
        assert watches.long_watch_ids(2) == [long]
        assert watches.ternary_watch_ids(2) == []
        assert watches.total_watches() == 4

    def test_garbage_never_survives_sweep(self):
        # Mixed population in every table, several garbage clauses — the
        # single-pass sweep must leave no garbage record in any table,
        # at any literal index, while preserving every live record.
        # Binary clauses are never garbage (reduce excludes them).
        watches = make_watches(6)
        live = [
            attach(watches, [2, 4]),
            attach(watches, [3, 5]),
            attach(watches, [2, 5, 7]),
            attach(watches, [4, 6, 8, 10]),
        ]
        dead = [
            attach(watches, [2, 4, 9]),
            attach(watches, [3, 7, 11]),
            attach(watches, [2, 6, 8, 12]),
        ]
        arena = watches.arena
        for cid in dead:
            arena.mark_garbage(cid)
        watches.detach_garbage()
        for lit in range(len(watches.ternary)):
            for cid in watched_ids(watches, lit):
                assert not arena.garbage[cid]
        for cid in live:
            lits = arena.literals(cid)
            if len(lits) == 2:
                assert lits[1] in watches.binary[lits[0]]
            else:
                assert cid in watched_ids(watches, lits[0])
                assert cid in watched_ids(watches, lits[1])
        # Two records per binary, three per ternary, two per long clause.
        assert watches.total_watches() == 2 * 2 + 3 + 2

    def test_sweep_of_fully_garbage_lists_empties_them(self):
        watches = make_watches(4)
        for lits in ([2, 4, 6], [2, 4, 6, 8]):
            watches.arena.mark_garbage(attach(watches, lits))
        watches.detach_garbage()
        assert watches.total_watches() == 0
        assert watched_ids(watches, 2) == []


class TestStatisticsEdges:
    def test_mean_glue_zero_when_no_learning(self):
        stats = SolverStatistics()
        assert stats.mean_glue() == 0.0
        assert stats.mean_learned_size() == 0.0

    def test_means(self):
        stats = SolverStatistics(
            learned_clauses=4, glue_sum=12, learned_literals=20
        )
        assert stats.mean_glue() == 3.0
        assert stats.mean_learned_size() == 5.0

    def test_reset_clears_all_counters(self):
        stats = SolverStatistics(decisions=5, propagations=9, glue_sum=3)
        stats.reset()
        assert all(v == 0 for v in vars(stats).values())


class TestEffortScaleEdges:
    def test_paper_timeout_constant(self):
        assert PAPER_TIMEOUT_SECONDS == 5000.0

    def test_custom_timeout(self):
        scale = EffortScale(propagations_at_timeout=100, timeout_seconds=10.0)
        assert scale.to_seconds(50) == pytest.approx(5.0)
        assert scale.to_seconds(1000) == 10.0
        assert scale.propagations_per_second == pytest.approx(10.0)
