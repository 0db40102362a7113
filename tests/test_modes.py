"""Tests for mode-switching restarts and rephasing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, pigeonhole, random_ksat
from repro.solver import Solver, SolverConfig, Status, brute_force_status
from repro.solver.arena import ArenaTrail, ClauseArena
from repro.solver.decide import Decider
from repro.solver.restart import SwitchingRestarts
from repro.solver.types import encode


class TestSwitchingRestarts:
    def test_starts_focused(self):
        policy = SwitchingRestarts(mode_interval=10)
        assert not policy.in_stable

    def test_switches_after_interval(self):
        policy = SwitchingRestarts(mode_interval=5)
        for _ in range(5):
            policy.on_conflict(glue=3)
        assert policy.in_stable
        assert policy.switches == 1

    def test_interval_doubles(self):
        policy = SwitchingRestarts(mode_interval=4)
        for _ in range(4):
            policy.on_conflict(glue=3)
        assert policy.switches == 1
        # Next switch after 8 more conflicts.
        for _ in range(7):
            policy.on_conflict(glue=3)
        assert policy.switches == 1
        policy.on_conflict(glue=3)
        assert policy.switches == 2
        assert not policy.in_stable

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SwitchingRestarts(mode_interval=0)

    def test_solver_mode(self):
        cnf = pigeonhole(5)
        config = SolverConfig(restart_mode="switching", luby_base=20)
        result = Solver(cnf, config=config).solve()
        assert result.status is Status.UNSATISFIABLE


class TestRephasing:
    def make_decider(self, num_vars=4):
        return Decider(ArenaTrail(num_vars, ClauseArena()), initial_phase=True)

    def test_original_and_inverted(self):
        decider = self.make_decider()
        decider.save_phase(1, False)
        decider.rephase("original", initial_phase=True)
        assert all(decider.saved_phase[1:])
        decider.rephase("inverted", initial_phase=True)
        assert not any(decider.saved_phase[1:])

    def test_best_falls_back_without_snapshot(self):
        decider = self.make_decider()
        decider.rephase("best", initial_phase=False)
        assert not any(decider.saved_phase[1:])

    def test_best_restores_snapshot(self):
        decider = self.make_decider()
        decider.trail.assign(encode(1), None)
        decider.trail.assign(encode(-2), None)
        decider.snapshot_best_phases()
        decider.rephase("inverted", initial_phase=True)
        decider.rephase("best", initial_phase=True)
        assert decider.saved_phase[1] is True
        assert decider.saved_phase[2] is False

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            self.make_decider().rephase("weird")

    def test_solver_with_rephasing_solves(self):
        cnf = random_ksat(60, 255, seed=4)
        config = SolverConfig(rephase_interval=50)
        baseline = Solver(cnf).solve()
        rephased = Solver(cnf, config=config).solve()
        assert rephased.status is baseline.status


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["switching", "luby"]),
    st.sampled_from([0, 3]),
)
def test_property_modes_preserve_correctness(seed, mode, rephase):
    """Any restart/rephase configuration gives the oracle's answer."""
    import random as stdlib_random

    rng = stdlib_random.Random(seed)
    n = rng.randint(3, 9)
    m = rng.randint(1, 30)
    cnf = random_ksat(n, m, k=min(3, n), seed=seed)
    config = SolverConfig(
        restart_mode=mode, luby_base=5, rephase_interval=rephase
    )
    result = Solver(cnf, config=config).solve()
    assert result.status is brute_force_status(cnf)
    if result.is_sat:
        assert cnf.check_model(result.model)
