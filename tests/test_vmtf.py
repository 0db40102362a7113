"""Tests for the VMTF decision heuristic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, random_ksat
from repro.solver import Solver, SolverConfig, Status, VMTFDecider, brute_force_status
from repro.solver.arena import ArenaTrail, ClauseArena
from repro.solver.types import encode


class TestQueueMechanics:
    def make(self, n=5):
        return VMTFDecider(ArenaTrail(n, ClauseArena()))

    def test_initial_order_is_reverse_insertion(self):
        decider = self.make(3)
        # Variables pushed front in order 1, 2, 3 -> front is 3.
        assert decider.pick_branch_variable() == 3

    def test_bump_moves_to_front(self):
        decider = self.make(4)
        decider.bump(2)
        assert decider.pick_branch_variable() == 2

    def test_bump_front_refreshes_stamp(self):
        decider = self.make(3)
        decider.bump(3)  # already front
        decider.bump(1)
        decider.bump(3)
        assert decider.pick_branch_variable() == 3

    def test_assigned_variables_skipped(self):
        decider = self.make(3)
        decider.trail.assign(encode(3), None)
        assert decider.pick_branch_variable() == 2

    def test_none_when_all_assigned(self):
        decider = self.make(2)
        decider.trail.assign(encode(1), None)
        decider.trail.assign(encode(2), None)
        assert decider.pick_branch_variable() is None

    def test_requeue_moves_search_back(self):
        decider = self.make(3)
        trail = decider.trail
        trail.new_decision_level()
        trail.assign(encode(3), None)
        assert decider.pick_branch_variable() == 2
        for lit in trail.backtrack(0):
            decider.requeue(lit >> 1)
        assert decider.pick_branch_variable() == 3

    def test_phase_saving(self):
        decider = self.make(2)
        decider.save_phase(2, False)
        assert decider.pick_branch_literal() == encode(-2)

    def test_rephase_styles(self):
        decider = self.make(2)
        decider.rephase("inverted", initial_phase=True)
        assert decider.saved_phase[1] is False
        decider.rephase("original", initial_phase=True)
        assert decider.saved_phase[1] is True
        with pytest.raises(ValueError):
            decider.rephase("nope")


class TestSolverIntegration:
    def test_invalid_heuristic_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(decision_heuristic="magic")

    def test_solves_sat_and_unsat(self):
        config = SolverConfig(decision_heuristic="vmtf")
        sat = random_ksat(30, 110, seed=2)
        result = Solver(sat, config=config).solve()
        if result.is_sat:
            assert sat.check_model(result.model)
        unsat = CNF([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert Solver(unsat, config=config).solve().status is Status.UNSATISFIABLE

    def test_vmtf_and_vsids_agree_on_status(self):
        for seed in range(4):
            cnf = random_ksat(25, 105, seed=seed)
            vsids = Solver(cnf, config=SolverConfig(decision_heuristic="vsids")).solve()
            vmtf = Solver(cnf, config=SolverConfig(decision_heuristic="vmtf")).solve()
            assert vsids.status is vmtf.status


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_vmtf_matches_oracle(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 9)
    m = rng.randint(1, 32)
    cnf = random_ksat(n, m, k=min(3, n), seed=seed)
    config = SolverConfig(decision_heuristic="vmtf", luby_base=5)
    result = Solver(cnf, config=config).solve()
    assert result.status is brute_force_status(cnf)
    if result.is_sat:
        assert cnf.check_model(result.model)
