"""Integration tests for the full CDCL solver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cnf import CNF, parity_chain, pigeonhole, random_ksat
from repro.policies import DefaultPolicy, FrequencyPolicy, get_policy
from repro.solver import (
    ProofLog,
    Solver,
    SolverConfig,
    Status,
    check_drat,
    dpll_solve,
    solve,
)

SRC = Path(__file__).resolve().parent.parent / "src"
_REDUCE_STRESS = SolverConfig(reduce_interval=50, reduce_interval_growth=20)

PINNED_INSTANCES = {
    "ksat120-s2": (lambda: random_ksat(120, 510, seed=2), None),
    "ksat150-s1": (lambda: random_ksat(150, 640, seed=1), None),
    "php7": (lambda: pigeonhole(7), None),
    "ksat120-s2-stress": (lambda: random_ksat(120, 510, seed=2), _REDUCE_STRESS),
    "php7-stress": (lambda: pigeonhole(7), _REDUCE_STRESS),
}

#: (status, conflicts, propagations, decisions, restarts, reductions) at a
#: 1500-conflict cap.  Recorded while the solver still carried its unused
#: alternative deciders and restart modes; cutting them left these equal.
PINNED_SEARCH = {
    ("ksat120-s2", "default"): ("UNSATISFIABLE", 932, 30385, 1084, 6, 2),
    ("ksat120-s2", "frequency"): ("UNSATISFIABLE", 932, 30385, 1084, 6, 2),
    ("ksat150-s1", "default"): ("SATISFIABLE", 1302, 51492, 1610, 8, 3),
    ("ksat150-s1", "frequency"): ("SATISFIABLE", 1302, 51492, 1610, 8, 3),
    ("php7", "default"): ("UNKNOWN", 1500, 23104, 1916, 9, 3),
    ("php7", "frequency"): ("UNKNOWN", 1500, 23104, 1916, 9, 3),
    ("ksat120-s2-stress", "default"): ("UNSATISFIABLE", 899, 29901, 1058, 6, 7),
    ("ksat120-s2-stress", "frequency"): ("UNSATISFIABLE", 1007, 32764, 1197, 6, 8),
    ("php7-stress", "default"): ("UNKNOWN", 1500, 25096, 1952, 9, 10),
    ("php7-stress", "frequency"): ("UNKNOWN", 1500, 23942, 1955, 9, 10),
}


class TestBasicSolving:
    def test_satisfiable_returns_valid_model(self, simple_sat_cnf):
        result = Solver(simple_sat_cnf).solve()
        assert result.status is Status.SATISFIABLE
        assert simple_sat_cnf.check_model(result.model)

    def test_unsatisfiable(self, simple_unsat_cnf):
        result = Solver(simple_unsat_cnf).solve()
        assert result.status is Status.UNSATISFIABLE
        assert result.model is None

    def test_empty_formula_is_sat(self):
        result = Solver(CNF()).solve()
        assert result.status is Status.SATISFIABLE

    def test_empty_clause_is_unsat(self):
        result = Solver(CNF([[]])).solve()
        assert result.status is Status.UNSATISFIABLE

    def test_contradictory_units(self):
        result = Solver(CNF([[1], [-1]])).solve()
        assert result.status is Status.UNSATISFIABLE

    def test_single_unit(self):
        result = Solver(CNF([[-3]])).solve()
        assert result.status is Status.SATISFIABLE
        assert result.model[3] is False

    def test_tautologies_ignored(self):
        result = Solver(CNF([[1, -1], [2]])).solve()
        assert result.status is Status.SATISFIABLE
        assert result.model[2] is True

    def test_unused_variables_get_default_phase(self):
        cnf = CNF([[1]], num_vars=5)
        result = Solver(cnf).solve()
        assert result.model[5] is True

    def test_solve_helper(self, simple_sat_cnf):
        assert solve(simple_sat_cnf).status is Status.SATISFIABLE

    def test_result_flags(self, simple_sat_cnf, simple_unsat_cnf):
        assert Solver(simple_sat_cnf).solve().is_sat
        assert Solver(simple_unsat_cnf).solve().is_unsat

    def test_model_check_is_not_an_assert(self):
        """A bogus model raises even under ``python -O``."""
        script = (
            "from repro.cnf import CNF\n"
            "from repro.solver import Solver\n"
            "CNF.check_model = lambda self, model: False\n"
            "try:\n"
            "    Solver(CNF([[1, 2], [-1]])).solve()\n"
            "except RuntimeError as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised internal error: bogus model")


class TestHarderInstances:
    @pytest.mark.parametrize("holes", [3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        result = Solver(pigeonhole(holes)).solve()
        assert result.status is Status.UNSATISFIABLE
        assert result.stats.conflicts > 0

    def test_parity_contradiction(self):
        cnf = parity_chain(8, seed=1, contradiction=True)
        assert Solver(cnf).solve().status is Status.UNSATISFIABLE

    @pytest.mark.parametrize("seed", range(5))
    def test_differential_vs_dpll(self, seed):
        cnf = random_ksat(25, 105, seed=seed)
        expected, _ = dpll_solve(cnf)
        for policy in (DefaultPolicy(), FrequencyPolicy()):
            result = Solver(cnf, policy=policy).solve()
            assert result.status is expected
            if result.is_sat:
                assert cnf.check_model(result.model)

    def test_exercises_reduction(self):
        cnf = random_ksat(120, 510, seed=3)
        config = SolverConfig(reduce_interval=50, reduce_interval_growth=20)
        result = Solver(cnf, config=config).solve(max_conflicts=5000)
        assert result.stats.reductions > 0
        assert result.stats.deleted_clauses > 0

    def test_exercises_restarts(self):
        cnf = pigeonhole(6)
        config = SolverConfig(luby_base=20)
        result = Solver(cnf, config=config).solve()
        assert result.status is Status.UNSATISFIABLE
        assert result.stats.restarts > 0

    def test_deterministic_replay(self):
        cnf = random_ksat(60, 255, seed=9)
        r1 = Solver(cnf).solve()
        r2 = Solver(cnf).solve()
        assert r1.status is r2.status
        assert r1.stats.propagations == r2.stats.propagations
        assert r1.stats.conflicts == r2.stats.conflicts

    @pytest.mark.parametrize(
        "instance, policy", sorted(PINNED_SEARCH), ids=lambda v: str(v)
    )
    def test_default_search_path_is_pinned(self, instance, policy):
        """Exact effort counters of the one search path, frozen.

        Any change to decisions, propagation order, restarts or
        reduction shows up here; a deliberate change must re-record
        the table (and say why).
        """
        make_cnf, config = PINNED_INSTANCES[instance]
        result = Solver(
            make_cnf(), policy=get_policy(policy), config=config
        ).solve(max_conflicts=1500)
        stats = result.stats
        observed = (
            result.status.name,
            stats.conflicts,
            stats.propagations,
            stats.decisions,
            stats.restarts,
            stats.reductions,
        )
        assert observed == PINNED_SEARCH[instance, policy]


class TestBudgets:
    def test_conflict_budget(self):
        cnf = pigeonhole(7)
        result = Solver(cnf).solve(max_conflicts=10)
        assert result.status is Status.UNKNOWN
        assert result.stats.conflicts <= 11

    def test_propagation_budget(self):
        cnf = pigeonhole(7)
        result = Solver(cnf).solve(max_propagations=100)
        assert result.status is Status.UNKNOWN

    def test_decision_budget(self):
        cnf = random_ksat(50, 210, seed=0)
        result = Solver(cnf).solve(max_decisions=3)
        assert result.status is Status.UNKNOWN

    def test_budget_none_means_unbounded(self, simple_sat_cnf):
        result = Solver(simple_sat_cnf).solve(max_conflicts=None)
        assert result.status is Status.SATISFIABLE


class TestAssumptions:
    def test_assumption_forces_polarity(self, simple_sat_cnf):
        result = Solver(simple_sat_cnf).solve(assumptions=[1])
        assert result.status is Status.SATISFIABLE
        assert result.model[1] is True

    def test_conflicting_assumptions_unsat(self, simple_sat_cnf):
        result = Solver(simple_sat_cnf).solve(assumptions=[1, 3])
        # x1 and x3 true violates (~x1 | ~x3).
        assert result.status is Status.UNSATISFIABLE

    def test_assumption_against_unit(self):
        cnf = CNF([[1], [2, 3]])
        result = Solver(cnf).solve(assumptions=[-1])
        assert result.status is Status.UNSATISFIABLE

    def test_unknown_assumption_variable_rejected(self, simple_sat_cnf):
        with pytest.raises(ValueError):
            Solver(simple_sat_cnf).solve(assumptions=[99])

    def test_solver_reusable_across_assumption_calls(self, simple_sat_cnf):
        solver = Solver(simple_sat_cnf)
        assert solver.solve(assumptions=[1]).status is Status.SATISFIABLE
        # Note: incremental reuse keeps learned clauses; formula unchanged.
        assert solver.solve(assumptions=[-1]).status is Status.SATISFIABLE


class TestProofLogging:
    def test_unsat_proof_checks(self, php3):
        proof = ProofLog()
        result = Solver(php3, proof=proof).solve()
        assert result.status is Status.UNSATISFIABLE
        assert check_drat(php3, proof.text())

    def test_proof_with_deletions_checks(self):
        cnf = random_ksat(60, 280, seed=11)
        proof = ProofLog()
        config = SolverConfig(reduce_interval=50, reduce_interval_growth=10)
        result = Solver(cnf, policy=FrequencyPolicy(), config=config, proof=proof).solve()
        if result.status is Status.UNSATISFIABLE:
            assert proof.deletions > 0
            assert check_drat(cnf, proof.text())

    def test_proof_file_backend(self, tmp_path, php3):
        path = tmp_path / "proof.drat"
        with ProofLog(path) as proof:
            Solver(php3, proof=proof).solve()
        text = path.read_text()
        assert text.strip().endswith("0")
        assert check_drat(php3, text)


class TestStatistics:
    def test_counters_populated(self):
        cnf = random_ksat(40, 170, seed=2)
        result = Solver(cnf).solve()
        stats = result.stats
        assert stats.decisions > 0
        assert stats.propagations > 0
        if stats.conflicts:
            assert stats.learned_clauses > 0
            assert stats.mean_glue() > 0
            assert stats.mean_learned_size() > 0

    def test_to_dict_includes_derived(self):
        cnf = random_ksat(20, 85, seed=1)
        stats = Solver(cnf).solve().stats
        d = stats.to_dict()
        assert "mean_glue" in d and "propagations" in d

    def test_reset(self):
        cnf = random_ksat(20, 85, seed=1)
        stats = Solver(cnf).solve().stats
        stats.reset()
        assert stats.propagations == 0 and stats.conflicts == 0


class TestConfig:
    def test_invalid_luby_base_rejected(self):
        # A zero unit restarted after every decision and never reached
        # a conflict, so even a conflict budget could not stop it.
        for base in (0, -1):
            with pytest.raises(ValueError, match="luby_base"):
                SolverConfig(luby_base=base)

    def test_policy_name_propagates_to_result(self, simple_sat_cnf):
        result = Solver(simple_sat_cnf, policy=FrequencyPolicy()).solve()
        assert result.policy_name == "frequency"
