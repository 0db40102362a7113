"""Regression corpus: crafted DIMACS corner cases swept through the stack.

Every file in ``tests/data`` is parsed, solved under both deletion
policies (cross-checked against the brute-force oracle), and — when
UNSAT — certified via DRAT.  New corner cases go in as new files; the
sweep picks them up automatically.
"""

from pathlib import Path

import pytest

from repro.cnf import parse_dimacs_file, to_dimacs, parse_dimacs
from repro.policies import DefaultPolicy, FrequencyPolicy
from repro.solver import ProofLog, Solver, Status, brute_force_status, check_drat

DATA_DIR = Path(__file__).parent / "data"
CORPUS = sorted(DATA_DIR.glob("*.cnf"))

EXPECTED = {
    "trivial_sat.cnf": Status.SATISFIABLE,
    "trivial_unsat.cnf": Status.UNSATISFIABLE,
    "empty_formula.cnf": Status.SATISFIABLE,
    "all_tautologies.cnf": Status.SATISFIABLE,
    "duplicate_clauses.cnf": Status.UNSATISFIABLE,
    "multiline_clause.cnf": Status.SATISFIABLE,
    "header_overstates_vars.cnf": Status.SATISFIABLE,
    "big_clause.cnf": Status.SATISFIABLE,
    "percent_terminated.cnf": Status.SATISFIABLE,
    "binary_chain.cnf": Status.SATISFIABLE,
}


def test_corpus_is_covered():
    """Every corpus file has an expectation and vice versa."""
    assert {p.name for p in CORPUS} == set(EXPECTED)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_expected_status_matches_oracle(path):
    cnf = parse_dimacs_file(path)
    assert brute_force_status(cnf) is EXPECTED[path.name]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
@pytest.mark.parametrize("policy", [DefaultPolicy, FrequencyPolicy])
def test_solver_on_corpus(path, policy):
    cnf = parse_dimacs_file(path)
    result = Solver(cnf, policy=policy()).solve()
    assert result.status is EXPECTED[path.name]
    if result.is_sat:
        assert cnf.check_model(result.model)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_unsat_corpus_certified(path):
    if EXPECTED[path.name] is not Status.UNSATISFIABLE:
        pytest.skip("only UNSAT instances carry proofs")
    cnf = parse_dimacs_file(path)
    proof = ProofLog()
    result = Solver(cnf, proof=proof).solve()
    assert result.is_unsat
    assert check_drat(cnf, proof.text())


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_round_trip_stability(path):
    """parse -> serialize -> parse keeps clauses (sans tautology policy)."""
    cnf = parse_dimacs_file(path)
    reparsed = parse_dimacs(to_dimacs(cnf))
    assert [c.literals for c in reparsed.clauses] == [
        c.literals for c in cnf.clauses
    ]
    assert reparsed.num_vars == cnf.num_vars


def test_binary_chain_propagates_without_decisions():
    cnf = parse_dimacs_file(DATA_DIR / "binary_chain.cnf")
    result = Solver(cnf).solve()
    assert result.stats.decisions == 0
    assert result.stats.propagations >= 7
    assert all(result.model[v] for v in range(1, 9))


def test_big_clause_forces_last_literal():
    cnf = parse_dimacs_file(DATA_DIR / "big_clause.cnf")
    result = Solver(cnf).solve()
    assert result.model[12] is True
    assert all(result.model[v] is False for v in range(1, 12))
