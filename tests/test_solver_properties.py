"""Property-based tests (hypothesis) for the CDCL solver and substrates.

The central invariant: on any small formula, the CDCL solver — under any
deletion policy and any restart mode — agrees with an independent
brute-force oracle, returns only verified models, and emits checkable
UNSAT proofs.
"""

from hypothesis import given, settings, strategies as st

from repro.cnf import CNF
from repro.policies import DefaultPolicy, FrequencyPolicy
from repro.solver import (
    ProofLog,
    Solver,
    SolverConfig,
    Status,
    brute_force_status,
    check_drat,
    dpll_solve,
)


@st.composite
def small_cnfs(draw, max_vars: int = 8, max_clauses: int = 24, max_len: int = 4):
    """Random small CNFs, including empty clauses and duplicate literals."""
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    num_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(literal, min_size=0, max_size=max_len),
            min_size=num_clauses,
            max_size=num_clauses,
        )
    )
    return CNF(clauses, num_vars=num_vars)


@settings(max_examples=120, deadline=None)
@given(small_cnfs())
def test_cdcl_matches_brute_force(cnf):
    expected = brute_force_status(cnf)
    result = Solver(cnf).solve()
    assert result.status is expected
    if result.status is Status.SATISFIABLE:
        assert cnf.check_model(result.model)


@settings(max_examples=60, deadline=None)
@given(small_cnfs())
def test_policies_agree_on_status(cnf):
    default = Solver(cnf, policy=DefaultPolicy()).solve()
    frequency = Solver(cnf, policy=FrequencyPolicy()).solve()
    assert default.status is frequency.status


@settings(max_examples=60, deadline=None)
@given(small_cnfs())
def test_frequent_restarts_match_brute_force(cnf):
    # A tiny Luby unit forces restarts even on these small formulas.
    expected = brute_force_status(cnf)
    result = Solver(cnf, config=SolverConfig(luby_base=5)).solve()
    assert result.status is expected
    if result.status is Status.SATISFIABLE:
        assert cnf.check_model(result.model)


@settings(max_examples=60, deadline=None)
@given(small_cnfs())
def test_unsat_proofs_check(cnf):
    proof = ProofLog()
    result = Solver(cnf, proof=proof).solve()
    if result.status is Status.UNSATISFIABLE:
        assert check_drat(cnf, proof.text())


@settings(max_examples=60, deadline=None)
@given(small_cnfs())
def test_dpll_oracle_agrees_with_brute_force(cnf):
    # Cross-check the two oracles against each other.
    assert dpll_solve(cnf)[0] is brute_force_status(cnf)


@settings(max_examples=40, deadline=None)
@given(small_cnfs(), st.integers(min_value=1, max_value=8))
def test_assumptions_consistent_with_conditioning(cnf, var):
    """Solving with assumption v == adding the unit clause [v]."""
    if var > cnf.num_vars:
        var = cnf.num_vars
    assumed = Solver(cnf).solve(assumptions=[var])
    conditioned = CNF([list(c.literals) for c in cnf.clauses] + [[var]])
    direct = Solver(conditioned).solve()
    assert assumed.status is direct.status


@settings(max_examples=40, deadline=None)
@given(small_cnfs())
def test_aggressive_reduction_is_sound(cnf):
    """Deleting learned clauses never changes the answer."""
    config = SolverConfig(
        reduce_interval=1, reduce_interval_growth=0,
        reduce_fraction=1.0, protect_used=False, keep_glue=0,
    )
    assert Solver(cnf, config=config).solve().status is brute_force_status(cnf)


@settings(max_examples=50, deadline=None)
@given(small_cnfs())
def test_budget_exhaustion_never_misreports(cnf):
    """A budgeted run may say UNKNOWN but never the wrong decided answer."""
    result = Solver(cnf).solve(max_conflicts=2)
    if result.status is not Status.UNKNOWN:
        assert result.status is brute_force_status(cnf)
