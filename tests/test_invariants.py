"""Cross-cutting invariants tying subsystems together."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, random_ksat
from repro.graph import BipartiteGraph
from repro.nn import Tensor
from repro.policies import DefaultPolicy, FrequencyPolicy
from repro.solver import Solver, Status
from repro.solver.arena import ClauseArena


def arena_clause(lits, glue):
    """A learned clause as policies see it: an arena view."""
    arena = ClauseArena()
    return arena.view(arena.add_learned(list(lits), glue))


class TestSolverAccountingInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_propagations_equal_lifetime_frequency_sum(self, seed):
        """stats.propagations must equal the per-variable counter total."""
        cnf = random_ksat(40, 170, seed=seed)
        solver = Solver(cnf)
        result = solver.solve()
        assert result.stats.propagations == sum(
            solver.propagator.lifetime_frequency
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_decisions_plus_propagations_cover_trail_on_sat(self, seed):
        cnf = random_ksat(30, 100, seed=seed)  # under-constrained: SAT
        solver = Solver(cnf)
        result = solver.solve()
        if result.status is Status.SATISFIABLE:
            # Every assigned variable got there by decision, propagation,
            # or a level-0 unit from the input; there are no other routes.
            assigned = solver.trail.num_assigned()
            level0_units = sum(
                1 for c in cnf.clauses if len(c) == 1
            )
            assert assigned <= (
                result.stats.decisions + result.stats.propagations + level0_units
            )

    def test_learned_clause_count_matches_db_plus_deleted_and_units(self):
        from repro.selection.labeling import default_labeling_config

        cnf = random_ksat(120, 510, seed=3)
        solver = Solver(cnf, config=default_labeling_config())
        result = solver.solve(max_conflicts=3000)
        stats = result.stats
        live_learned = solver.clause_db.num_learned
        # learned = live + deleted + unit-learned (never enter the DB).
        assert stats.learned_clauses >= live_learned + stats.deleted_clauses
        # Every conflict learns exactly one clause, except a final
        # level-0 conflict, which ends the search instead.
        final_conflict = 1 if result.status is Status.UNSATISFIABLE else 0
        assert stats.conflicts == stats.learned_clauses + final_conflict


class TestGraphInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_edges_equal_literal_occurrences(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(3, 12)
        m = rng.randint(1, 30)
        cnf = random_ksat(n, m, k=min(3, n), seed=seed)
        graph = BipartiteGraph(cnf)
        assert graph.num_edges == cnf.num_literals
        assert graph.edge_weight.sum() == sum(
            1 if lit > 0 else -1 for c in cnf.clauses for lit in c.literals
        )

    def test_degree_sums_match_edges(self):
        cnf = random_ksat(10, 30, seed=1)
        graph = BipartiteGraph(cnf)
        # Degrees are floored at 1 for isolated nodes; with no isolated
        # nodes here the sums match exactly.
        assert graph.var_degree.sum() >= graph.num_edges
        assert graph.clause_degree.sum() == graph.num_edges


class TestPolicyScoreInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=2, max_value=30),
    )
    def test_default_policy_total_order_matches_lexicographic(
        self, glue_a, glue_b, size_a, size_b
    ):
        policy = DefaultPolicy()
        a = arena_clause(range(2, 2 + 2 * size_a, 2), glue=glue_a)
        b = arena_clause(range(2, 2 + 2 * size_b, 2), glue=glue_b)
        score_a = policy.score(a, [], 0)
        score_b = policy.score(b, [], 0)
        # Lexicographic on (glue asc, size asc): lower is better = higher score.
        expected = (glue_a, size_a) < (glue_b, size_b)
        if (glue_a, size_a) == (glue_b, size_b):
            assert score_a == score_b
        else:
            assert (score_a > score_b) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=23))
    def test_frequency_only_breaks_ties(self, freq_count):
        """Frequency differences can never override a glue difference."""
        policy = FrequencyPolicy()
        hot_vars = list(range(1, freq_count + 2))
        frequency = [0] * 40
        for v in hot_vars:
            frequency[v] = 100
        hot = arena_clause([2 * v for v in hot_vars[:3]] + [60, 62], glue=5)
        cold = arena_clause([50, 52, 54, 56, 58], glue=4)
        assert policy.score(cold, frequency, 100) > policy.score(hot, frequency, 100)


class TestTensorNumpyParity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_pointwise_ops_match_numpy(self, values):
        x = np.asarray(values)
        t = Tensor(x)
        np.testing.assert_allclose(t.tanh().data, np.tanh(x))
        np.testing.assert_allclose(t.exp().data, np.exp(x))
        np.testing.assert_allclose(
            t.sigmoid().data, 1.0 / (1.0 + np.exp(-x)), atol=1e-12
        )
        np.testing.assert_allclose(t.relu().data, np.maximum(x, 0.0))
