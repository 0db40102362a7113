"""Tests for the CNF instance generators (determinism, structure, status)."""

import pytest

from repro.cnf import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    cardinality_conflict,
    community_sat,
    graph_coloring,
    parity_chain,
    pigeonhole,
    random_ksat,
)
from repro.solver import Status, dpll_solve


class TestRandomKsat:
    def test_shape(self):
        cnf = random_ksat(20, 50, k=3, seed=0)
        assert cnf.num_vars == 20
        assert cnf.num_clauses == 50
        assert all(len(c) == 3 for c in cnf.clauses)

    def test_deterministic_per_seed(self):
        a = random_ksat(15, 40, seed=7)
        b = random_ksat(15, 40, seed=7)
        assert [c.literals for c in a.clauses] == [c.literals for c in b.clauses]

    def test_different_seeds_differ(self):
        a = random_ksat(15, 40, seed=1)
        b = random_ksat(15, 40, seed=2)
        assert [c.literals for c in a.clauses] != [c.literals for c in b.clauses]

    def test_distinct_variables_within_clause(self):
        cnf = random_ksat(10, 100, seed=3)
        for clause in cnf.clauses:
            variables = [abs(lit) for lit in clause.literals]
            assert len(set(variables)) == len(variables)

    def test_rejects_too_few_variables(self):
        with pytest.raises(ValueError):
            random_ksat(2, 5, k=3)


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [1, 2, 3, 4])
    def test_unsatisfiable(self, holes):
        status, _ = dpll_solve(pigeonhole(holes))
        assert status is Status.UNSATISFIABLE

    def test_clause_counts(self):
        holes = 3
        cnf = pigeonhole(holes)
        pigeons = holes + 1
        expected = pigeons + holes * (pigeons * (pigeons - 1)) // 2
        assert cnf.num_clauses == expected
        assert cnf.num_vars == pigeons * holes

    def test_rejects_zero_holes(self):
        with pytest.raises(ValueError):
            pigeonhole(0)


class TestGraphColoring:
    def test_gnp_structure(self):
        cnf = graph_coloring(6, 3, edge_prob=1.0, seed=0)
        # Complete graph K6 is not 3-colourable.
        status, _ = dpll_solve(cnf)
        assert status is Status.UNSATISFIABLE

    def test_empty_graph_colorable(self):
        cnf = graph_coloring(5, 2, edge_prob=0.0, seed=0)
        status, _ = dpll_solve(cnf)
        assert status is Status.SATISFIABLE

    def test_flat_mode_always_satisfiable(self):
        for seed in range(3):
            cnf = graph_coloring(15, 3, edge_prob=2.0, seed=seed, mode="flat")
            status, _ = dpll_solve(cnf)
            assert status is Status.SATISFIABLE

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            graph_coloring(5, 2, mode="weird")

    def test_rejects_zero_colors(self):
        with pytest.raises(ValueError):
            graph_coloring(5, 0)


class TestParityChain:
    def test_contradiction_is_unsat(self):
        for seed in range(3):
            cnf = parity_chain(6, seed=seed, contradiction=True)
            status, _ = dpll_solve(cnf)
            assert status is Status.UNSATISFIABLE

    def test_agreement_is_sat(self):
        for seed in range(3):
            cnf = parity_chain(6, seed=seed, contradiction=False)
            status, _ = dpll_solve(cnf)
            assert status is Status.SATISFIABLE

    def test_deterministic(self):
        a = parity_chain(8, seed=4)
        b = parity_chain(8, seed=4)
        assert [c.literals for c in a.clauses] == [c.literals for c in b.clauses]

    def test_invalid_parity_rejected(self):
        with pytest.raises(ValueError):
            parity_chain(6, parity=2)

    def test_too_few_vars_rejected(self):
        with pytest.raises(ValueError):
            parity_chain(1)


class TestCommunitySat:
    def test_variable_count(self):
        cnf = community_sat(4, 10, 20, seed=0)
        assert cnf.num_vars == 40

    def test_intra_community_clauses_stay_local(self):
        cnf = community_sat(3, 10, 30, inter_clause_fraction=0.0, seed=1)
        for clause in cnf.clauses:
            communities = {(abs(lit) - 1) // 10 for lit in clause.literals}
            assert len(communities) == 1

    def test_rejects_tiny_communities(self):
        with pytest.raises(ValueError):
            community_sat(2, 2, 5, k=3)


class TestCardinalityConflict:
    def test_overconstrained_unsat(self):
        cnf = cardinality_conflict(8, overconstrained=True, seed=0)
        status, _ = dpll_solve(cnf)
        assert status is Status.UNSATISFIABLE

    def test_relaxed_sat(self):
        cnf = cardinality_conflict(8, overconstrained=False, seed=0)
        status, _ = dpll_solve(cnf)
        assert status is Status.SATISFIABLE

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            cardinality_conflict(2)


class TestFamilyRegistry:
    def test_all_families_registered(self):
        assert set(GENERATOR_FAMILIES) == {
            "random_ksat",
            "pigeonhole",
            "graph_coloring",
            "parity_chain",
            "community_sat",
            "cardinality_conflict",
        }

    def test_spec_build_and_name(self):
        spec = GeneratorSpec("pigeonhole", (("holes", 3),), seed=0)
        cnf = spec.build()
        assert cnf.num_vars == 12
        assert "pigeonhole" in spec.name
