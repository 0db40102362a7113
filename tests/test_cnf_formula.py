"""Unit tests for the CNF data model."""

import pytest

from repro.cnf import CNF, Clause


class TestClause:
    def test_deduplicates_literals_preserving_order(self):
        clause = Clause([3, -1, 3, 2, -1])
        assert clause.literals == (3, -1, 2)

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            Clause([1, 0, 2])

    def test_length_and_iteration(self):
        clause = Clause([1, -2, 3])
        assert len(clause) == 3
        assert list(clause) == [1, -2, 3]
        assert -2 in clause
        assert 2 not in clause

    def test_equality_is_set_based(self):
        assert Clause([1, 2]) == Clause([2, 1])
        assert Clause([1, 2]) != Clause([1, -2])
        assert hash(Clause([1, 2])) == hash(Clause([2, 1]))

    def test_tautology_detection(self):
        assert Clause([1, -1, 2]).is_tautology()
        assert not Clause([1, 2]).is_tautology()

    def test_unit_and_empty(self):
        assert len(Clause([5])) == 1
        assert not Clause([5]).is_empty()
        assert Clause([]).is_empty()

    def test_variables(self):
        assert Clause([-3, 1, -2]).variables == (3, 1, 2)


class TestCNF:
    def test_num_vars_inferred_from_clauses(self):
        cnf = CNF([[1, -5], [2, 3]])
        assert cnf.num_vars == 5
        assert cnf.num_clauses == 2
        assert cnf.num_literals == 4

    def test_num_vars_header_can_exceed_max_literal(self):
        cnf = CNF([[1, 2]], num_vars=10)
        assert cnf.num_vars == 10

    def test_add_clause_grows_num_vars(self):
        cnf = CNF()
        cnf.add_clause([1, -7])
        assert cnf.num_vars == 7
        assert cnf.num_clauses == 1

    def test_variables_returns_only_used(self):
        cnf = CNF([[1, 3]], num_vars=5)
        assert cnf.variables() == {1, 3}

    def test_evaluate_true_false_none(self):
        cnf = CNF([[1, 2], [-1, 2]])
        assert cnf.evaluate([None, True, True]) is True
        assert cnf.evaluate([None, True, False]) is False
        assert cnf.evaluate([None, None, None]) is None
        # One clause satisfied, other undetermined.
        assert cnf.evaluate([None, None, True]) is True

    def test_evaluate_partial_undetermined(self):
        cnf = CNF([[1, 2]])
        assert cnf.evaluate([None, False, None]) is None

    def test_check_model(self, simple_sat_cnf):
        assert simple_sat_cnf.check_model([None, True, True, True]) is False
        assert simple_sat_cnf.check_model([None, False, True, True]) is True

    def test_has_empty_clause(self):
        assert CNF([[]]).has_empty_clause()
        assert not CNF([[1]]).has_empty_clause()

    def test_simplified_drops_tautologies_and_duplicates(self):
        cnf = CNF([[1, -1], [1, 2], [2, 1], [3]])
        simplified = cnf.simplified()
        assert simplified.num_clauses == 2
        assert Clause([1, 2]) in simplified.clauses
        assert Clause([3]) in simplified.clauses

    def test_copy_is_independent(self):
        cnf = CNF([[1, 2]])
        clone = cnf.copy()
        clone.add_clause([3])
        assert cnf.num_clauses == 1
        assert clone.num_clauses == 2

    def test_repr_mentions_sizes(self):
        assert "num_vars=2" in repr(CNF([[1, 2]]))
