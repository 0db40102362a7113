"""Tests for the cardinality-constraint encodings."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF
from repro.cnf.encodings import at_most_k
from repro.solver import Solver, Status


def count_models_projected(cnf, num_inputs):
    """Count satisfying assignments projected onto the first variables."""
    models = set()
    for bits in itertools.product([False, True], repeat=num_inputs):
        assumptions = [
            (i + 1) if value else -(i + 1) for i, value in enumerate(bits)
        ]
        result = Solver(cnf, ).solve(assumptions=assumptions)
        if result.status is Status.SATISFIABLE:
            models.add(bits)
    return models


class TestAtMostK:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
    def test_exactly_the_right_assignments(self, n, k):
        literals = list(range(1, n + 1))
        clauses, _ = at_most_k(literals, k, n + 1)
        cnf = CNF(clauses, num_vars=n)
        models = count_models_projected(cnf, n)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=n)
            if sum(bits) <= k
        }
        assert models == expected

    def test_k_ge_n_is_free(self):
        clauses, nxt = at_most_k([1, 2], 5, 3)
        assert clauses == [] and nxt == 3

    def test_k_zero_forces_all_false(self):
        clauses, _ = at_most_k([1, 2], 0, 3)
        assert sorted(map(tuple, clauses)) == [(-2,), (-1,)]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            at_most_k([1], -1, 2)

    def test_next_var_validation(self):
        with pytest.raises(ValueError):
            at_most_k([1, 5], 1, 3)

    def test_works_on_negative_literals(self):
        # at most 1 of {~1, ~2, ~3} false... i.e. at least 2 of x true.
        clauses, _ = at_most_k([-1, -2, -3], 1, 4)
        cnf = CNF(clauses, num_vars=3)
        models = count_models_projected(cnf, 3)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=3)
            if sum(not b for b in bits) <= 1
        }
        assert models == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
def test_property_at_most_k_model_counts(n, k):
    """Projected model count equals the binomial-sum prediction."""
    literals = list(range(1, n + 1))
    clauses, _ = at_most_k(literals, k, n + 1)
    cnf = CNF(clauses, num_vars=n)
    models = count_models_projected(cnf, n)
    expected = sum(
        1
        for bits in itertools.product([False, True], repeat=n)
        if sum(bits) <= k
    )
    assert len(models) == expected
