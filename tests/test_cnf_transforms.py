"""Tests for CNF transformations and solver metamorphic properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, random_ksat
from repro.cnf.transforms import (
    augment,
    compact_variables,
    flip_polarity,
    rename_variables,
    shuffle_clauses,
)
from repro.solver import Solver, Status, brute_force_status


class TestShuffle:
    def test_same_clause_multiset(self):
        cnf = random_ksat(10, 30, seed=0)
        shuffled = shuffle_clauses(cnf, seed=1)
        assert sorted(map(sorted, (c.literals for c in cnf.clauses))) == sorted(
            map(sorted, (c.literals for c in shuffled.clauses))
        )

    def test_order_changes(self):
        cnf = random_ksat(10, 30, seed=0)
        shuffled = shuffle_clauses(cnf, seed=1)
        assert [c.literals for c in cnf.clauses] != [
            c.literals for c in shuffled.clauses
        ]


class TestRename:
    def test_explicit_mapping(self):
        cnf = CNF([[1, -2]])
        renamed = rename_variables(cnf, mapping={1: 2, 2: 1})
        assert renamed.clauses[0].literals == (2, -1)

    def test_random_mapping_is_permutation(self):
        cnf = random_ksat(12, 30, seed=0)
        renamed = rename_variables(cnf, seed=3)
        assert renamed.variables() <= set(range(1, 13))
        assert renamed.num_literals == cnf.num_literals

    def test_non_permutation_rejected(self):
        cnf = CNF([[1, 2]])
        with pytest.raises(ValueError):
            rename_variables(cnf, mapping={1: 1, 2: 1})

    def test_model_maps_back(self):
        cnf = random_ksat(8, 24, seed=2)
        mapping = {v: (v % 8) + 1 for v in range(1, 9)}
        renamed = rename_variables(cnf, mapping=mapping)
        result = Solver(renamed).solve()
        if result.status is Status.SATISFIABLE:
            original_model = [None] + [
                result.model[mapping[v]] for v in range(1, cnf.num_vars + 1)
            ]
            assert cnf.check_model(original_model)


class TestFlip:
    def test_explicit_flip(self):
        cnf = CNF([[1, -2], [2]])
        flipped = flip_polarity(cnf, variables=[2])
        assert flipped.clauses[0].literals == (1, 2)
        assert flipped.clauses[1].literals == (-2,)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flip_polarity(CNF([[1]]), variables=[5])

    def test_flip_twice_is_identity(self):
        cnf = random_ksat(8, 20, seed=1)
        twice = flip_polarity(flip_polarity(cnf, variables=[1, 3]), variables=[1, 3])
        assert [c.literals for c in twice.clauses] == [
            c.literals for c in cnf.clauses
        ]


class TestCompact:
    def test_gaps_removed(self):
        cnf = CNF([[2, -9], [9, 40]])
        compacted = compact_variables(cnf)
        assert compacted.num_vars == 3
        assert compacted.variables() == {1, 2, 3}

    def test_status_preserved(self):
        cnf = CNF([[5], [-5]])
        assert brute_force_status(compact_variables(cnf)) is Status.UNSATISFIABLE


@st.composite
def small_cnfs(draw, max_vars=7, max_clauses=16):
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(st.lists(literal, min_size=1, max_size=4), max_size=max_clauses)
    )
    return CNF(clauses, num_vars=num_vars)


@settings(max_examples=60, deadline=None)
@given(small_cnfs(), st.integers(min_value=0, max_value=1000))
def test_property_augmentation_preserves_status(cnf, seed):
    """Metamorphic: solver status is invariant under all CNF symmetries."""
    original = brute_force_status(cnf)
    transformed = augment(cnf, seed=seed)
    assert Solver(transformed).solve().status is original


@settings(max_examples=40, deadline=None)
@given(small_cnfs(), st.integers(min_value=0, max_value=1000))
def test_property_rename_roundtrip_model(cnf, seed):
    renamed = rename_variables(cnf, seed=seed)
    result = Solver(renamed).solve()
    assert result.status is brute_force_status(cnf)
