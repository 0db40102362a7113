"""The flat clause form end to end: DIMACS text -> ``CNF`` arrays ->
features -> solver ingest.

The oracle for the parser is the generator: each document is rendered
from a clause list, so the arrays it must parse to follow from the
construction (first occurrences of each clause's literals, in order).
The oracle for the kernel's ``k_ingest`` is the pure-Python ingest of
the same arrays.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, extract_features, parse_dimacs
from repro.cnf.features import FormulaFeatures, _gini
from repro.cnf.formula import MAX_VAR
from repro.solver import ProofLog, Solver, kernel


@st.composite
def clause_lists(draw, max_vars=8, max_clauses=12):
    """Small formulas rich in empty clauses, units, repeated literals and
    tautologies."""
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(st.lists(literal, max_size=6), max_size=max_clauses)
    )
    return num_vars, clauses


def expected_arrays(clauses):
    """``(lits, offsets, tautology)`` as the construction implies them."""
    lits: List[int] = []
    offsets = [0]
    tautology = []
    for clause in clauses:
        kept = list(dict.fromkeys(clause))
        lits += kept
        offsets.append(len(lits))
        tautology.append(any(-lit in kept for lit in kept))
    return lits, offsets, tautology


_SEPARATORS = [" ", "  ", "\t", "\n", " \n ", "\r\n", "\n\n"]
_COMMENT = st.text(alphabet="abc xyz019-", max_size=8)


@st.composite
def documents(draw):
    """A DIMACS rendering of a clause list, and what it must parse to."""
    num_vars, clauses = draw(clause_lists())
    tokens: List[str] = []
    for clause in clauses:
        for lit in clause:
            plus = lit > 0 and draw(st.booleans())
            tokens.append(f"+{lit}" if plus else str(lit))
        tokens.append("0")
    if clauses and clauses[-1] and draw(st.booleans()):
        tokens.pop()  # the last clause may go unterminated

    comments: List[str] = []
    parts: List[str] = []
    for text in draw(st.lists(_COMMENT, max_size=2)):
        parts.append(f"c {text}\n")
        comments.append(text.strip())
    header_vars = draw(st.one_of(st.none(), st.integers(0, num_vars + 3)))
    if header_vars is not None:
        parts.append(f"p cnf {header_vars} {len(clauses)}\n")
    for i, token in enumerate(tokens):
        if i:
            parts.append(draw(st.sampled_from(_SEPARATORS)))
            if draw(st.integers(0, 9)) == 0:  # a comment between two tokens
                text = draw(_COMMENT)
                parts.append(f"\n  c {text}\n")
                comments.append(text.strip())
        parts.append(token)
    if draw(st.booleans()):
        parts.append("\n%\n0\nc not a comment\n1 2 x 0\n")
    else:
        parts.append(draw(st.sampled_from(["", "\n", " \n"])))

    used = max((abs(lit) for clause in clauses for lit in clause), default=0)
    expected_vars = max(header_vars or 0, used)
    return "".join(parts), clauses, expected_vars, comments


@settings(max_examples=300, deadline=None)
@given(documents())
def test_parse_yields_the_arrays_the_construction_implies(document):
    text, clauses, num_vars, comments = document
    cnf = parse_dimacs(text)
    lits, offsets, tautology = expected_arrays(clauses)
    assert cnf.lits.tolist() == lits
    assert cnf.offsets.tolist() == offsets
    assert cnf.tautology.tolist() == tautology
    assert cnf.num_vars == num_vars
    assert cnf.comments == comments
    assert cnf.lits.dtype.name == "int32"
    assert cnf.offsets.dtype.name == "int64"


@settings(max_examples=100, deadline=None)
@given(clause_lists())
def test_constructor_and_add_clause_build_the_same_arrays(case):
    num_vars, clauses = case
    lits, offsets, tautology = expected_arrays(clauses)
    built = CNF(clauses, num_vars=num_vars)
    grown = CNF(num_vars=num_vars)
    for clause in clauses:
        grown.add_clause(clause)
    for cnf in (built, grown, grown.copy()):
        assert cnf.lits.tolist() == lits
        assert cnf.offsets.tolist() == offsets
        assert cnf.tautology.tolist() == tautology
        assert cnf.num_vars == num_vars
        assert [list(c.literals) for c in cnf.clauses] == [
            list(dict.fromkeys(clause)) for clause in clauses
        ]


def test_arrays_are_read_only_views():
    cnf = CNF([[1, -2], [3]])
    for array in (cnf.lits, cnf.offsets, cnf.tautology):
        with pytest.raises(ValueError):
            array[0] = 0


def test_variable_range_is_checked_before_any_sizing():
    assert parse_dimacs(f"p cnf {MAX_VAR} 1\n-{MAX_VAR} 0\n").num_vars == MAX_VAR
    with pytest.raises(ValueError, match="line 2: variable 1073741824 out of range"):
        parse_dimacs("p cnf 1 1\n1 -1073741824 0\n")
    with pytest.raises(ValueError, match="line 1: variable count"):
        parse_dimacs(f"p cnf {MAX_VAR + 1} 0\n")
    with pytest.raises(ValueError, match="out of range"):
        CNF([[MAX_VAR + 1]])
    with pytest.raises(ValueError, match="out of range"):
        CNF(num_vars=MAX_VAR + 1)
    with pytest.raises(ValueError, match="out of range"):
        CNF().add_clause([2**40])


# -- features ---------------------------------------------------------------


def reference_features(num_vars, clauses) -> FormulaFeatures:
    """The per-literal loop over the clause lists."""
    clauses = [list(dict.fromkeys(clause)) for clause in clauses]
    num_clauses = len(clauses)
    sizes = [len(c) for c in clauses]
    num_literals = sum(sizes)
    occurrences = [0] * (num_vars + 1)
    positive = 0
    horn = 0
    for clause in clauses:
        pos_in_clause = 0
        for lit in clause:
            occurrences[abs(lit)] += 1
            if lit > 0:
                positive += 1
                pos_in_clause += 1
        if pos_in_clause <= 1:
            horn += 1
    occ = occurrences[1:]
    ordered = sorted(occ)
    total = sum(ordered)
    if not ordered or total == 0:
        gini = 0.0
    else:
        cum = 0.0
        weighted = 0.0
        for v in ordered:
            cum += v
            weighted += cum
        gini = 1.0 - 2.0 * (weighted - total / 2.0) / (len(ordered) * total)
    return FormulaFeatures(
        num_vars=num_vars,
        num_clauses=num_clauses,
        num_literals=num_literals,
        clause_var_ratio=(num_clauses / num_vars) if num_vars else 0.0,
        mean_clause_size=(num_literals / num_clauses) if num_clauses else 0.0,
        max_clause_size=max(sizes, default=0),
        min_clause_size=min(sizes, default=0),
        binary_fraction=(sizes.count(2) / num_clauses) if num_clauses else 0.0,
        ternary_fraction=(sizes.count(3) / num_clauses) if num_clauses else 0.0,
        horn_fraction=(horn / num_clauses) if num_clauses else 0.0,
        positive_literal_fraction=(positive / num_literals) if num_literals else 0.0,
        mean_var_occurrence=(num_literals / num_vars) if num_vars else 0.0,
        max_var_occurrence=max(occ, default=0),
        var_occurrence_gini=gini,
    )


@settings(max_examples=200, deadline=None)
@given(clause_lists(max_vars=12, max_clauses=30))
def test_features_from_arrays_match_the_clause_loop_exactly(case):
    num_vars, clauses = case
    features = extract_features(CNF(clauses, num_vars=num_vars))
    expected = reference_features(num_vars, clauses)
    assert features == expected
    assert [type(v) for v in features.to_dict().values()] == [
        type(v) for v in expected.to_dict().values()
    ]


def test_gini_partial_sums_stay_exact_on_large_counts():
    values = [10**9, 3 * 10**9, 1, 0, 7 * 10**8]
    ordered = sorted(values)
    weighted = sum(sum(ordered[: i + 1]) for i in range(len(ordered)))
    total = sum(values)
    expected = 1.0 - 2.0 * (weighted - total / 2.0) / (len(values) * total)
    assert _gini(values) == expected


# -- solver ingest ------------------------------------------------------------


def _ingested(cnf, force_python):
    proof = ProofLog()
    saved = kernel._FORCE_PYTHON
    kernel._FORCE_PYTHON = force_python
    try:
        solver = Solver(cnf, proof=proof)
    finally:
        kernel._FORCE_PYTHON = saved
    return solver, proof


needs_kernel = pytest.mark.skipif(
    kernel.load() is None, reason="compiled kernel unavailable"
)


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(clause_lists())
def test_c_ingest_matches_python_ingest_field_by_field(case):
    num_vars, clauses = case
    cnf = CNF(clauses, num_vars=num_vars)
    c_solver, c_proof = _ingested(cnf, force_python=False)
    py_solver, py_proof = _ingested(cnf, force_python=True)
    assert c_solver._engine is not None and py_solver._engine is None
    assert c_solver._engine.c_owns  # C owns the state from construction
    c_solver._engine.expose()

    c_arena, py_arena = c_solver._clause_db, py_solver._clause_db
    assert c_arena.data == py_arena.data
    assert c_arena.offset == py_arena.offset
    assert c_arena.num_original == py_arena.num_original
    c_watch, py_watch = c_solver._watches, py_solver._watches
    assert c_watch.binary == py_watch.binary
    assert c_watch.ternary == py_watch.ternary
    assert c_watch.watches == py_watch.watches
    c_trail, py_trail = c_solver._trail, py_solver._trail
    assert c_trail.trail == py_trail.trail  # the level-0 units, in order
    assert c_trail.lit_values == py_trail.lit_values
    assert c_trail.reasons == py_trail.reasons
    assert c_solver._decider._heap == py_solver._decider._heap
    assert c_solver._inconsistent == py_solver._inconsistent
    assert c_proof.lines() == py_proof.lines()

    c_result, py_result = c_solver.solve(), py_solver.solve()
    assert c_result.status == py_result.status
    assert c_result.stats.to_dict() == py_result.stats.to_dict()
