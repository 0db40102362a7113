"""Reference solvers for differential testing.

Two deliberately simple, obviously-correct procedures used by the test
suite to cross-check the CDCL engine on small instances:

* :func:`brute_force_status` — exhaustive enumeration (<= ~22 variables);
* :func:`dpll_solve` — a plain recursive DPLL with unit propagation,
  usable a bit beyond brute force.

Neither is part of the performance story; both exist so that property
tests can assert the CDCL solver agrees with an independent oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cnf.formula import CNF
from repro.solver.types import Status


def brute_force_status(cnf: CNF, max_vars: int = 22) -> Status:
    """Exhaustively decide satisfiability of a small formula."""
    variables = sorted(cnf.variables())
    if len(variables) > max_vars:
        raise ValueError(f"too many variables for brute force: {len(variables)}")
    if cnf.has_empty_clause():
        return Status.UNSATISFIABLE
    clauses = [clause.literals for clause in cnf.clauses]
    n = len(variables)
    for mask in range(1 << n):
        assignment: List[Optional[bool]] = [None] * (cnf.num_vars + 1)
        for i, var in enumerate(variables):
            assignment[var] = bool(mask >> i & 1)
        for clause in clauses:
            for lit in clause:
                if assignment[abs(lit)] == (lit > 0):
                    break  # clause satisfied
            else:
                break  # clause falsified: next assignment
        else:
            return Status.SATISFIABLE
    return Status.UNSATISFIABLE


def _unit_propagate(
    clauses: List[List[int]], assignment: Dict[int, bool]
) -> Optional[List[List[int]]]:
    """Simplify clauses under ``assignment``; None signals a conflict."""
    changed = True
    clauses = [list(c) for c in clauses]
    while changed:
        changed = False
        next_clauses: List[List[int]] = []
        for clause in clauses:
            satisfied = False
            remaining: List[int] = []
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    if assignment[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if satisfied:
                continue
            if not remaining:
                return None
            if len(remaining) == 1:
                lit = remaining[0]
                assignment[abs(lit)] = lit > 0
                changed = True
            else:
                next_clauses.append(remaining)
        clauses = next_clauses
    return clauses


def dpll_solve(cnf: CNF) -> Tuple[Status, Optional[List[Optional[bool]]]]:
    """Plain DPLL with unit propagation; returns (status, model)."""
    if cnf.has_empty_clause():
        return Status.UNSATISFIABLE, None

    def recurse(
        clauses: List[List[int]], assignment: Dict[int, bool]
    ) -> Optional[Dict[int, bool]]:
        simplified = _unit_propagate(clauses, assignment)
        if simplified is None:
            return None
        if not simplified:
            return assignment
        # Branch on the first literal of the first clause.
        lit = simplified[0][0]
        for value in (lit > 0, lit < 0):
            trial = dict(assignment)
            trial[abs(lit)] = value
            result = recurse(simplified, trial)
            if result is not None:
                return result
        return None

    raw_clauses = [list(c.literals) for c in cnf.clauses if not c.is_tautology()]
    model_map = recurse(raw_clauses, {})
    if model_map is None:
        return Status.UNSATISFIABLE, None
    model: List[Optional[bool]] = [None] * (cnf.num_vars + 1)
    for var, value in model_map.items():
        model[var] = value
    for var in range(1, cnf.num_vars + 1):
        if model[var] is None:
            model[var] = True
    assert cnf.check_model(model)
    return Status.SATISFIABLE, model
