"""Cardinality constraints: Sinz's sequential-counter encoding.

:func:`at_most_k` is what the ``cardinality_conflict`` generator family
(:mod:`repro.cnf.generators`) builds its over-constrained instances from.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def at_most_k(
    literals: Sequence[int], k: int, next_var: int
) -> Tuple[List[List[int]], int]:
    """Sinz's sequential-counter encoding of ``sum(literals) <= k``.

    ``next_var`` is the first free auxiliary variable; returns the
    clauses plus the next free variable after the encoding.  ``k >= n``
    needs no clauses; ``k == 0`` forces every literal false.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if next_var <= max((abs(lit) for lit in literals), default=0):
        raise ValueError("next_var must be beyond all input variables")
    n = len(literals)
    if k >= n:
        return [], next_var
    if k == 0:
        return [[-lit] for lit in literals], next_var

    def register(i: int, j: int) -> int:
        # s(i, j): "at least j of the first i+1 literals are true".
        return next_var + i * k + (j - 1)

    x = list(literals)
    clauses: List[List[int]] = [[-x[0], register(0, 1)]]
    for j in range(2, k + 1):
        clauses.append([-register(0, j)])
    for i in range(1, n - 1):
        clauses.append([-x[i], register(i, 1)])
        clauses.append([-register(i - 1, 1), register(i, 1)])
        for j in range(2, k + 1):
            clauses.append([-x[i], -register(i - 1, j - 1), register(i, j)])
            clauses.append([-register(i - 1, j), register(i, j)])
        clauses.append([-x[i], -register(i - 1, k)])
    clauses.append([-x[n - 1], -register(n - 2, k)])
    return clauses, next_var + (n - 1) * k

