"""Core solver value types and literal encoding.

Externally (DIMACS, :class:`repro.cnf.CNF`) a literal is a signed integer.
Internally the solver packs literals into dense non-negative indices so
every per-literal structure is a flat list:

* variable ``v`` (1-based) has positive literal ``2*v`` and negative
  literal ``2*v + 1``;
* negation is ``lit ^ 1``; the variable is ``lit >> 1``; the sign test
  ``lit & 1`` is 1 for negative literals.

Indices 0 and 1 (variable 0) are unused padding so arrays can be indexed
directly by the encoded literal.
"""

from __future__ import annotations

import enum
from typing import List, Optional

# Truth values for assignment arrays: small ints beat enums in the hot loop.
TRUE = 1
FALSE = 0
UNASSIGNED = -1


def encode(dimacs_lit: int) -> int:
    """DIMACS literal -> internal literal index."""
    if dimacs_lit == 0:
        raise ValueError("0 is not a literal")
    var = abs(dimacs_lit)
    return 2 * var + (0 if dimacs_lit > 0 else 1)


def decode(lit: int) -> int:
    """Internal literal index -> DIMACS literal."""
    var = lit >> 1
    return var if (lit & 1) == 0 else -var


class Status(enum.Enum):
    """Outcome of a solve call or a supervised solve attempt.

    The solver core only ever returns the first three values:
    ``SATISFIABLE`` / ``UNSATISFIABLE`` when the formula is decided and
    ``UNKNOWN`` when an effort budget (conflicts / propagations /
    decisions) ran out mid-search.  The remaining values are *execution*
    failures produced by the supervised runner
    (:mod:`repro.parallel.supervisor`) when the process around the
    solver misbehaved: the solver never saw the end of its input, so no
    statement about the formula is implied.

    Invariants:

    * ``decided`` implies the result carries a model (SAT) or a refuted
      formula (UNSAT); everything else carries neither.
    * ``failed`` statuses never come out of :class:`Solver.solve` and
      are never written to the result cache — a failed attempt is not a
      property of the formula, only of one execution of it.
    * ``UNKNOWN`` is deterministic (same task, same budgets, same
      result) and therefore cacheable; ``TIMEOUT``/``ERROR``/``MEMOUT``
      are environment-dependent and are only recorded in run journals.
    """

    SATISFIABLE = "SATISFIABLE"
    UNSATISFIABLE = "UNSATISFIABLE"
    UNKNOWN = "UNKNOWN"
    #: Supervised task exceeded its wall-clock budget and was killed.
    TIMEOUT = "TIMEOUT"
    #: Worker crashed: unhandled exception, hard kill, or lost channel.
    ERROR = "ERROR"
    #: Worker exceeded its memory budget (RLIMIT hit or OOM-killed).
    MEMOUT = "MEMOUT"

    @property
    def decided(self) -> bool:
        """True when the formula itself was decided (SAT or UNSAT)."""
        return self in (Status.SATISFIABLE, Status.UNSATISFIABLE)

    @property
    def failed(self) -> bool:
        """True for execution failures (supervision taxonomy)."""
        return self in (Status.TIMEOUT, Status.ERROR, Status.MEMOUT)

    def __bool__(self) -> bool:
        # Deliberately disabled: ``if result.status`` is ambiguous.
        raise TypeError("Status has no truth value; compare explicitly")


Model = List[Optional[bool]]
