"""Kissat's default clause-deletion scoring.

"The scoring is primarily decided by the glue value of a clause, with its
size serving as a secondary criterion" (Sec. 3.2): among two learned
clauses the one with lower glue scores higher; ties break towards the
smaller clause.  Realized as the Figure 5 ``Default`` 64-bit layout:
``[~glue : 32][~size : 32]``.
"""

from __future__ import annotations

from typing import Sequence

from repro.policies.base import DeletionPolicy
from repro.policies.score import DEFAULT_LAYOUT, negated
from repro.solver.arena import ArenaClauseView


class DefaultPolicy(DeletionPolicy):
    """Glue-then-size scoring (stock Kissat)."""

    name = "default"

    def score(
        self,
        clause: ArenaClauseView,
        frequency: Sequence[int],
        max_frequency: int,
    ) -> int:
        glue_field = negated(clause.glue, 32)
        size_field = negated(len(clause.lits), 32)
        return DEFAULT_LAYOUT.pack(neg_glue=glue_field, neg_size=size_field)
