"""Deletion-policy interface.

A policy is consulted once per reduction round.  The solver hands it the
current propagation-frequency counters (reset at every round, Sec. 3.1)
and the round's maximum frequency; the policy returns a 64-bit score per
clause.  Clauses are then deleted lowest-score-first.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.solver.arena import ArenaClauseView


class DeletionPolicy(abc.ABC):
    """Scores reducible learned clauses for a reduction round."""

    #: Registry / CLI name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def score(
        self,
        clause: ArenaClauseView,
        frequency: Sequence[int],
        max_frequency: int,
    ) -> int:
        """64-bit keep-priority of ``clause`` (higher = keep longer).

        ``frequency[v]`` is variable ``v``'s propagation count since the
        last reduction; ``max_frequency`` is the maximum over all
        variables (``f_max`` in Eq. 2).  Policies that ignore frequency
        simply never read those arguments.
        """

    def begin_round(self, frequency: Sequence[int], max_frequency: int) -> None:
        """Hook called once per reduction round before any scoring."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
