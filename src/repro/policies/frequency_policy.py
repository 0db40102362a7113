"""The paper's propagation-frequency-guided deletion policy (Section 3).

Adds a third criterion below glue and size: Eq. (2),

    c.frequency = sum over v in c of [ f_v > alpha * f_max ]

i.e. the number of the clause's variables whose propagation count since
the last deletion round exceeds an ``alpha`` fraction (default 4/5) of
the round's maximum.  Clauses over "hot" variables are hypothesized to
keep narrowing the search and are therefore retained longer.  Packed as
Figure 5's ``New`` layout: ``[~glue : 20][~size : 20][frequency : 24]``.
"""

from __future__ import annotations

from typing import Sequence

from repro.policies.base import DeletionPolicy
from repro.policies.score import FREQUENCY_LAYOUT, ScoreLayout, clamp, negated
from repro.solver.arena import ArenaClauseView

#: Paper's empirically chosen threshold fraction (Sec. 3.2).
DEFAULT_ALPHA = 4.0 / 5.0


def clause_frequency(
    clause: ArenaClauseView,
    frequency: Sequence[int],
    max_frequency: int,
    alpha: float = DEFAULT_ALPHA,
) -> int:
    """Eq. (2): count of the clause's variables with ``f_v > alpha * f_max``."""
    if max_frequency <= 0:
        return 0
    threshold = alpha * max_frequency
    return sum(1 for lit in clause.lits if frequency[lit >> 1] > threshold)


class FrequencyPolicy(DeletionPolicy):
    """Glue, size, then propagation-frequency scoring (Kissat-new)."""

    name = "frequency"

    def __init__(self, alpha: float = DEFAULT_ALPHA, layout: ScoreLayout = FREQUENCY_LAYOUT):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.layout = layout
        self._threshold = 0.0

    def begin_round(self, frequency: Sequence[int], max_frequency: int) -> None:
        self._threshold = self.alpha * max_frequency

    def score(
        self,
        clause: ArenaClauseView,
        frequency: Sequence[int],
        max_frequency: int,
    ) -> int:
        freq = clause_frequency(clause, frequency, max_frequency, self.alpha)
        clause.frequency = freq
        widths = dict(self.layout.fields)
        return self.layout.pack(
            neg_glue=negated(clause.glue, widths["neg_glue"]),
            neg_size=negated(len(clause.lits), widths["neg_size"]),
            frequency=clamp(freq, widths["frequency"]),
        )
