"""Solver statistics counters.

``propagations`` doubles as the deterministic effort measure used
throughout the evaluation harness (the paper labels its training data by
propagation counts for the same reason — CPU time is noisy, Sec. 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields
from typing import Dict


@dataclass
class SolverStatistics:
    """Mutable counters updated by the solving loop."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    reductions: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    deleted_clauses: int = 0
    minimized_literals: int = 0
    max_trail: int = 0
    glue_sum: int = 0
    #: Number of ``propagate()`` invocations; ``propagations /
    #: bcp_rounds`` is the mean BCP batch size.
    bcp_rounds: int = 0

    def mean_glue(self) -> float:
        """Average LBD of learned clauses so far (0 when none learned)."""
        if self.learned_clauses == 0:
            return 0.0
        return self.glue_sum / self.learned_clauses

    def mean_learned_size(self) -> float:
        """Average learned-clause length so far (0 when none learned)."""
        if self.learned_clauses == 0:
            return 0.0
        return self.learned_literals / self.learned_clauses

    def to_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(asdict(self))
        out["mean_glue"] = self.mean_glue()
        out["mean_learned_size"] = self.mean_learned_size()
        return out

    def reset(self) -> None:
        """Zero every counter.

        The field list is derived from ``dataclasses.fields`` so new
        counters are reset automatically instead of silently surviving
        a reset (the failure mode of the old hand-maintained tuple).
        """
        for spec in fields(self):
            setattr(self, spec.name, spec.default)
