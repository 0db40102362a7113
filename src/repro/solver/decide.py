"""Decision heuristic: exponential VSIDS with phase saving.

Variables touched by conflict analysis get their activity bumped; the
bump grows geometrically (EVSIDS) so recent conflicts dominate.  The next
decision picks the unassigned variable of maximum activity, assigned with
its last-saved polarity (phase saving), defaulting to *true* like Kissat.

The priority queue is a lazy binary heap: stale entries (outdated
activity or already-assigned variables) are skipped on pop, which keeps
the implementation simple without hurting asymptotics.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.solver.arena import ArenaTrail


class Decider:
    """VSIDS variable order + saved phases."""

    def __init__(self, trail: ArenaTrail):
        self.trail = trail
        num_vars = trail.num_vars
        self.activity: List[float] = [0.0] * (num_vars + 1)
        self.saved_phase: List[bool] = [True] * (num_vars + 1)
        self.var_inc: float = 1.0
        self.decay: float = 0.95
        # Lazy max-heap of (-activity, var); may contain stale entries.
        self._heap: List[tuple] = [(0.0, v) for v in range(1, num_vars + 1)]
        heapq.heapify(self._heap)

    # -- activity -------------------------------------------------------------

    def bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            self._rescale()
        heapq.heappush(self._heap, (-self.activity[var], var))

    def decay_activities(self) -> None:
        """EVSIDS: grow the increment instead of decaying every score."""
        self.var_inc /= self.decay

    def _rescale(self) -> None:
        for v in range(1, len(self.activity)):
            self.activity[v] *= 1e-100
        self.var_inc *= 1e-100
        self._heap = [
            (-self.activity[v], v) for v in range(1, len(self.activity))
        ]
        heapq.heapify(self._heap)

    # -- decisions -------------------------------------------------------------

    def requeue(self, var: int) -> None:
        """Re-insert a variable unassigned by backtracking."""
        heapq.heappush(self._heap, (-self.activity[var], var))

    def pick_branch_variable(self) -> Optional[int]:
        """Highest-activity unassigned variable, or None when all assigned.

        Every bump pushes a fresh entry, so the first unassigned variable
        popped carries its maximal recorded activity — stale duplicates
        sort strictly later and are simply skipped when re-encountered.
        """
        # lit_values[var << 1] is the variable's value: the trail's
        # single source of truth.
        lit_values = self.trail.lit_values
        heap = self._heap
        while heap:
            _, var = heapq.heappop(heap)
            if lit_values[var << 1] == -1:  # UNASSIGNED == -1
                return var
        # Heap exhausted (all entries consumed): rebuild from scratch.
        for var in range(1, self.trail.num_vars + 1):
            if lit_values[var << 1] == -1:
                heapq.heappush(heap, (-self.activity[var], var))
                return var
        return None

    def pick_branch_literal(self) -> Optional[int]:
        """Decision literal (internal encoding) honouring the saved phase."""
        var = self.pick_branch_variable()
        if var is None:
            return None
        return 2 * var if self.saved_phase[var] else 2 * var + 1
