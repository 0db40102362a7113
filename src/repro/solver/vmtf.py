"""VMTF (variable move-to-front) decision heuristic.

Kissat alternates between a score-based heuristic (EVSIDS here) and
VMTF: variables live in a doubly linked queue; variables bumped during
conflict analysis move to the front (stamped with an increasing
timestamp), and decisions pick the unassigned variable closest to the
front.  The "next search" pointer makes consecutive decisions amortized
O(1): it only ever walks left past assigned variables.
"""

from __future__ import annotations

from typing import List, Optional

from repro.solver.arena import ArenaTrail


class VMTFDecider:
    """Move-to-front queue with saved phases (drop-in for Decider)."""

    def __init__(
        self,
        trail: ArenaTrail,
        initial_phase: bool = True,
    ):
        self.trail = trail
        num_vars = trail.num_vars
        self.saved_phase: List[bool] = [initial_phase] * (num_vars + 1)
        # Doubly linked list over variables 1..n; 0 is the sentinel "none".
        self._prev: List[int] = [0] * (num_vars + 1)
        self._next: List[int] = [0] * (num_vars + 1)
        self._stamp: List[int] = [0] * (num_vars + 1)
        self._clock = 0
        self._front = 0
        self._back = 0
        # Search pointer: the queue position to start scanning from.
        self._search = 0
        for var in range(1, num_vars + 1):
            self._push_front(var)
        # Activity alias so diagnostics treating deciders uniformly work:
        # a variable's "activity" is its recency stamp.
        self.activity = self._stamp

    # -- linked-list plumbing ------------------------------------------------

    def _push_front(self, var: int) -> None:
        self._clock += 1
        self._stamp[var] = self._clock
        self._prev[var] = 0
        self._next[var] = self._front
        if self._front:
            self._prev[self._front] = var
        self._front = var
        if not self._back:
            self._back = var
        self._search = var  # front is always a fresh search start

    def _unlink(self, var: int) -> None:
        prev_var = self._prev[var]
        next_var = self._next[var]
        if prev_var:
            self._next[prev_var] = next_var
        else:
            self._front = next_var
        if next_var:
            self._prev[next_var] = prev_var
        else:
            self._back = prev_var
        if self._search == var:
            self._search = next_var or self._front

    # -- Decider interface -----------------------------------------------------

    def bump(self, var: int) -> None:
        """Move a conflict variable to the front of the queue."""
        if self._front == var:
            self._clock += 1
            self._stamp[var] = self._clock
            return
        self._unlink(var)
        self._push_front(var)

    def decay_activities(self) -> None:
        """VMTF has no decay; kept for interface compatibility."""

    def requeue(self, var: int) -> None:
        """A variable was unassigned; make sure the search pointer sees it.

        The queue order never changes on backtracking — only the pointer
        may have to move back towards the front."""
        if self._stamp[var] > self._stamp[self._search] or self._search == 0:
            self._search = var

    def save_phase(self, var: int, value: bool) -> None:
        self.saved_phase[var] = value

    def snapshot_best_phases(self) -> None:
        self._best_phase = list(self.saved_phase)
        for lit in self.trail.trail:
            self._best_phase[lit >> 1] = (lit & 1) == 0

    def rephase(self, style: str, initial_phase: bool = True) -> None:
        if style == "original":
            self.saved_phase = [initial_phase] * len(self.saved_phase)
        elif style == "inverted":
            self.saved_phase = [not initial_phase] * len(self.saved_phase)
        elif style == "best":
            best = getattr(self, "_best_phase", None)
            self.saved_phase = (
                list(best) if best is not None
                else [initial_phase] * len(self.saved_phase)
            )
        else:
            raise ValueError(f"unknown rephase style {style!r}")

    def pick_branch_variable(self) -> Optional[int]:
        lit_values = self.trail.lit_values
        var = self._search or self._front
        while var and lit_values[var << 1] != -1:  # UNASSIGNED == -1
            var = self._next[var]
        self._search = var
        return var or None

    def pick_branch_literal(self) -> Optional[int]:
        var = self.pick_branch_variable()
        if var is None:
            return None
        return 2 * var if self.saved_phase[var] else 2 * var + 1
