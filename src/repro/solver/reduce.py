"""Clause-database reduction (the deletion phase of Figure 2).

Scheduling follows Kissat's shape: a reduction triggers once the number
of conflicts crosses a limit that grows with each round, so reductions
get rarer as the database matures.  At each round:

1. clauses that currently act as reasons on the trail are protected;
2. "non-reducible" learned clauses (glue <= keep_glue) and binaries are
   protected (handled by :meth:`ClauseArena.reducible_clauses`);
3. recently *used* clauses (bumped in conflict analysis since the last
   round) get one round of grace and their flag is cleared;
4. the remaining candidates are scored by the active
   :class:`~repro.policies.base.DeletionPolicy` and the lowest-scoring
   ``target_fraction`` are deleted;
5. per-variable propagation-frequency counters reset (Sec. 3.1: "since
   the last deletion").

Policies score :class:`~repro.solver.arena.ArenaClauseView` proxies, so
policy-written state (e.g. the Eq. (2) frequency cache) lands in the
arena's metadata arrays.  Deletion garbage-collects the arena: watchers
detach, the arena compacts, and long-watcher offsets are relocated with
the compaction map.  The literals of deleted clauses are captured (in
clause-id order) in :attr:`ReduceScheduler.last_deleted` *before*
compaction invalidates their offsets, so the solver can mirror
deletions into a DRAT proof.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.policies.base import DeletionPolicy
from repro.solver.arena import (
    ArenaPropagator,
    ArenaTrail,
    ArenaWatchLists,
    ClauseArena,
)
from repro.solver.statistics import SolverStatistics


class ReduceScheduler:
    """Decides *when* to reduce and performs the reduction."""

    def __init__(
        self,
        clause_db: ClauseArena,
        trail: ArenaTrail,
        watches: ArenaWatchLists,
        propagator: ArenaPropagator,
        stats: SolverStatistics,
        policy: DeletionPolicy,
        interval: int = 300,
        interval_growth: int = 100,
        target_fraction: float = 0.5,
        protect_used: bool = True,
        observer: Optional[Observer] = None,
    ):
        if not 0.0 < target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        self.clause_db = clause_db
        self.trail = trail
        self.watches = watches
        self.propagator = propagator
        self.stats = stats
        self.policy = policy
        self.interval = interval
        self.interval_growth = interval_growth
        self.target_fraction = target_fraction
        self.protect_used = protect_used
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._limit = interval
        self._rounds = 0
        #: Literal lists of the clauses deleted by the last round.
        self.last_deleted: List[List[int]] = []

    def should_reduce(self) -> bool:
        return self.stats.conflicts >= self._limit

    @property
    def limit(self) -> int:
        """Conflict count at which the next round is due."""
        return self._limit

    def reduce(self) -> int:
        """Run one reduction round; returns the number of clauses deleted."""
        with self.observer.span("reduce"):
            deleted, candidates = self._reduce()
        self.observer.event(
            "reduce",
            round=self._rounds,
            conflicts=self.stats.conflicts,
            candidates=candidates,
            deleted=deleted,
        )
        return deleted

    def _reduce(self) -> "tuple[int, int]":
        """The reduction round proper: (clauses deleted, candidates seen)."""
        self._rounds += 1
        self._limit = self.stats.conflicts + self.interval + (
            self.interval_growth * self._rounds
        )
        self.stats.reductions += 1

        arena = self.clause_db
        frequency = self.propagator.frequency
        max_frequency = self.propagator.max_frequency()
        self.policy.begin_round(frequency, max_frequency)

        used = arena.used
        candidates: List[int] = []
        for cid in arena.reducible_clauses():
            if self.trail.is_reason(cid):
                continue
            if self.protect_used and used[cid]:
                used[cid] = 0  # one round of grace, then fair game
                continue
            candidates.append(cid)

        deleted = 0
        self.last_deleted = []
        if candidates:
            policy = self.policy
            view = arena.view
            candidates.sort(
                key=lambda cid: policy.score(view(cid), frequency, max_frequency)
            )
            num_delete = int(len(candidates) * self.target_fraction)
            doomed = candidates[:num_delete]
            for cid in doomed:
                arena.mark_garbage(cid)
                deleted += 1
            if deleted:
                # Literals must be read out before compaction moves them.
                self.last_deleted = [
                    arena.literals(cid) for cid in sorted(doomed)
                ]
                self.watches.detach_garbage()
                self.watches.relocate(arena.compact())

        self.stats.deleted_clauses += deleted
        # Eq. (2) counts propagations "since the last clause deletion".
        self.propagator.reset_frequencies()
        return deleted, len(candidates)
