"""Progress and statistics aggregation for fanned-out solve runs.

A :class:`ProgressAggregator` is fed one event per finished task by the
runner (from whichever process delivered the result) and keeps the
aggregate picture: how many tasks ran vs. hit the cache or the resume
journal, how many were decided within budget, how many *failed* under
supervision and why (the TIMEOUT / ERROR / MEMOUT taxonomy), cumulative
solver effort, and per-policy breakdowns.  It prints nothing and feeds
no metrics registry: with tracing on, the runner's ``task-finish``
events are the per-task record, and ``repro report`` derives its sweep
counts and task-wall percentiles from them.
"""

from __future__ import annotations

from typing import Dict


class ProgressAggregator:
    """Collects completion events from a runner into summary statistics."""

    def __init__(self, total: int = 0):
        self.total = total
        self.done = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.executed = 0
        self.solved = 0
        self.failed = 0
        self.retried = 0
        self.retry_attempts = 0
        self.propagations = 0
        self.conflicts = 0
        self.wall_seconds = 0.0
        self.by_policy: Dict[str, int] = {}
        #: Supervision-failure taxonomy, e.g. {"TIMEOUT": 1, "ERROR": 2}.
        self.failures: Dict[str, int] = {}

    def record_retry(self) -> None:
        """Account one failed attempt that is about to be retried.

        Retried attempts are not terminal — they do not advance ``done``
        or the failure taxonomy — but the count surfaces how much work
        the retry layer is absorbing.
        """
        self.retry_attempts += 1

    def record(self, outcome) -> None:
        """Account one finished :class:`~repro.parallel.runner.SolveOutcome`."""
        self.done += 1
        if outcome.cached:
            self.cache_hits += 1
        elif getattr(outcome, "resumed", False):
            self.journal_hits += 1
        else:
            self.executed += 1
        if outcome.status.decided:
            self.solved += 1
        if outcome.status.failed:
            self.failed += 1
            name = outcome.status.value
            self.failures[name] = self.failures.get(name, 0) + 1
        if getattr(outcome, "attempts", 1) > 1:
            self.retried += 1
        self.propagations += outcome.propagations
        self.conflicts += outcome.conflicts
        self.wall_seconds += outcome.wall_seconds
        self.by_policy[outcome.policy] = self.by_policy.get(outcome.policy, 0) + 1

    def summary(self) -> Dict[str, object]:
        """The aggregate picture as a plain dict (JSON-able)."""
        return {
            "done": self.done,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "journal_hits": self.journal_hits,
            "executed": self.executed,
            "solved": self.solved,
            "failed": self.failed,
            "retried": self.retried,
            "retry_attempts": self.retry_attempts,
            "failures": dict(self.failures),
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "solver_wall_seconds": round(self.wall_seconds, 6),
            "by_policy": dict(self.by_policy),
        }
