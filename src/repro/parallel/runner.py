"""Instance-level parallel execution with caching, budgets, and retry.

The solver is single-threaded by nature, but the workloads around it —
dual-policy labelling (paper Sec. 5.1), benchmark suites, ablations —
are embarrassingly parallel across *instances*.  :class:`ParallelRunner`
fans a list of :class:`SolveTask` out over supervised worker processes,
short-circuits any task whose result is already in the on-disk
:class:`~repro.parallel.cache.ResultCache` or the run's
:class:`~repro.parallel.journal.RunJournal`, and returns
:class:`SolveOutcome` records in task order — exactly one outcome per
task, always, even when a worker hangs, crashes, or is OOM-killed.

Fault tolerance is layered on through :mod:`repro.parallel.supervisor`:
per-task wall-clock and memory budgets turn runaway tasks into
``TIMEOUT`` / ``MEMOUT`` outcomes, worker crashes become ``ERROR``
outcomes without aborting sibling tasks, and transient errors are
retried with capped exponential backoff.  A journal makes long sweeps
resumable: re-running an interrupted sweep with the same journal
re-solves only the tasks that never finished.

``workers=1`` with no supervision options runs everything inline (no
processes, no pickling) and is bit-for-bit identical to calling the
solver directly — the parallel path is a pure scheduling change, never a
semantic one, because the solver is deterministic per task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cnf.dimacs import to_dimacs
from repro.cnf.formula import CNF
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.parallel.cache import ResultCache, solve_cache_key
from repro.parallel.journal import RunJournal
from repro.parallel.progress import ProgressAggregator
from repro.parallel.supervisor import (
    FaultPlan,
    Supervisor,
    TaskFailure,
    WorkerBudget,
)
from repro.policies.registry import get_policy
from repro.solver.solver import Solver, SolverConfig
from repro.solver.types import Model, Status


@dataclass(eq=False)
class SolveTask:
    """One unit of work: solve ``cnf`` under ``policy`` within budgets."""

    cnf: CNF
    policy: str = "default"
    config: Optional[SolverConfig] = None
    max_conflicts: Optional[int] = None
    max_propagations: Optional[int] = None
    max_decisions: Optional[int] = None
    #: Free-form caller label, carried through to the outcome.
    tag: str = ""
    #: Per-task wall-clock budget, seconds — tightens (never loosens)
    #: the runner-wide ``task_timeout`` for this one task.  The solve
    #: service derives it from the request's remaining deadline.  NOT
    #: part of the cache key: wall budgets depend on queue timing, not
    #: on the problem, and a cached/journalled answer is valid however
    #: long the original run was allowed to take.
    wall_budget_seconds: Optional[float] = None

    def budgets(self) -> Dict[str, Optional[int]]:
        return {
            "max_conflicts": self.max_conflicts,
            "max_propagations": self.max_propagations,
            "max_decisions": self.max_decisions,
        }

    def cache_key(self) -> str:
        return solve_cache_key(
            to_dimacs(self.cnf), self.policy, self.config, self.budgets()
        )


@dataclass
class SolveOutcome:
    """Result of one task: status, effort counters, and provenance."""

    tag: str
    policy: str
    status: Status
    propagations: int
    conflicts: int
    decisions: int
    restarts: int
    reductions: int
    wall_seconds: float
    model: Optional[Model] = None
    #: True when served from the on-disk cache instead of a solver run.
    cached: bool = False
    #: True when served from a run journal during ``--resume``.
    resumed: bool = False
    #: Number of execution attempts (> 1 after supervised retries).
    attempts: int = 1
    #: Human-readable failure detail for TIMEOUT / ERROR / MEMOUT.
    error: str = ""

    @property
    def solved(self) -> bool:
        """True when the formula was decided (SAT or UNSAT)."""
        return self.status.decided

    @property
    def failed(self) -> bool:
        """True for supervision failures (TIMEOUT / ERROR / MEMOUT)."""
        return self.status.failed

    def as_payload(self) -> Dict[str, Any]:
        """JSON-able form for the result cache and the run journal."""
        return {
            "tag": self.tag,
            "policy": self.policy,
            "status": self.status.value,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "restarts": self.restarts,
            "reductions": self.reductions,
            "wall_seconds": self.wall_seconds,
            "model": self.model,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, Any],
        cached: bool = True,
        resumed: bool = False,
    ) -> "SolveOutcome":
        model = payload.get("model")
        return cls(
            tag=str(payload.get("tag", "")),
            policy=str(payload["policy"]),
            status=Status(payload["status"]),
            propagations=int(payload["propagations"]),
            conflicts=int(payload["conflicts"]),
            decisions=int(payload["decisions"]),
            restarts=int(payload["restarts"]),
            reductions=int(payload["reductions"]),
            wall_seconds=float(payload["wall_seconds"]),
            model=None if model is None else list(model),
            cached=cached,
            resumed=resumed,
            attempts=int(payload.get("attempts", 1)),
            error=str(payload.get("error", "")),
        )

    @classmethod
    def from_failure(
        cls,
        task: SolveTask,
        status: Status,
        message: str,
        attempts: int,
        wall_seconds: float = 0.0,
    ) -> "SolveOutcome":
        """Structured outcome for a task whose execution failed.

        ``wall_seconds`` is the supervisor-measured cost of the final
        attempt — a timed-out task really did burn its budget, and that
        shows up in latency summaries instead of a misleading zero.
        """
        return cls(
            tag=task.tag,
            policy=task.policy,
            status=status,
            propagations=0,
            conflicts=0,
            decisions=0,
            restarts=0,
            reductions=0,
            wall_seconds=wall_seconds,
            attempts=attempts,
            error=message,
        )


def execute_task(task: SolveTask) -> SolveOutcome:
    """Run one task to completion in the current process."""
    solver = Solver(task.cnf, policy=get_policy(task.policy), config=task.config)
    start = time.perf_counter()
    result = solver.solve(
        max_conflicts=task.max_conflicts,
        max_propagations=task.max_propagations,
        max_decisions=task.max_decisions,
    )
    wall = time.perf_counter() - start
    stats = result.stats
    return SolveOutcome(
        tag=task.tag,
        policy=task.policy,
        status=result.status,
        propagations=stats.propagations,
        conflicts=stats.conflicts,
        decisions=stats.decisions,
        restarts=stats.restarts,
        reductions=stats.reductions,
        wall_seconds=wall,
        model=result.model,
    )


class ParallelRunner:
    """Fan solve tasks out over supervised processes, with result caching.

    Supervision options (all optional — the default configuration is the
    plain fan-out):

    ``task_timeout``
        Hard wall-clock budget per attempt, in seconds; a task past it
        is killed and reported as ``Status.TIMEOUT``.
    ``memory_limit_mb``
        Per-worker address-space cap; a breach becomes ``Status.MEMOUT``.
    ``retries``
        Extra attempts for a task whose worker failed with ``ERROR``,
        after a capped exponential backoff (see
        :func:`~repro.parallel.supervisor.retry_delay`).
    ``journal``
        Path (or :class:`RunJournal`) for the append-only completion
        ledger; re-running with the same journal skips finished tasks.
    ``fault_plan``
        Deterministic fault injection for tests (:class:`FaultPlan`).

    Any of these — or ``workers > 1`` — routes execution through the
    :class:`~repro.parallel.supervisor.Supervisor` (one short-lived
    process per task, crash-isolated).  ``workers=1`` with no
    supervision stays fully inline.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        *,
        task_timeout: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        retries: int = 0,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        fault_plan: Optional[FaultPlan] = None,
        observer: Optional[Observer] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.budget = WorkerBudget(
            wall_seconds=task_timeout, rss_mb=memory_limit_mb
        )
        self.retries = retries
        if isinstance(journal, (str, Path)):
            journal = RunJournal(journal)
        self.journal = journal
        self.fault_plan = fault_plan
        #: Journal appends that failed (tolerated; see _journal_record).
        self.journal_errors = 0
        #: The :class:`ProgressAggregator` of the latest :meth:`run`.
        self.last_stats = ProgressAggregator()

    @property
    def supervised(self) -> bool:
        """True when execution goes through per-task worker processes."""
        return (
            self.workers > 1
            or not self.budget.unlimited
            or self.retries > 0
            or self.fault_plan is not None
        )

    def run(self, tasks: Sequence[SolveTask]) -> List[SolveOutcome]:
        """Execute every task; exactly one outcome per task, in order.

        Journalled and cached tasks are answered from disk without
        touching a worker; fresh results are written back so the next
        run with the same tasks performs zero solver work.  Failures
        (timeout / crash / memout) come back as structured outcomes with
        zeroed effort counters — they never raise and never abort
        sibling tasks.
        """
        progress = ProgressAggregator(total=len(tasks))

        results: List[Optional[SolveOutcome]] = [None] * len(tasks)
        pending: List[int] = []
        # Keys feed both stores; skip the DIMACS round-trip when neither
        # a cache nor a journal is attached.
        keyed = self.cache is not None or self.journal is not None
        keys: List[str] = (
            [task.cache_key() for task in tasks] if keyed
            else [""] * len(tasks)
        )
        for index, task in enumerate(tasks):
            outcome = self._lookup(task, keys[index])
            if outcome is not None:
                results[index] = outcome
                self._journal_record(keys[index], outcome)
                progress.record(outcome)
                self._trace_finish(index, outcome)
            else:
                pending.append(index)

        observer = self.observer
        # A per-task wall budget needs the supervisor's parent-side
        # deadline policing, even when the runner itself is unsupervised.
        needs_supervision = self.supervised or any(
            getattr(tasks[index], "wall_budget_seconds", None) is not None
            for index in pending
        )
        if pending:
            if not needs_supervision and (self.workers == 1 or len(pending) == 1):
                for index in pending:
                    observer.event(
                        "task-start", index=index, attempt=1,
                        tag=tasks[index].tag, policy=tasks[index].policy,
                    )
                    outcome = self._execute_inline(tasks[index])
                    self._finish(index, outcome, results, keys, progress)
            else:
                def on_retry(index, attempt, status):
                    progress.record_retry()
                    observer.event(
                        "task-retry", index=index, attempt=attempt,
                        status=status.value,
                    )

                def on_start(index, attempt):
                    observer.event(
                        "task-start", index=index, attempt=attempt,
                        tag=tasks[index].tag, policy=tasks[index].policy,
                    )

                supervisor = Supervisor(
                    workers=self.workers,
                    budget=self.budget,
                    retries=self.retries,
                    fault_plan=self.fault_plan,
                    on_retry=on_retry,
                    on_start=on_start if observer.tracing else None,
                )

                def on_complete(index, kind, payload, attempts):
                    if kind == "ok":
                        outcome = SolveOutcome.from_payload(
                            payload, cached=False
                        )
                        outcome.attempts = attempts
                    else:
                        failure: TaskFailure = payload
                        outcome = SolveOutcome.from_failure(
                            tasks[index], failure.status,
                            failure.message, attempts,
                            wall_seconds=failure.wall_seconds,
                        )
                    self._finish(index, outcome, results, keys, progress)

                supervisor.run(
                    [(index, tasks[index]) for index in pending], on_complete
                )

        self.last_stats = progress
        self.observer.flush()
        # Every slot is filled: failures become outcomes, not holes.
        return [outcome for outcome in results if outcome is not None]

    # -- lookups ----------------------------------------------------------

    def _lookup(self, task: SolveTask, key: str) -> Optional[SolveOutcome]:
        """Journal first (per-run ledger), then the cross-run cache."""
        if self.journal is not None:
            payload = self.journal.get(key)
            if payload is not None:
                outcome = SolveOutcome.from_payload(
                    payload, cached=False, resumed=True
                )
                outcome.tag = task.tag
                return outcome
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                if str(payload.get("policy")) != task.policy:
                    # A key collision would be astronomically unlikely;
                    # a mismatched policy here means a corrupted entry.
                    self.cache.evict(key)
                    self.cache.corrupt_evictions += 1
                    return None
                outcome = SolveOutcome.from_payload(payload, cached=True)
                # The cache key ignores the caller's label, so the entry
                # holds whichever tag first populated it — restore ours.
                outcome.tag = task.tag
                return outcome
        return None

    def _execute_inline(self, task: SolveTask) -> SolveOutcome:
        """Inline execution with the same no-exceptions contract."""
        try:
            return execute_task(task)
        except MemoryError as exc:
            return SolveOutcome.from_failure(
                task, Status.MEMOUT, f"MemoryError: {exc}", attempts=1
            )
        except Exception as exc:  # noqa: BLE001 - outcome, not crash
            return SolveOutcome.from_failure(
                task, Status.ERROR, f"{type(exc).__name__}: {exc}", attempts=1
            )

    def _finish(
        self,
        index: int,
        outcome: SolveOutcome,
        results: List[Optional[SolveOutcome]],
        keys: List[str],
        progress: ProgressAggregator,
    ) -> None:
        results[index] = outcome
        if self.cache is not None and not outcome.failed:
            # Solver results (including budget-UNKNOWN) are deterministic
            # and cacheable; execution failures are not facts about the
            # formula and stay out of the cross-run cache.
            self.cache.put(keys[index], outcome.as_payload())
        self._journal_record(keys[index], outcome)
        progress.record(outcome)
        self._trace_finish(index, outcome)

    def _trace_finish(self, index: int, outcome: SolveOutcome) -> None:
        """Emit the ``task-finish`` trace event for one terminal outcome."""
        if not self.observer.tracing:
            return
        self.observer.event(
            "task-finish",
            index=index,
            tag=outcome.tag,
            policy=outcome.policy,
            status=outcome.status.value,
            wall_seconds=round(outcome.wall_seconds, 6),
            attempts=outcome.attempts,
            cached=outcome.cached,
            resumed=outcome.resumed,
            propagations=outcome.propagations,
            conflicts=outcome.conflicts,
        )

    def _journal_record(self, key: str, outcome: SolveOutcome) -> None:
        """Best-effort journal append: a failed write never loses a result.

        The journal is a resumability optimization, not a correctness
        dependency — the outcome is already in ``results`` and (when not
        a failure) in the cross-run cache.  A full disk or yanked volume
        therefore costs future resumability, counted in
        ``journal_errors``, never the in-flight answer.
        """
        if self.journal is not None and not outcome.resumed:
            try:
                self.journal.record(key, outcome.as_payload())
            except OSError as exc:
                self.journal_errors += 1
                if self.observer.tracing:
                    self.observer.event(
                        "journal-error",
                        tag=outcome.tag,
                        error=f"{type(exc).__name__}: {exc}",
                    )
