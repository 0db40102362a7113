"""Parallel instance-level execution: caching, supervision, resume.

The engine solves one instance per process; everything around it —
dual-policy labelling, dataset construction, benchmark suites — is
embarrassingly parallel across instances.  This package provides:

* :class:`~repro.parallel.runner.ParallelRunner` — fan
  :class:`~repro.parallel.runner.SolveTask` lists out over supervised
  worker processes, returning ordered, deterministic
  :class:`~repro.parallel.runner.SolveOutcome` records — exactly one
  per task, even when a worker hangs, crashes, or is OOM-killed;
* :class:`~repro.parallel.supervisor.Supervisor` — per-task worker
  processes under hard wall-clock (:class:`WorkerBudget`) and memory
  budgets, with capped-backoff retry of worker errors and
  deterministic fault injection (:class:`FaultPlan`) for tests;
* :class:`~repro.parallel.journal.RunJournal` — append-only JSONL
  checkpoint so an interrupted sweep resumes without re-solving
  finished tasks;
* :class:`~repro.parallel.cache.ResultCache` — content-addressed JSON
  store so a previously solved *(instance, policy, config, budgets)*
  combination is never solved again;
* :class:`~repro.parallel.progress.ProgressAggregator` — the run's
  counts of executed / cached / resumed / solved / failed tasks plus the
  supervision failure taxonomy and cumulative solver effort
  (``ParallelRunner.last_stats``).

``repro.selection.labeling``, ``repro.selection.dataset``, and
``repro.bench.runner`` all route through this layer.
"""

from repro.parallel.cache import CACHE_FORMAT_VERSION, ResultCache, solve_cache_key
from repro.parallel.journal import RunJournal
from repro.parallel.progress import ProgressAggregator
from repro.parallel.runner import (
    ParallelRunner,
    SolveOutcome,
    SolveTask,
    execute_task,
)
from repro.parallel.supervisor import (
    Fault,
    FaultPlan,
    Supervisor,
    WorkerBudget,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "Fault",
    "FaultPlan",
    "ParallelRunner",
    "ProgressAggregator",
    "ResultCache",
    "RunJournal",
    "SolveOutcome",
    "SolveTask",
    "Supervisor",
    "WorkerBudget",
    "execute_task",
    "solve_cache_key",
]
