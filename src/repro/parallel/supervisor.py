"""Supervised task execution: budgets, crash isolation, retry.

SAT workloads are heavy-tailed: one pathological instance can hang a
worker for hours or balloon its memory until the OS kills it.  A bare
``multiprocessing.Pool`` has no answer for either — a hung worker stalls
the whole sweep and a killed worker aborts it, discarding every finished
sibling result.  This module runs each task in its *own* supervised
process and converts every way a worker can die into a structured
terminal status instead of an exception:

* wall-clock budget exceeded      -> ``Status.TIMEOUT`` (worker killed)
* memory budget exceeded          -> ``Status.MEMOUT`` (``RLIMIT_AS``
  raises ``MemoryError`` in the worker; a SIGKILL under a memory budget
  is also classified MEMOUT, the OOM-killer signature)
* unhandled exception / hard kill -> ``Status.ERROR``

Transient failures (``ERROR`` only) can be retried with capped
exponential backoff (:func:`retry_delay`); backoff never blocks the
scheduler — a retrying task just becomes runnable later while siblings
keep executing.

Every failure path is exercisable deterministically through
:class:`FaultPlan`, which injects a chosen fault (raise / hang / kill /
memout / slow) at chosen task indices and attempt numbers inside the
worker process.  The test suite drives the supervisor exclusively
through fault plans — no sleeps, no flaky timing.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.solver.types import Status

#: How long an injected hang sleeps; any sane task timeout fires first.
_HANG_SECONDS = 3600.0

#: Grace period for ``Process.join`` after a kill before giving up.
_JOIN_SECONDS = 10.0


# ---------------------------------------------------------------------------
# Budgets and retry


@dataclass(frozen=True)
class WorkerBudget:
    """Hard per-attempt resource limits enforced by the supervisor.

    ``wall_seconds`` is policed from the parent (the worker may be hung
    and unable to police itself); ``rss_mb`` is enforced inside the
    worker via ``resource.setrlimit(RLIMIT_AS)`` so an over-allocation
    surfaces as ``MemoryError`` -> ``MEMOUT`` rather than an OOM kill.
    """

    wall_seconds: Optional[float] = None
    rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")
        if self.rss_mb is not None and self.rss_mb <= 0:
            raise ValueError("rss_mb must be positive")

    @property
    def unlimited(self) -> bool:
        return self.wall_seconds is None and self.rss_mb is None


#: Backoff before the first retry; each further retry doubles it.
RETRY_BACKOFF_SECONDS = 0.5

#: Upper bound on any single retry backoff.
RETRY_BACKOFF_CAP_SECONDS = 30.0


def retry_delay(attempt: int) -> float:
    """Backoff before retrying failed attempt ``attempt`` (1-based).

    ``min(RETRY_BACKOFF_SECONDS * 2**(attempt-1), RETRY_BACKOFF_CAP_SECONDS)``
    — deterministic on purpose, so sweeps are reproducible.  Only
    ``ERROR`` is ever retried: timeouts and memouts are deterministic for
    a fixed budget, so retrying them burns budget to reproduce the same
    failure.
    """
    raw = RETRY_BACKOFF_SECONDS * (2.0 ** max(attempt - 1, 0))
    return min(raw, RETRY_BACKOFF_CAP_SECONDS)


# ---------------------------------------------------------------------------
# Deterministic fault injection

#: Legal fault kinds, applied inside the worker before the solve starts.
FAULT_KINDS = ("raise", "hang", "kill", "memout", "slow")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what goes wrong, and on which attempts.

    ``attempts=N`` injects on attempts 1..N and lets later attempts run
    clean — the shape of a *transient* failure.  ``attempts=None``
    injects every time (a *permanent* failure).
    """

    kind: str
    attempts: Optional[int] = None
    seconds: float = 0.05
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.attempts is not None and self.attempts < 1:
            raise ValueError("attempts must be >= 1 or None")

    def applies(self, attempt: int) -> bool:
        return self.attempts is None or attempt <= self.attempts

    def trigger(self) -> None:
        """Execute the fault inside the worker process."""
        if self.kind == "raise":
            raise RuntimeError(self.message)
        if self.kind == "hang":
            time.sleep(_HANG_SECONDS)
            raise RuntimeError("injected hang outlived the supervisor")
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if self.kind == "memout":
            raise MemoryError(self.message)
        if self.kind == "slow":
            time.sleep(self.seconds)
        # "slow" falls through: the task then runs normally.


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic map from task index to injected fault.

    The plan is pickled into each worker alongside the task, so faults
    fire inside the supervised process — exactly where real failures
    happen — while the choice of *which* task fails stays fully
    deterministic and sleep-free in the test suite.
    """

    faults: Dict[int, Fault] = field(default_factory=dict)

    def fault_for(self, index: int, attempt: int) -> Optional[Fault]:
        fault = self.faults.get(index)
        if fault is not None and fault.applies(attempt):
            return fault
        return None


# ---------------------------------------------------------------------------
# Worker side


def _apply_memory_limit(rss_mb: float) -> None:
    """Best-effort address-space cap; a breach raises ``MemoryError``."""
    try:
        import resource
    except ImportError:  # non-POSIX: budget becomes parent-side only
        return
    limit = int(rss_mb * 1024 * 1024)
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):
        pass  # container forbids it; wall-clock budget still applies


def _worker_entry(conn, task, attempt: int, budget: Optional[WorkerBudget],
                  fault: Optional[Fault]) -> None:
    """Run one attempt of one task and ship the result over ``conn``.

    Every outcome — success, budget-UNKNOWN, or failure — is reported as
    a ``(kind, payload)`` message; the parent never has to parse a
    traceback out of a dead pipe.
    """
    # Imported here, not at module top: keeps the worker spawn path slim
    # and avoids import cycles (runner imports supervisor).
    from repro.parallel.runner import execute_task

    try:
        if budget is not None and budget.rss_mb is not None:
            _apply_memory_limit(budget.rss_mb)
        if fault is not None:
            fault.trigger()
        outcome = execute_task(task)
        conn.send(("ok", outcome.as_payload()))
    except MemoryError as exc:
        try:
            conn.send(("memout", f"MemoryError: {exc}"))
        except (OSError, ValueError, MemoryError):
            pass
    except BaseException as exc:  # noqa: BLE001 - report, don't leak
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side


@dataclass
class TaskFailure:
    """Parent-side classification of one failed attempt."""

    status: Status
    message: str
    #: Wall-clock of the failed attempt as measured by the supervisor —
    #: the real cost of a timeout or crash, which the worker itself can
    #: no longer report.
    wall_seconds: float = 0.0


@dataclass
class _Running:
    """Book-keeping for one in-flight worker process."""

    index: int
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    deadline: Optional[float]
    started: float = 0.0
    #: Effective wall budget behind ``deadline`` (for the failure message).
    wall_budget: Optional[float] = None


@dataclass
class _Queued:
    """One schedulable attempt (possibly deferred by retry backoff)."""

    index: int
    attempt: int = 1
    not_before: float = 0.0


class Supervisor:
    """Run tasks in per-task worker processes under budgets and retry.

    ``run`` executes every ``(index, task)`` pair and reports each
    terminal result exactly once through ``on_complete(index, kind,
    payload_or_failure, attempts)`` where ``kind`` is ``"ok"`` (payload
    dict from the worker) or ``"failed"`` (:class:`TaskFailure`).
    Results are reported as they finish; callers that need task order
    index into a preallocated list, as :class:`ParallelRunner` does.
    """

    def __init__(
        self,
        workers: int = 1,
        budget: Optional[WorkerBudget] = None,
        retries: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        on_retry: Optional[Callable[[int, int, Status], None]] = None,
        on_start: Optional[Callable[[int, int], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = workers
        self.budget = budget or WorkerBudget()
        #: Extra attempts a task that failed with ``ERROR`` may make.
        self.retries = retries
        self.fault_plan = fault_plan
        self.on_retry = on_retry
        #: Called as ``on_start(index, attempt)`` right after a worker
        #: process launches — the trace hook for ``task-start`` events.
        self.on_start = on_start
        self._ctx = multiprocessing.get_context()

    # -- scheduling -------------------------------------------------------

    def run(
        self,
        items: Sequence[Tuple[int, object]],
        on_complete: Callable[[int, str, object, int], None],
    ) -> None:
        tasks = dict(items)
        queue: List[_Queued] = [_Queued(index=index) for index, _ in items]
        running: Dict[int, _Running] = {}

        try:
            while queue or running:
                now = time.monotonic()
                self._launch_ready(queue, running, tasks, now)
                self._wait(queue, running, now)
                self._collect(queue, running, on_complete)
                self._reap_timeouts(queue, running, on_complete)
        finally:
            for slot in running.values():  # interrupted: leave no orphans
                self._kill(slot)

    def _launch_ready(self, queue, running, tasks, now) -> None:
        """Start queued attempts while worker slots are free."""
        queue.sort(key=lambda q: (q.not_before, q.index))
        while queue and len(running) < self.workers:
            if queue[0].not_before > now:
                break  # earliest deferred retry is still backing off
            item = queue.pop(0)
            fault = None
            if self.fault_plan is not None:
                fault = self.fault_plan.fault_for(item.index, item.attempt)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_entry,
                args=(child_conn, tasks[item.index], item.attempt,
                      self.budget, fault),
                daemon=True,
            )
            process.start()
            child_conn.close()  # parent keeps only the read end
            started = time.monotonic()
            # Per-task wall budgets (deadline propagation from the solve
            # service) tighten the supervisor-wide budget, never loosen it.
            wall = self.budget.wall_seconds
            task_wall = getattr(
                tasks[item.index], "wall_budget_seconds", None
            )
            if task_wall is not None:
                wall = task_wall if wall is None else min(wall, task_wall)
            deadline = None if wall is None else started + wall
            running[item.index] = _Running(
                index=item.index, attempt=item.attempt,
                process=process, conn=parent_conn, deadline=deadline,
                started=started, wall_budget=wall,
            )
            if self.on_start is not None:
                self.on_start(item.index, item.attempt)

    def _wait(self, queue, running, now) -> None:
        """Block until a worker reports, times out, or a retry matures."""
        if not running:
            if queue:  # all runnable work is backing off: sleep it out
                wake = min(q.not_before for q in queue)
                if wake > now:
                    time.sleep(min(wake - now, 0.25))
            return
        timeout: Optional[float] = None
        deadlines = [s.deadline for s in running.values() if s.deadline]
        if deadlines:
            timeout = max(min(deadlines) - now, 0.0)
        pending_wakes = [q.not_before for q in queue if q.not_before > now]
        if pending_wakes and len(running) < self.workers:
            wake = min(pending_wakes) - now
            timeout = wake if timeout is None else min(timeout, wake)
        multiprocessing.connection.wait(
            [slot.conn for slot in running.values()], timeout=timeout
        )

    def _collect(self, queue, running, on_complete) -> None:
        """Drain every connection that has a message or hit EOF."""
        ready = multiprocessing.connection.wait(
            [slot.conn for slot in running.values()], timeout=0
        )
        by_conn = {slot.conn: slot for slot in running.values()}
        for conn in ready:
            slot = by_conn[conn]
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                self._finish_dead(slot, queue, running, on_complete)
                continue
            self._join(slot)
            del running[slot.index]
            if kind == "ok":
                on_complete(slot.index, "ok", payload, slot.attempt)
            else:
                status = Status.MEMOUT if kind == "memout" else Status.ERROR
                self._fail_or_retry(
                    slot,
                    TaskFailure(
                        status, str(payload),
                        wall_seconds=self._elapsed(slot),
                    ),
                    queue, on_complete,
                )

    def _finish_dead(self, slot, queue, running, on_complete) -> None:
        """Worker died without reporting: classify by exit code."""
        self._join(slot)
        del running[slot.index]
        code = slot.process.exitcode
        elapsed = self._elapsed(slot)
        if code == -signal.SIGKILL and self.budget.rss_mb is not None:
            # SIGKILL under a memory budget is the OOM-killer signature.
            failure = TaskFailure(
                Status.MEMOUT,
                f"worker killed (exit {code}) under memory budget",
                wall_seconds=elapsed,
            )
        else:
            failure = TaskFailure(
                Status.ERROR,
                f"worker died without result (exit {code})",
                wall_seconds=elapsed,
            )
        self._fail_or_retry(slot, failure, queue, on_complete)

    def _reap_timeouts(self, queue, running, on_complete) -> None:
        """Kill and classify every worker past its wall-clock deadline."""
        now = time.monotonic()
        expired = [s for s in running.values()
                   if s.deadline is not None and now >= s.deadline]
        for slot in expired:
            # A result may have raced in just before the deadline check.
            if slot.conn.poll(0):
                continue  # picked up by the next _collect pass
            self._kill(slot)
            del running[slot.index]
            failure = TaskFailure(
                Status.TIMEOUT,
                f"wall-clock budget ({slot.wall_budget:.3g}s) exceeded",
                wall_seconds=self._elapsed(slot),
            )
            self._fail_or_retry(slot, failure, queue, on_complete)

    def _fail_or_retry(self, slot, failure, queue, on_complete) -> None:
        if failure.status is Status.ERROR and slot.attempt <= self.retries:
            if self.on_retry is not None:
                self.on_retry(slot.index, slot.attempt, failure.status)
            delay = retry_delay(slot.attempt)
            queue.append(_Queued(
                index=slot.index,
                attempt=slot.attempt + 1,
                not_before=time.monotonic() + delay,
            ))
        else:
            on_complete(slot.index, "failed", failure, slot.attempt)

    # -- process plumbing -------------------------------------------------

    @staticmethod
    def _elapsed(slot: _Running) -> float:
        """Attempt wall-clock so far, from the supervisor's own clock."""
        return max(0.0, time.monotonic() - slot.started)

    def _kill(self, slot: _Running) -> None:
        try:
            slot.process.kill()
        except (OSError, AttributeError):
            pass
        self._join(slot)

    def _join(self, slot: _Running) -> None:
        slot.process.join(timeout=_JOIN_SECONDS)
        try:
            slot.conn.close()
        except OSError:
            pass
