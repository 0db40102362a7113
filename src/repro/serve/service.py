"""The solve service: admission, batched inference, supervised solving.

:class:`SolveService` is the long-lived core behind ``repro serve``.
The pipeline per request::

    submit() --admission--> [inference queue] --flush--> HGT forward pass
                                                             |
    response <-- journal/cache or ParallelRunner <-- [solve queue]

Three asyncio components, mirroring the executor/orchestrator split of
job-runner systems:

* the **front door** (:meth:`submit`) applies admission control — a hard
  queue-depth cap (reject with 429 rather than building unbounded
  backlog), per-request conflict budgets clamped to a service cap, and
  deadline shedding: a client deadline the smoothed queue wait already
  makes infeasible is refused up front with a ``Retry-After`` hint;
* the :class:`~repro.serve.batcher.InferenceBatcher` coalesces queued
  requests into one batched HGT forward pass, work-conserving: a pass
  starts as soon as the batcher is free and takes everything queued
  (up to ``max_batch``); instances over the
  :class:`~repro.selection.selector.DecisionRule` node cap skip it;
* the **solve pool** drains classified requests and fans each group out
  through one shared :class:`~repro.parallel.runner.ParallelRunner` —
  supervised worker processes with wall-clock/memory budgets, the
  on-disk result cache, and the append-only journal.  Groups run
  serially through the runner (the journal is single-writer by
  design); parallelism lives *inside* a group, across its worker
  processes.

Restart survival comes from the journal: a service restarted with the
same journal path answers already-completed (formula, policy, budget)
triples from disk without re-solving — the same ``--resume`` contract
sweeps rely on.  Graceful shutdown (``stop(drain=True)``) stops
admissions (new submissions get 503), then drains both queues to empty
before exiting, so an orderly restart loses nothing at all.

Resilience (all opt-in via :class:`ServeConfig`; see
:mod:`repro.serve.resilience` and ``docs/serving.md``): a circuit
breaker over the inference path serves default-policy answers tagged
``degraded`` while the model is sick, and per-request deadlines are
propagated into the conflict and supervisor wall budgets so no worker
outlives its request.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.cnf.formula import CNF
from repro.nn import blas
from repro.obs.metrics import TIME_BUCKETS
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.parallel.runner import ParallelRunner, SolveOutcome, SolveTask
from repro.selection.selector import DecisionRule
from repro.selection.session import DEFAULT_DRIFT_THRESHOLD
from repro.serve.batcher import InferenceBatcher
from repro.serve.protocol import (
    HTTP_NOT_ACCEPTING,
    AdmissionError,
    RequestState,
    ServeRequest,
)
from repro.serve.resilience import (
    BreakerConfig,
    CircuitBreaker,
    clamp_conflicts_to_deadline,
)
from repro.serve.sessions import SessionManager
from repro.solver import kernel
from repro.solver.types import Status


#: Terminal requests kept queryable via ``GET /jobs/<id>``.
HISTORY_LIMIT = 1024


@dataclass
class ServeConfig:
    """Tunables of one service instance (see ``repro serve --help``).

    The one place a serve setting and its default are declared: the
    batcher, the session manager and the ``repro serve`` parser all
    read it.  An out-of-range value raises :class:`ValueError` here.
    """

    # -- inference batching ----------------------------------------------
    max_batch: int = 16            # most requests in one forward pass
    # -- admission control and budgets -----------------------------------
    max_queue_depth: int = 64      # in-flight request cap; beyond is 429
    default_max_conflicts: int = 100_000  # budget when the request names none
    max_conflicts_cap: int = 1_000_000    # hard per-request budget ceiling
    # -- solve execution --------------------------------------------------
    workers: int = 1               # processes per solve group
    task_timeout: Optional[float] = None   # per-request wall budget, seconds
    memory_limit_mb: Optional[float] = None
    cache_dir: Optional[str] = None
    journal: Optional[str] = None  # restart-survival ledger
    # -- resilience (all off by default: zero overhead) -------------------
    #: Circuit breaker over the inference path (None: unguarded).
    breaker: Optional[BreakerConfig] = None
    #: Hard cap on one batched forward pass, seconds (None: uncapped).
    inference_timeout: Optional[float] = None
    #: Calibration rate turning a request's remaining deadline into an
    #: affordable conflict budget (see resilience module docs).
    conflicts_per_second: float = 25_000.0
    # -- sticky sessions (repro.serve.sessions) ---------------------------
    #: Idle seconds before a session is evicted.
    session_ttl: float = 300.0
    #: Concurrent live sessions; beyond it ``POST /sessions`` is 429.
    max_sessions: int = 64
    #: Expert-feature drift past which a session re-runs HGT inference.
    session_drift_threshold: float = DEFAULT_DRIFT_THRESHOLD

    def __post_init__(self) -> None:
        for name in ("max_batch", "max_queue_depth", "default_max_conflicts",
                     "max_conflicts_cap", "workers", "max_sessions"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.session_drift_threshold < 0:
            raise ValueError(
                "session_drift_threshold must be >= 0, "
                f"got {self.session_drift_threshold}"
            )
        for name in ("task_timeout", "memory_limit_mb", "inference_timeout",
                     "conflicts_per_second", "session_ttl"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def budget(self, max_conflicts: Optional[int]) -> int:
        """A request's conflict budget: ``default_max_conflicts`` when it
        names none, clamped to ``[1, max_conflicts_cap]``."""
        budget = (
            self.default_max_conflicts
            if max_conflicts is None
            else int(max_conflicts)
        )
        return max(1, min(budget, self.max_conflicts_cap))


_STOP = object()


class SolveService:
    """Asynchronous solve service with batched policy inference."""

    def __init__(
        self,
        model=None,
        config: Optional[ServeConfig] = None,
        observer: Observer = NULL_OBSERVER,
    ):
        self.config = config = config or ServeConfig()
        self.model = model
        self.observer = observer
        self.breaker = (
            CircuitBreaker(config.breaker, observer=observer)
            if config.breaker is not None
            else None
        )
        # One decision rule for batched and session inference alike.
        rule = DecisionRule.for_model(model)
        self.batcher = InferenceBatcher(
            model, config, rule, breaker=self.breaker, observer=observer
        )
        self.runner = ParallelRunner(
            workers=config.workers,
            cache_dir=config.cache_dir,
            task_timeout=config.task_timeout,
            memory_limit_mb=config.memory_limit_mb,
            journal=config.journal,
            observer=observer,
        )
        self.sessions = SessionManager(model, config, rule, observer=observer)
        self.requests: Dict[str, ServeRequest] = {}
        self.accepting = False
        # The service's counts, live even with observability off;
        # ``/healthz`` reports them and ``/metrics`` exports them as
        # ``serve_*`` gauges (the registry holds no second copy).
        self.total_requests = 0
        self.total_responses = 0
        self.total_rejected = 0
        self.total_cancelled = 0
        self.total_degraded = 0
        self.total_shed = 0
        self.total_deadline_missed = 0
        # Smoothed submit->flush wait, the admission-time feasibility
        # estimate for deadline shedding (None until the first response).
        self._wait_ewma: Optional[float] = None
        self._tasks: Dict[str, asyncio.Task] = {}
        self._terminal_order: Deque[str] = deque()
        self._solve_queue: "asyncio.Queue[object]" = asyncio.Queue()
        self._solve_task: Optional[asyncio.Task] = None
        # Pre-resolved instruments (null when observability is disabled).
        self._wall_hist = observer.histogram(
            "serve.request_wall_seconds", TIME_BUCKETS
        )
        self._wait_hist = observer.histogram(
            "serve.queue_wait_seconds", TIME_BUCKETS
        )
        self._deadline_miss_hist = observer.histogram(
            "serve.deadline_miss_seconds", TIME_BUCKETS
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the batcher and the solve pool; begin accepting.

        Forward passes run back to back beside the solver thread, so
        numpy's BLAS is first pinned to one thread (see
        :mod:`repro.nn.blas`): its spinning helpers would take the core
        the solver needs.
        """
        blas.single_threaded()
        await self.batcher.start()
        if self._solve_task is None:
            self._solve_task = asyncio.create_task(self._solve_loop())
        self.accepting = True

    async def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` every admitted request completes.

        ``drain=True`` (graceful): stop admissions, wait for all
        in-flight requests to reach a terminal state, then stop the
        pipeline loops.  ``drain=False``: cancel in-flight requests
        (they report CANCELLED) and stop immediately.
        """
        self.accepting = False
        active = [
            task for task in self._tasks.values() if not task.done()
        ]
        if not drain:
            for task in active:
                task.cancel()
        if active:
            await asyncio.gather(*active, return_exceptions=True)
        self.sessions.close_all()
        await self.batcher.stop()
        if self._solve_task is not None:
            await self._solve_queue.put(_STOP)
            await self._solve_task
            self._solve_task = None
        self.observer.event(
            "serve-stop",
            drained=drain,
            requests=self.total_requests,
            responses=self.total_responses,
            rejected=self.total_rejected,
            cancelled=self.total_cancelled,
            degraded=self.total_degraded,
            shed=self.total_shed,
        )
        self.observer.flush()
        if self.runner.journal is not None:
            self.runner.journal.close()

    @property
    def active(self) -> int:
        """Requests admitted but not yet terminal (the queue depth)."""
        return sum(
            1 for r in self.requests.values() if not r.state.terminal
        )

    # -- front door --------------------------------------------------------

    def submit(
        self,
        cnf: CNF,
        max_conflicts: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> ServeRequest:
        """Admit one solve request, or raise :class:`AdmissionError`.

        Budgets: a request naming no conflict budget gets
        ``default_max_conflicts``; every budget is clamped to
        ``max_conflicts_cap``.  The wall-clock budget is the service's
        ``task_timeout``, enforced by the supervisor per attempt —
        further clamped by ``deadline_seconds`` when the client set one,
        so no worker outlives its request.

        A deadline the current queue wait already makes infeasible is
        *shed* here (429 with ``retry_after``) rather than admitted to
        time out — the client learns immediately, and the queue carries
        only requests that can still be answered in time.
        """
        depth = self.active
        if not self.accepting:
            self._reject(
                depth, "not-accepting",
                AdmissionError(
                    "service is not accepting requests",
                    http_code=HTTP_NOT_ACCEPTING,
                    retry_after=5.0,
                    reason="not-accepting",
                ),
            )
        if depth >= self.config.max_queue_depth:
            self._reject(
                depth, "queue-full",
                AdmissionError(
                    f"queue full ({depth}/{self.config.max_queue_depth})",
                    retry_after=1.0,
                    reason="queue-full",
                ),
            )
        if deadline_seconds is not None:
            estimate = self._wait_ewma or 0.0
            if deadline_seconds <= 0 or estimate >= deadline_seconds:
                self.total_shed += 1
                self._reject(
                    depth, "deadline-infeasible",
                    AdmissionError(
                        f"deadline {deadline_seconds:.3g}s infeasible "
                        f"(estimated queue wait {estimate:.3g}s)",
                        retry_after=max(1.0, round(estimate, 1)),
                        reason="deadline-infeasible",
                    ),
                )
        budget = self.config.budget(max_conflicts)
        request = ServeRequest(
            cnf=cnf,
            max_conflicts=budget,
            deadline_seconds=deadline_seconds,
        )
        if deadline_seconds is not None:
            request.deadline_at = request.submitted + deadline_seconds
        self.requests[request.id] = request
        self.total_requests += 1
        fields: Dict[str, object] = dict(
            admitted=True,
            id=request.id,
            queue_depth=depth + 1,
            num_vars=cnf.num_vars,
            num_clauses=cnf.num_clauses,
            max_conflicts=budget,
        )
        if deadline_seconds is not None:
            fields["deadline_seconds"] = deadline_seconds
        self.observer.event("serve-request", **fields)
        self._tasks[request.id] = asyncio.create_task(self._run(request))
        return request

    def _reject(
        self, depth: int, reason: str, error: AdmissionError
    ) -> None:
        """Count, trace, and raise one admission rejection."""
        self.total_rejected += 1
        self.observer.event(
            "serve-request",
            admitted=False,
            queue_depth=depth,
            accepting=self.accepting,
            reason=reason,
        )
        raise error

    def get(self, request_id: str) -> Optional[ServeRequest]:
        """Look up a live or recently terminal request."""
        return self.requests.get(request_id)

    def cancel(self, request_id: str) -> bool:
        """Cancel an in-flight request (client disconnect); True if cut."""
        request = self.requests.get(request_id)
        if request is None or request.state.terminal:
            return False
        task = self._tasks.get(request_id)
        if task is None or task.done():
            return False
        task.cancel()
        return True

    async def wait(self, request_id: str) -> ServeRequest:
        """Block until the request reaches a terminal state."""
        request = self.requests[request_id]
        await request.done.wait()
        return request

    # -- request pipeline --------------------------------------------------

    async def _run(self, request: ServeRequest) -> None:
        try:
            choice = await self.batcher.submit(
                request.cnf,
                on_flush=lambda: request.transition(RequestState.INFERRING),
            )
            request.label = choice.label
            request.policy = choice.policy
            request.probability = choice.probability
            request.used_model = choice.used_model
            request.degraded = choice.degraded
            request.batch_size = choice.batch_size
            request.queue_wait_seconds = choice.queue_wait_seconds
            self._wait_hist.observe(choice.queue_wait_seconds)
            wait = choice.queue_wait_seconds
            self._wait_ewma = (
                wait
                if self._wait_ewma is None
                else 0.8 * self._wait_ewma + 0.2 * wait
            )
            if choice.degraded:
                self.total_degraded += 1
            request.transition(RequestState.SOLVING)
            if (
                request.deadline_at is not None
                and time.perf_counter() >= request.deadline_at
            ):
                # Already too late: spend nothing further on it.
                outcome = SolveOutcome.from_failure(
                    self._task_for(request),
                    Status.TIMEOUT,
                    f"deadline ({request.deadline_seconds:.3g}s) expired "
                    "before solving began",
                    attempts=0,
                )
            else:
                outcome = await self._dispatch_solve(request)
            self._complete(request, outcome)
        except asyncio.CancelledError:
            self.total_cancelled += 1
            request.transition(RequestState.CANCELLED)
            self.observer.event(
                "serve-response",
                id=request.id,
                status="CANCELLED",
                code=request.http_code(),
                wall_seconds=round(
                    time.perf_counter() - request.submitted, 6
                ),
            )
            raise
        except Exception as exc:  # noqa: BLE001 - terminal, never a hang
            # A pipeline bug must still produce a terminal response:
            # watchers and held connections are waiting on `done`.
            if not request.state.terminal:
                self._complete(
                    request,
                    SolveOutcome.from_failure(
                        self._task_for(request),
                        Status.ERROR,
                        f"service pipeline error: "
                        f"{type(exc).__name__}: {exc}",
                        attempts=1,
                    ),
                )
        finally:
            self._retire(request)

    def _complete(self, request: ServeRequest, outcome: SolveOutcome) -> None:
        """Record one terminal outcome and emit its response event."""
        request.outcome = outcome
        request.wall_seconds = time.perf_counter() - request.submitted
        self._wall_hist.observe(request.wall_seconds)
        deadline_missed = False
        if (
            request.deadline_seconds is not None
            and request.wall_seconds > request.deadline_seconds
        ):
            deadline_missed = True
            self.total_deadline_missed += 1
            self._deadline_miss_hist.observe(
                request.wall_seconds - request.deadline_seconds
            )
        self.total_responses += 1
        request.transition(RequestState.DONE)
        fields: Dict[str, object] = dict(
            id=request.id,
            status=outcome.status.value,
            code=request.http_code(),
            policy=request.policy,
            label=request.label,
            batch_size=request.batch_size,
            cached=outcome.cached,
            resumed=outcome.resumed,
            wall_seconds=round(request.wall_seconds, 6),
            queue_wait_seconds=round(request.queue_wait_seconds, 6),
        )
        if request.degraded:
            fields["degraded"] = True
        if deadline_missed:
            fields["deadline_missed"] = True
        self.observer.event("serve-response", **fields)

    def _retire(self, request: ServeRequest) -> None:
        """Bound the terminal-request history at :data:`HISTORY_LIMIT`."""
        self._tasks.pop(request.id, None)
        self._terminal_order.append(request.id)
        while len(self._terminal_order) > HISTORY_LIMIT:
            stale = self._terminal_order.popleft()
            self.requests.pop(stale, None)

    async def _dispatch_solve(self, request: ServeRequest) -> SolveOutcome:
        future: "asyncio.Future[SolveOutcome]" = (
            asyncio.get_running_loop().create_future()
        )
        await self._solve_queue.put((request, future))
        return await future

    def _task_for(self, request: ServeRequest) -> SolveTask:
        """Build the solve task, deadline-clamped at build time.

        The remaining deadline (measured *now*, after queueing and
        inference already spent part of it) clamps both budgets: the
        conflict budget via the calibrated rate, and the supervisor's
        per-attempt wall budget via ``wall_budget_seconds`` — so a
        worker is killed no later than its request's deadline.  The
        wall budget stays out of the task's cache key (it depends on
        queue timing, not on the problem).
        """
        max_conflicts = request.max_conflicts
        wall_budget = self.config.task_timeout
        if request.deadline_at is not None:
            remaining = max(
                0.001, request.deadline_at - time.perf_counter()
            )
            max_conflicts = clamp_conflicts_to_deadline(
                max_conflicts, remaining, self.config.conflicts_per_second
            )
            wall_budget = (
                remaining
                if wall_budget is None
                else min(wall_budget, remaining)
            )
        return SolveTask(
            cnf=request.cnf,
            policy=request.policy,
            max_conflicts=max_conflicts,
            tag=request.id,
            wall_budget_seconds=wall_budget,
        )

    async def _solve_loop(self) -> None:
        """Drain classified requests in groups through the shared runner.

        One group = everything queued at pickup time; requests that
        finished inference together are solved by one ``runner.run``
        call, so the journal/cache lookups and the supervised fan-out
        amortize the same way the inference does.  Groups are serial —
        the journal has exactly one writer.
        """
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._solve_queue.get()
            if item is _STOP:
                break
            group: List[Tuple[ServeRequest, asyncio.Future]] = [item]
            while not self._solve_queue.empty():
                extra = self._solve_queue.get_nowait()
                if extra is _STOP:
                    stopping = True
                    break
                group.append(extra)
            # Cancelled futures (client gone) never reach the solver.
            group = [(req, fut) for req, fut in group if not fut.done()]
            if not group:
                continue
            tasks = [self._task_for(req) for req, _ in group]
            try:
                outcomes = await loop.run_in_executor(
                    None, self.runner.run, tasks
                )
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                # The runner's contract is outcomes-never-exceptions,
                # so this is a dispatch-layer bug — but the futures of
                # this group (and all future groups) must not hang on it.
                outcomes = [
                    SolveOutcome.from_failure(
                        task,
                        Status.ERROR,
                        f"solve dispatch failed: "
                        f"{type(exc).__name__}: {exc}",
                        attempts=1,
                    )
                    for task in tasks
                ]
            for (req, fut), outcome in zip(group, outcomes):
                if not fut.done():
                    fut.set_result(outcome)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Point-in-time service counters (the ``/healthz`` payload),
        plus which solver engine runs (``"c"`` or ``"python"``) and why."""
        engine, engine_reason = kernel.engine_info()
        stats: Dict[str, object] = {
            "accepting": self.accepting,
            "queue_depth": self.active,
            "requests": self.total_requests,
            "responses": self.total_responses,
            "rejected": self.total_rejected,
            "cancelled": self.total_cancelled,
            "degraded": self.total_degraded,
            "shed": self.total_shed,  # deadline sheds (subset of rejected)
            "deadline_missed": self.total_deadline_missed,
            "inference_passes": self.batcher.passes,
            "inference_served": self.batcher.served,
            "inference_failures": self.batcher.failures,
            "sessions": self.sessions.stats(),
            "solver_engine": engine,
            "solver_engine_reason": engine_reason,
        }
        if self.breaker is not None:
            stats["breaker"] = self.breaker.stats()
        return stats
