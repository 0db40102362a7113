"""Sticky solve sessions for the service: warm solvers, cached policy.

One :class:`ServeSession` owns a long-lived
:class:`~repro.solver.session.SolverSession` (warm learned clauses,
phases, and clause arena) plus a
:class:`~repro.selection.session.SelectorSession` (drift-gated policy
inference), so correlated traffic — a client solving a family of
closely related formulas — skips both graph construction and the HGT
forward pass on most calls, and every solve after the first starts from
the previous call's learned state.

The :class:`SessionManager` is the service-side registry:

* ``create`` admits a new session (capacity-capped like the request
  queue: beyond ``ServeConfig.max_sessions`` it rejects with 429);
* sessions are evicted after ``ServeConfig.session_ttl`` idle seconds
  — eviction is lazy (checked on every create/lookup) plus a sweep from
  the service's stats path, so an abandoned session costs memory only
  until the next touch of the manager;
* each session re-runs inference once its formula drifts past
  ``ServeConfig.session_drift_threshold``, deciding through the
  service's shared :class:`~repro.selection.selector.DecisionRule`;
* ``solve`` serializes calls *within* a session behind an
  ``asyncio.Lock`` (incremental state is inherently sequential) while
  distinct sessions solve concurrently on the executor.

Unlike one-shot ``/solve`` requests, session solves run **in-process**
(on the event loop's thread pool), not through the supervised
:class:`~repro.parallel.runner.ParallelRunner`: warm solver state
cannot cross a process boundary, so sessions trade per-request process
isolation for state reuse.  Budgets are still clamped to the service's
conflict caps, and the caps are *per call* (the session facade
translates them on top of counters already spent).

Trace events: ``session-start`` / ``session-solve`` /
``session-select`` / ``session-evict`` / ``session-end``, all carrying
the session id, plus the ``session.embedding_reuse`` /
``session.embedding_recompute`` counters — the embedding-reuse
amortization is measured from these in the CI session-smoke job.
Session totals (created, evicted, solves) are the plain counts in
:meth:`SessionManager.stats`.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cnf.formula import CNF
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.policies.registry import get_policy
from repro.selection.selector import DecisionRule
from repro.selection.session import SelectorSession
from repro.serve.protocol import AdmissionError
from repro.solver.session import SolverSession
from repro.solver.types import Status

if TYPE_CHECKING:
    from repro.serve.service import ServeConfig


def new_serve_session_id() -> str:
    """Service session identifier (``s-`` + 12 hex chars)."""
    return "s-" + uuid.uuid4().hex[:12]


class ServeSession:
    """One client's sticky session: warm solver + cached policy choice."""

    def __init__(
        self,
        session_id: str,
        solver: SolverSession,
        selector: SelectorSession,
        ttl: float,
    ):
        self.id = session_id
        self.solver = solver
        self.selector = selector
        self.ttl = ttl
        self.created = time.monotonic()
        self.last_used = self.created
        self.solves = 0
        self.lock = asyncio.Lock()

    def touch(self) -> None:
        self.last_used = time.monotonic()

    @property
    def idle_seconds(self) -> float:
        return time.monotonic() - self.last_used

    @property
    def expired(self) -> bool:
        return self.idle_seconds > self.ttl

    def snapshot(self) -> Dict[str, object]:
        """The ``GET /sessions/<id>`` payload."""
        last = self.solver.last_status
        return {
            "id": self.id,
            "num_vars": self.solver.num_vars,
            "num_clauses": self.solver.cnf.num_clauses,
            "solves": self.solves,
            "policy": self.solver.policy_name,
            "ttl": self.ttl,
            "idle_seconds": round(self.idle_seconds, 3),
            "last_status": last.value if last is not None else None,
            "selector": self.selector.stats(),
        }


class SessionManager:
    """Registry, TTL eviction, and solve path for sticky sessions."""

    def __init__(
        self,
        model,
        config: "ServeConfig",
        rule: Optional[DecisionRule] = None,
        observer: Observer = NULL_OBSERVER,
    ):
        self.model = model
        self.config = config
        self.rule = rule or DecisionRule.for_model(model)
        self.observer = observer
        self.sessions: Dict[str, ServeSession] = {}
        self.total_created = 0
        self.total_evicted = 0
        self.total_closed = 0
        self.total_solves = 0

    # -- lifecycle ---------------------------------------------------------

    def create(
        self, cnf: Optional[CNF] = None, num_vars: Optional[int] = None
    ) -> ServeSession:
        """Open a session over ``cnf`` (or an empty ``num_vars``-variable
        formula); raises :class:`AdmissionError` at capacity."""
        self.evict_expired()
        config = self.config
        if len(self.sessions) >= config.max_sessions:
            raise AdmissionError(
                f"session capacity reached "
                f"({len(self.sessions)}/{config.max_sessions})",
                retry_after=config.session_ttl / 10.0,
                reason="sessions-full",
            )
        if cnf is None:
            cnf = CNF(clauses=[], num_vars=int(num_vars or 0))
        session_id = new_serve_session_id()
        selector = SelectorSession(
            self.model,
            drift_threshold=config.session_drift_threshold,
            rule=self.rule,
            observer=self.observer,
            session_id=session_id,
        )
        solver = SolverSession(
            cnf,
            observer=self.observer,
            session_id=session_id,
        )
        session = ServeSession(session_id, solver, selector, config.session_ttl)
        self.sessions[session_id] = session
        self.total_created += 1
        self.observer.event(
            "session-start",
            session=session_id,
            num_vars=solver.num_vars,
            num_clauses=solver.cnf.num_clauses,
            ttl=session.ttl,
            drift_threshold=config.session_drift_threshold,
        )
        return session

    def get(self, session_id: str) -> Optional[ServeSession]:
        """Look up a live session (evicting anything already expired)."""
        self.evict_expired()
        return self.sessions.get(session_id)

    def close(self, session_id: str) -> bool:
        """Explicitly end a session; True if it existed."""
        session = self.sessions.pop(session_id, None)
        if session is None:
            return False
        self.total_closed += 1
        self.observer.event(
            "session-end",
            session=session_id,
            reason="closed",
            solves=session.solves,
            selections=session.selector.selections,
            embedding_reuses=session.selector.reuses,
        )
        return True

    def evict_expired(self) -> int:
        """Drop every session idle past its TTL; returns the count."""
        expired = [s for s in self.sessions.values() if s.expired]
        for session in expired:
            self.sessions.pop(session.id, None)
            self.total_evicted += 1
            self.observer.event(
                "session-evict",
                session=session.id,
                reason="idle",
                idle_seconds=round(session.idle_seconds, 3),
                solves=session.solves,
            )
        return len(expired)

    def close_all(self, reason: str = "shutdown") -> None:
        """End every live session (service stop path)."""
        for session_id in list(self.sessions):
            session = self.sessions.pop(session_id)
            self.total_closed += 1
            self.observer.event(
                "session-end",
                session=session_id,
                reason=reason,
                solves=session.solves,
                selections=session.selector.selections,
                embedding_reuses=session.selector.reuses,
            )

    # -- the solve path ----------------------------------------------------

    async def solve(
        self,
        session: ServeSession,
        add: Sequence[Sequence[int]] = (),
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> Dict[str, object]:
        """One incremental solve call: add clauses, (re)select the
        policy, solve under assumptions.  Serialized per session."""
        loop = asyncio.get_running_loop()
        async with session.lock:
            session.touch()
            payload = await loop.run_in_executor(
                None,
                self._solve_sync,
                session,
                [list(c) for c in add],
                [int(lit) for lit in assumptions],
                max_conflicts,
            )
            session.touch()
        return payload

    def _solve_sync(
        self,
        session: ServeSession,
        add: List[List[int]],
        assumptions: List[int],
        max_conflicts: Optional[int],
    ) -> Dict[str, object]:
        start = time.perf_counter()
        for clause in add:
            session.solver.add(*clause)
        selection = session.selector.select(session.solver.cnf)
        if selection.policy != session.solver.policy_name:
            session.solver.set_policy(get_policy(selection.policy))
        result = session.solver.solve(
            assumptions=assumptions,
            max_conflicts=self.config.budget(max_conflicts),
        )
        session.solves += 1
        self.total_solves += 1
        payload: Dict[str, object] = {
            "session": session.id,
            "call": session.solves,
            "status": result.status.value,
            "policy": selection.policy,
            "label": selection.label,
            "reused_embedding": selection.reused,
            "drift_distance": round(selection.distance, 6),
            "num_clauses": session.solver.cnf.num_clauses,
            "wall_seconds": round(time.perf_counter() - start, 6),
        }
        if result.status is Status.SATISFIABLE and result.model is not None:
            payload["model"] = [
                v if result.model[v] else -v
                for v in range(1, session.solver.num_vars + 1)
            ]
        if result.core is not None:
            payload["failed"] = list(result.core)
        return payload

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Session counters for ``/healthz`` (sweeps expired first)."""
        self.evict_expired()
        reuses = sum(s.selector.reuses for s in self.sessions.values())
        passes = sum(
            s.selector.inference_passes for s in self.sessions.values()
        )
        return {
            "active": len(self.sessions),
            "created": self.total_created,
            "evicted": self.total_evicted,
            "closed": self.total_closed,
            "solves": self.total_solves,
            "live_embedding_reuses": reuses,
            "live_inference_passes": passes,
        }
