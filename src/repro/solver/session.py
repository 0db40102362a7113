"""IPASIR-style incremental solving sessions.

:class:`SolverSession` is the warm-restart facade over
:class:`~repro.solver.solver.Solver`: one long-lived solver instance
answers a *sequence* of closely related queries, keeping everything a
fresh solver would have to rebuild — learned clauses, VSIDS
activity and saved phases, Luby restart state, and the flat clause arena
itself — alive between calls.  The interface follows
IPASIR's shape:

``add(*literals)``
    Add one clause between solves (DIMACS literals).
``assume(*literals)``
    Queue assumption literals for the *next* ``solve()`` call only;
    IPASIR semantics — assumptions never persist across calls.
``solve(...)``
    Run CDCL under the queued (or explicitly passed) assumptions.
    Unlike :meth:`Solver.solve`, the ``max_conflicts`` /
    ``max_propagations`` / ``max_decisions`` budgets here are
    **per-call**: they are translated into absolute counter targets on
    top of whatever previous calls already spent, so every call gets
    the full budget it asked for.
``failed()``
    The failed-assumption core of the most recent
    UNSAT-under-assumptions answer (MiniSat's ``analyzeFinal``), as
    DIMACS literals; ``failed(lit)`` tests membership.

The differential battery in ``tests/test_sessions.py`` and the fuzz
bank's incremental oracle pin warm answers to fresh-solver re-solves on
random clause/assumption schedules.

Variables are declared up front (``SolverSession(num_vars=...)`` or via
the seed formula): the watcher tables and trail are sized once, which
is what keeps the hot path allocation-free.  ``add`` rejects literals
outside that range, exactly like :meth:`Solver.add_clause`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from repro.cnf.formula import CNF
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.policies.base import DeletionPolicy
from repro.solver.proof import ProofLog
from repro.solver.solver import Solver, SolverConfig, SolveResult
from repro.solver.types import Status


class SolverSession:
    """One warm incremental solving session over a single solver."""

    def __init__(
        self,
        formula: Union[CNF, int],
        policy: Optional[DeletionPolicy] = None,
        config: Optional[SolverConfig] = None,
        proof: Optional[ProofLog] = None,
        observer: Optional[Observer] = None,
        session_id: Optional[str] = None,
    ):
        """Open a session over ``formula`` (a :class:`CNF`, or an int
        declaring ``num_vars`` over an initially empty formula)."""
        if isinstance(formula, int):
            if formula < 0:
                raise ValueError("num_vars must be >= 0")
            formula = CNF(clauses=[], num_vars=formula)
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.solver = Solver(
            formula,
            policy=policy,
            config=config,
            proof=proof,
            observer=observer,
        )
        self.id = session_id or ""
        #: Completed ``solve()`` calls in this session.
        self.solves = 0
        #: Clauses added through :meth:`add` (not counting the seed formula).
        self.added_clauses = 0
        self._pending: List[int] = []
        self._failed: List[int] = []
        self._last_status: Optional[Status] = None

    # -- introspection -----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.solver.num_vars

    @property
    def cnf(self) -> CNF:
        """The accumulated formula (the solver's own copy once grown)."""
        return self.solver.cnf

    @property
    def last_status(self) -> Optional[Status]:
        return self._last_status

    # -- the IPASIR-shaped surface ----------------------------------------

    def add(self, *literals: int) -> "SolverSession":
        """Add one clause (DIMACS literals); returns self for chaining."""
        if len(literals) == 1 and isinstance(literals[0], (list, tuple)):
            literals = tuple(literals[0])
        self.solver.add_clause(literals)
        self.added_clauses += 1
        return self

    def assume(self, *literals: int) -> "SolverSession":
        """Queue assumptions for the next ``solve()`` call only."""
        if len(literals) == 1 and isinstance(literals[0], (list, tuple)):
            literals = tuple(literals[0])
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise ValueError("0 is not a literal")
            if abs(lit) > self.num_vars:
                raise ValueError(
                    f"assumption on unknown variable {abs(lit)} "
                    f"(session declares {self.num_vars})"
                )
            self._pending.append(lit)
        return self

    def solve(
        self,
        assumptions: Optional[Sequence[int]] = None,
        max_conflicts: Optional[int] = None,
        max_propagations: Optional[int] = None,
        max_decisions: Optional[int] = None,
    ) -> SolveResult:
        """Solve under the queued (or given) assumptions; budgets are
        per-call.

        Passing ``assumptions`` explicitly *replaces* anything queued
        via :meth:`assume` for this call.  Either way the assumption
        set is cleared afterwards (IPASIR semantics).
        """
        if assumptions is None:
            assumed = list(self._pending)
        else:
            assumed = [int(lit) for lit in assumptions]
        self._pending.clear()
        stats = self.solver.stats
        result = self.solver.solve(
            assumptions=assumed,
            max_conflicts=self._absolute(max_conflicts, stats.conflicts),
            max_propagations=self._absolute(
                max_propagations, stats.propagations
            ),
            max_decisions=self._absolute(max_decisions, stats.decisions),
        )
        self.solves += 1
        self._last_status = result.status
        self._failed = list(result.core or [])
        if self.observer.tracing:
            self.observer.event(
                "session-solve",
                session=self.id,
                call=self.solves,
                status=result.status.name,
                assumptions=len(assumed),
                failed=len(self._failed),
                clauses=self.solver.cnf.num_clauses,
                learned=self.solver.stats.learned_clauses,
            )
        return result

    def failed(self, literal: Optional[int] = None):
        """Failed-assumption core of the last UNSAT-under-assumptions
        answer.

        With no argument, returns the core as a list of DIMACS
        literals (empty unless the last call was UNSAT under
        assumptions).  With a literal, returns whether it is in that
        core — IPASIR's ``ipasir_failed``.
        """
        if literal is None:
            return list(self._failed)
        return int(literal) in self._failed

    def set_policy(self, policy: DeletionPolicy) -> None:
        """Swap the clause-deletion policy without losing warm state.

        The drift-aware selector uses this when a session's formula has
        drifted enough to change the predicted label: the solver keeps
        its learned clauses, phases, and activities — only the reduce
        scheduler's scoring changes.
        """
        self.solver.policy = policy
        self.solver.reducer.policy = policy

    @property
    def policy_name(self) -> str:
        return self.solver.policy.name

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _absolute(budget: Optional[int], spent: int) -> Optional[int]:
        """Translate a per-call budget into an absolute counter target."""
        if budget is None:
            return None
        return spent + max(0, int(budget))


def replay_schedule(
    session: SolverSession, steps: Iterable[Sequence]
) -> List[SolveResult]:
    """Run a recorded schedule of ``("add", lits)`` / ``("solve", lits)``
    steps against a session; returns the results of the solve steps.

    The differential battery and the fuzz bank's incremental oracle both
    speak this schedule format, so a failing schedule can be replayed
    verbatim.
    """
    results: List[SolveResult] = []
    for step in steps:
        op, lits = step[0], list(step[1])
        if op == "add":
            session.add(*lits)
        elif op == "solve":
            results.append(session.solve(assumptions=lits))
        else:
            raise ValueError(f"unknown schedule op {op!r}")
    return results

