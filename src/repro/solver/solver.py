"""The CDCL solver: orchestration of all engine components.

Implements the loop of Figure 2: decide -> propagate -> (conflict?
analyze + learn + backjump : extend) with clause deletion, restarts, and
budgets.  The clause-deletion policy is pluggable — exactly the decision
point the paper's selector targets.

The loop runs in C when the compiled kernel is available
(:mod:`repro.solver.kernel`), with the same search step for step, and
otherwise in the pure-Python loop below; reduction, DRAT logging,
observer events and the model check run in Python either way.

Typical use::

    from repro.cnf import random_ksat
    from repro.solver import Solver
    from repro.policies import FrequencyPolicy

    cnf = random_ksat(100, 420, seed=7)
    result = Solver(cnf, policy=FrequencyPolicy()).solve(max_conflicts=50_000)
    if result.status is Status.SATISFIABLE:
        assert cnf.check_model(result.model)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cnf.formula import CNF
from repro.obs.metrics import SMALL_COUNT_BUCKETS
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.policies.base import DeletionPolicy
from repro.policies.default_policy import DefaultPolicy
from repro.solver import kernel
from repro.solver.arena import (
    ArenaConflictAnalyzer,
    ArenaPropagator,
    ArenaTrail,
    ArenaWatchLists,
    ClauseArena,
)
from repro.solver.decide import Decider
from repro.solver.proof import ProofLog
from repro.solver.reduce import ReduceScheduler
from repro.solver.restart import LubyRestarts
from repro.solver.statistics import SolverStatistics
from repro.solver.types import FALSE, TRUE, UNASSIGNED, Model, Status, encode


@dataclass
class SolverConfig:
    """Tunable solver parameters (defaults follow Kissat's shape).

    The search itself is fixed — VSIDS with phase saving, Luby restarts —
    so only the clause-reduction schedule and the restart unit vary.
    """

    luby_base: int = 100
    keep_glue: int = 2  # learned clauses at/below are non-reducible
    reduce_interval: int = 300
    reduce_interval_growth: int = 100
    reduce_fraction: float = 0.5
    protect_used: bool = True

    def __post_init__(self) -> None:
        # A zero Luby unit restarts after every decision, before any
        # conflict: the search never advances and budgets never trip.
        if self.luby_base < 1:
            raise ValueError(f"luby_base must be >= 1, got {self.luby_base}")


@dataclass
class SolveResult:
    """Outcome of :meth:`Solver.solve`."""

    status: Status
    model: Optional[Model] = None
    stats: SolverStatistics = field(default_factory=SolverStatistics)
    policy_name: str = "default"
    #: For UNSAT-under-assumptions answers: the subset of the assumption
    #: literals (DIMACS encoding) that already suffices for
    #: unsatisfiability.  None for plain UNSAT or non-UNSAT results.
    core: Optional[List[int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SATISFIABLE

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSATISFIABLE

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN


def _synced(name: str, doc: str) -> property:
    """A read-only view of ``Solver.<name>``, synced from the kernel first."""

    def get(solver: "Solver"):
        if solver._engine is not None:
            solver._engine.expose()
        return getattr(solver, name)

    return property(get, doc=doc)


class Solver:
    """Conflict-driven clause-learning SAT solver with pluggable deletion.

    ``trail``, ``watches``, ``clause_db``, ``decider``, ``propagator``
    and ``restarts`` expose the engine's Python objects; with the
    compiled loop, reading one first copies the C state back into them.
    """

    def __init__(
        self,
        cnf: CNF,
        policy: Optional[DeletionPolicy] = None,
        config: Optional[SolverConfig] = None,
        proof: Optional[ProofLog] = None,
        observer: Optional[Observer] = None,
    ):
        self.cnf = cnf
        self.config = config or SolverConfig()
        self.policy = policy or DefaultPolicy()
        self.proof = proof
        self.observer = observer if observer is not None else NULL_OBSERVER
        registry = self.observer.registry
        # Kept as None when metrics are off so _install_learned pays a
        # single identity check per learned clause, nothing more.
        self._glue_hist = (
            registry.histogram("solver.learned_glue", SMALL_COUNT_BUCKETS)
            if registry.enabled
            else None
        )

        num_vars = cnf.num_vars
        self.num_vars = num_vars
        self.stats = SolverStatistics()
        metrics = registry if registry.enabled else None
        self._clause_db = ClauseArena(keep_glue=self.config.keep_glue)
        self._trail = ArenaTrail(num_vars, self._clause_db)
        self._watches = ArenaWatchLists(num_vars, self._clause_db)
        self._propagator = ArenaPropagator(
            self._trail, self._watches, self.stats, metrics=metrics
        )
        self._decider = Decider(self._trail)
        self.analyzer = ArenaConflictAnalyzer(
            self._trail, self._clause_db, self.stats, self._decider.bump
        )
        self.reducer = ReduceScheduler(
            self._clause_db,
            self._trail,
            self._watches,
            self._propagator,
            self.stats,
            self.policy,
            interval=self.config.reduce_interval,
            interval_growth=self.config.reduce_interval_growth,
            target_fraction=self.config.reduce_fraction,
            protect_used=self.config.protect_used,
            observer=self.observer,
        )
        self._restarts = LubyRestarts(base=self.config.luby_base)

        # True once the formula is known UNSAT regardless of assumptions.
        self._inconsistent = False
        # Copy-on-write flag: the caller's CNF is never mutated by
        # incremental add_clause.
        self._owns_cnf = False
        # The compiled conflict loop, or None for the pure-Python loop.
        self._engine = kernel.new_engine(self)
        if self._engine is None:
            self._ingest_clauses()
        elif self._engine.ingest(cnf):
            self._mark_inconsistent()

    # With the compiled loop the search state lives in C; reading any of
    # these first copies it back into the same Python objects.
    trail = _synced("_trail", "The assignment trail (:class:`ArenaTrail`).")
    watches = _synced("_watches", "The watch tables (:class:`ArenaWatchLists`).")
    clause_db = _synced("_clause_db", "The clause arena (:class:`ClauseArena`).")
    propagator = _synced("_propagator", "BCP and the Eq. (2) counters.")
    decider = _synced("_decider", "VSIDS activities, heap and saved phases.")
    restarts = _synced("_restarts", "The Luby restart schedule.")

    # -- setup -------------------------------------------------------------

    def _ingest_clauses(self) -> None:
        """Load the original clauses from the formula's flat arrays, as
        the kernel's ``k_ingest`` does: skip tautologies, assign units at
        level 0, attach the rest, and stop at the empty clause or a unit
        falsified by an earlier one."""
        cnf = self.cnf
        lits = cnf.lits
        encoded = (2 * np.abs(lits) + (lits < 0)).tolist()
        bounds = cnf.offsets.tolist()
        for j, tautology in enumerate(cnf.tautology.tolist()):
            if tautology:
                continue
            start, end = bounds[j], bounds[j + 1]
            if start == end:
                self._mark_inconsistent()
                return
            if end - start == 1:
                value = self._trail.value_lit(encoded[start])
                if value == FALSE:
                    self._mark_inconsistent()
                    return
                if value == UNASSIGNED:
                    self._trail.assign(encoded[start], None)
                continue
            solver_clause = self._clause_db.add_original(encoded[start:end])
            self._watches.attach(solver_clause)

    def _mark_inconsistent(self) -> None:
        """Record global unsatisfiability, emitting the proof's empty clause."""
        if not self._inconsistent:
            self._inconsistent = True
            if self.proof is not None:
                self.proof.add_empty_clause()

    # -- incremental interface -----------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause between ``solve()`` calls (incremental solving).

        Literals use DIMACS encoding and must stay within the variable
        range fixed at construction.  Learned clauses and heuristic state
        survive, so repeated solve/add cycles amortize earlier work.  The
        solver keeps its own copy of the formula: the ``CNF`` passed to
        the constructor is never mutated.
        """
        clause_lits = []
        seen = set()
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise ValueError("0 is not a literal")
            if abs(lit) > self.num_vars:
                raise ValueError(
                    f"variable {abs(lit)} exceeds the solver's range "
                    f"({self.num_vars}); declare all variables up front"
                )
            if lit not in seen:
                seen.add(lit)
                clause_lits.append(lit)
        if not self._owns_cnf:
            self.cnf = self.cnf.copy()
            self._owns_cnf = True
        self.cnf.add_clause(clause_lits)

        if any(-lit in seen for lit in seen):
            return  # tautology: no effect
        self._backtrack(0)
        encoded = [encode(lit) for lit in clause_lits]
        if not encoded:
            self._mark_inconsistent()
            return
        engine = self._engine
        value_lit = self._trail.value_lit if engine is None else engine.value
        # Drop level-0-false literals; detect satisfaction at level 0.
        remaining = []
        for lit in encoded:
            value = value_lit(lit)
            if value == TRUE:
                return  # already satisfied forever
            if value == UNASSIGNED:
                remaining.append(lit)
        if not remaining:
            self._mark_inconsistent()
            return
        if len(remaining) == 1:
            if engine is not None:
                conflict = engine.assign_and_propagate(remaining[0])
            else:
                self._trail.assign(remaining[0], None)
                conflict = self._propagator.propagate() is not None
            if conflict:
                self._mark_inconsistent()
            return
        if engine is not None:
            engine.add_original(remaining)
            return
        solver_clause = self._clause_db.add_original(remaining)
        self._watches.attach(solver_clause)

    # -- learned clause installation ------------------------------------------

    def _install_learned(self, lits: List[int], glue: int) -> None:
        """Attach a learned clause and assert its first literal."""
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(lits)
        self.stats.glue_sum += glue
        if self._glue_hist is not None:
            self._glue_hist.observe(glue)
        if self.proof is not None:
            self.proof.add_clause(lits)
        if len(lits) == 1:
            self._trail.assign(lits[0], None)
            return
        clause = self._clause_db.add_learned(lits, glue)
        self._watches.attach(clause)
        self._trail.assign(lits[0], clause)

    def _backtrack(self, level: int) -> None:
        """Backtrack with phase saving and decision-queue maintenance."""
        if self._engine is not None:
            self._engine.acquire()
            self._engine.backtrack(level)
            return
        undone = self._trail.backtrack(level)
        saved = self._decider.saved_phase
        requeue = self._decider.requeue
        for lit in undone:
            var = lit >> 1
            saved[var] = (lit & 1) == 0
            requeue(var)

    # -- main loop ----------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        max_propagations: Optional[int] = None,
        max_decisions: Optional[int] = None,
    ) -> SolveResult:
        """Run CDCL search until SAT, UNSAT, or a budget is exhausted.

        ``assumptions`` are DIMACS literals decided first (in order); an
        UNSAT answer then means "unsatisfiable under these assumptions".
        Budgets are absolute counter values, making repeated calls with
        the same limits idempotent in effort.

        With a live observer the call is bracketed by ``solve-start`` /
        ``solve-end`` events (the latter carrying wall-clock time and
        the full statistics snapshot); the disabled path costs exactly
        one extra method call and one attribute check.
        """
        observer = self.observer
        if not observer.enabled:
            return self._solve(
                assumptions, max_conflicts, max_propagations, max_decisions
            )
        observer.event(
            "solve-start",
            policy=self.policy.name,
            num_vars=self.cnf.num_vars,
            num_clauses=self.cnf.num_clauses,
            assumptions=len(assumptions),
        )
        start = time.perf_counter()
        with observer.span("solve"):
            result = self._solve(
                assumptions, max_conflicts, max_propagations, max_decisions
            )
        observer.event(
            "solve-end",
            status=result.status.name,
            policy=result.policy_name,
            wall_seconds=round(time.perf_counter() - start, 6),
            stats=result.stats.to_dict(),
        )
        observer.flush()
        return result

    def _solve(
        self,
        assumptions: Sequence[int],
        max_conflicts: Optional[int],
        max_propagations: Optional[int],
        max_decisions: Optional[int],
    ) -> SolveResult:
        """The CDCL loop proper (see :meth:`solve`)."""
        if self._inconsistent:
            return self._result(Status.UNSATISFIABLE)
        # Incremental reuse: drop any search state left by a previous call
        # (level-0 assignments and learned clauses are kept — they are
        # consequences of the formula, not of old assumptions).
        self._backtrack(0)
        assumed = [encode(lit) for lit in assumptions]
        for lit in assumed:
            if (lit >> 1) > self.num_vars:
                raise ValueError(f"assumption on unknown variable {lit >> 1}")
        if self._engine is not None:
            return self._kernel_search(
                assumed, max_conflicts, max_propagations, max_decisions
            )

        # Level-0 closure of the original units.
        conflict = self._propagator.propagate()
        if conflict is not None:
            self._mark_inconsistent()
            return self._result(Status.UNSATISFIABLE)

        while True:
            conflict = self._propagator.propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if self._trail.decision_level == 0:
                    self._mark_inconsistent()
                    return self._result(Status.UNSATISFIABLE)
                learned, backjump, glue = self.analyzer.analyze(conflict)
                self._restarts.on_conflict()
                self._backtrack(backjump)
                self._install_learned(learned, glue)
                self._decider.decay_activities()
                self._clause_db.decay_clause_activities()
                continue

            if self._budget_exhausted(max_conflicts, max_propagations, max_decisions):
                return self._result(Status.UNKNOWN)

            if self.reducer.should_reduce():
                self._reduce()

            if self._restarts.should_restart() and self._trail.decision_level > 0:
                self.stats.restarts += 1
                self._restarts.on_restart()
                self._backtrack(0)
                self.observer.event(
                    "restart",
                    restarts=self.stats.restarts,
                    conflicts=self.stats.conflicts,
                )
                continue

            # Re-decide any assumption not yet on the trail.
            decision = self._next_assumption(assumed)
            if decision == -1:
                return self._failed_result(assumed)
            if decision is None:
                decision = self._decider.pick_branch_literal()
                if decision is None:
                    return self._sat_result()
            self.stats.decisions += 1
            self._trail.new_decision_level()
            self._trail.assign(decision, None)
            if len(self._trail.trail) > self.stats.max_trail:
                self.stats.max_trail = len(self._trail.trail)

    def _kernel_search(
        self,
        assumed: List[int],
        max_conflicts: Optional[int],
        max_propagations: Optional[int],
        max_decisions: Optional[int],
    ) -> SolveResult:
        """The same loop in C; Python handles what the kernel hands back."""
        engine = self._engine
        observer = self.observer
        phase = kernel.START
        while True:
            code = engine.run(
                phase,
                assumed,
                max_conflicts,
                max_propagations,
                max_decisions,
                self.reducer.limit,
                observer.enabled,
            )
            if code == kernel.REDUCE:
                engine.expose()
                self._reduce()
                phase = kernel.AFTER_REDUCE
            elif code == kernel.RESTART:
                observer.event(
                    "restart",
                    restarts=self.stats.restarts,
                    conflicts=self.stats.conflicts,
                )
                phase = kernel.LOOP
            elif code == kernel.SAT:
                return self._sat_result()
            elif code == kernel.UNSAT:
                self._mark_inconsistent()
                return self._result(Status.UNSATISFIABLE)
            elif code == kernel.FAILED:
                engine.peek_trail()
                return self._failed_result(assumed)
            else:  # kernel.UNKNOWN: a budget is spent
                return self._result(Status.UNKNOWN)

    def _failed_result(self, assumed: List[int]) -> SolveResult:
        """UNSAT under assumptions, with the failed-assumption core."""
        failed = next(
            lit for lit in assumed if self._trail.value_lit(lit) == FALSE
        )
        result = self._result(Status.UNSATISFIABLE)
        result.core = self._analyze_final(failed, assumed)
        return result

    def _analyze_final(self, failed_lit: int, assumed: List[int]) -> List[int]:
        """Compute a failed-assumption core (MiniSat's ``analyzeFinal``).

        ``failed_lit`` is an assumption literal currently assigned false.
        Walking the implication graph from it back to decisions yields
        the subset of assumptions whose conjunction is already
        unsatisfiable with the formula.  Level-0 assignments are formula
        consequences and never enter the core.
        """
        from repro.solver.types import decode

        trail = self._trail
        assumed_set = set(assumed)
        core = [decode(failed_lit)]
        seen = [False] * (self.num_vars + 1)
        seen[failed_lit >> 1] = True
        # Walk the trail backwards, expanding reasons of marked variables.
        for lit in reversed(trail.trail):
            var = lit >> 1
            if not seen[var]:
                continue
            if trail.levels[var] == 0:
                continue
            reason = trail.reasons[var]
            if reason is None:
                # A decision: by construction only assumptions are decided
                # while an assumption is still unassigned.
                if lit in assumed_set or (lit ^ 1) in assumed_set:
                    core.append(decode(lit if lit in assumed_set else lit ^ 1))
                continue
            for other in trail.reason_literals(var):
                seen[other >> 1] = True
        return core

    def _next_assumption(self, assumed: List[int]) -> Optional[int]:
        """Next unsatisfied assumption literal; -1 when one is falsified."""
        for lit in assumed:
            value = self._trail.value_lit(lit)
            if value == FALSE:
                return -1
            if value == UNASSIGNED:
                return lit
        return None

    def _reduce(self) -> None:
        """Run a reduction, mirroring deletions into the DRAT log."""
        self.reducer.reduce()
        if self.proof is not None:
            # Compaction invalidates deleted clauses' offsets, so the
            # reducer snapshots their literals (in clause-id order).
            for lits in self.reducer.last_deleted:
                self.proof.delete_clause(lits)

    def _budget_exhausted(
        self,
        max_conflicts: Optional[int],
        max_propagations: Optional[int],
        max_decisions: Optional[int],
    ) -> bool:
        if max_conflicts is not None and self.stats.conflicts >= max_conflicts:
            return True
        if max_propagations is not None and self.stats.propagations >= max_propagations:
            return True
        if max_decisions is not None and self.stats.decisions >= max_decisions:
            return True
        return False

    def _sat_result(self) -> SolveResult:
        engine = self._engine
        model = self._trail.model() if engine is None else engine.model()
        # Unconstrained variables default to true, the initial phase.
        for var in range(1, self.num_vars + 1):
            if model[var] is None:
                model[var] = True
        # Always on (not an assert): `python -O` must not skip it.
        if not self.cnf.check_model(model):
            raise RuntimeError("internal error: bogus model")
        return SolveResult(
            status=Status.SATISFIABLE,
            model=model,
            stats=self.stats,
            policy_name=self.policy.name,
        )

    def _result(self, status: Status) -> SolveResult:
        return SolveResult(
            status=status,
            model=None,
            stats=self.stats,
            policy_name=self.policy.name,
        )


def solve(
    cnf: CNF,
    policy: Optional[DeletionPolicy] = None,
    config: Optional[SolverConfig] = None,
    observer: Optional[Observer] = None,
    **budgets: Optional[int],
) -> SolveResult:
    """One-shot convenience wrapper around :class:`Solver`."""
    return Solver(
        cnf, policy=policy, config=config, observer=observer
    ).solve(**budgets)
