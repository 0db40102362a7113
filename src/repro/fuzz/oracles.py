"""Pluggable oracle bank for differential solver testing.

An *oracle* cross-checks one solve result against an independent source
of truth and reports every disagreement as a structured
:class:`Discrepancy`.  The bank bundles the repository's full set of
cross-checks:

* :class:`ModelCheckOracle` — a SAT answer must come with a model that
  actually satisfies the formula;
* :class:`BruteForceOracle` — exhaustive enumeration on small formulas;
* :class:`DPLLOracle` — the plain recursive DPLL reference;
* :class:`PolicyAgreementOracle` — both clause-deletion policies must
  agree on the verdict (the label-poisoning guard: a policy that flips
  SAT/UNSAT corrupts every Sec. 5.1 training label downstream);
* :class:`IncrementalOracle` — a warm incremental session must answer
  every step of a derived add-clause/assumption schedule exactly like a
  fresh solve, with sound failed-assumption cores;
* :class:`DratOracle` — UNSAT answers must come with a checkable DRAT
  refutation;
* :class:`MetamorphicOracle` — satisfiability-preserving transforms
  (variable renaming, polarity flips, clause permutation and
  duplication) must not flip the verdict.

All solving goes through an :class:`OracleContext`, which memoizes
results per (formula, policy) and lets tests inject a deliberately
buggy solver via ``solve_fn`` — the hook the shrinker tests use to
prove that an injected soundness fault is found, minimized, and
replayed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cnf.dimacs import to_dimacs
from repro.cnf.formula import CNF
from repro.cnf.transforms import (
    duplicate_clauses,
    flip_polarity,
    rename_variables,
    shuffle_clauses,
)
from repro.policies.registry import get_policy
from repro.solver.drat import DratError, check_drat
from repro.solver.proof import ProofLog
from repro.solver.reference import brute_force_status, dpll_solve
from repro.solver.session import SolverSession
from repro.solver.solver import Solver
from repro.solver.types import Model, Status

#: Default per-solve conflict budget (deterministic, unlike wall clock).
DEFAULT_BUDGET = 2000

#: ``solve_fn`` signature: (cnf, policy_name, max_conflicts, proof) ->
#: (status, model).  The ``proof`` argument is an optional
#: :class:`~repro.solver.proof.ProofLog` the callee should log into.
SolveFn = Callable[[CNF, str, int, Optional[ProofLog]], Tuple[Status, Optional[Model]]]


def formula_key(cnf: CNF) -> str:
    """Content hash of a formula (stable across object identity)."""
    return hashlib.sha256(to_dimacs(cnf).encode("utf-8")).hexdigest()


def default_solve_fn(
    cnf: CNF,
    policy: str = "default",
    max_conflicts: int = DEFAULT_BUDGET,
    proof: Optional[ProofLog] = None,
) -> Tuple[Status, Optional[Model]]:
    """Solve with the real CDCL engine (the production subject)."""
    result = Solver(cnf, policy=get_policy(policy), proof=proof).solve(
        max_conflicts=max_conflicts
    )
    return result.status, result.model


@dataclass(frozen=True)
class Discrepancy:
    """One observed disagreement between the subject and an oracle.

    ``kind`` is a stable machine-readable label (``status-mismatch``,
    ``model-invalid``, ``proof-invalid``, ``metamorphic-flip``,
    ``oracle-crash``) used by the shrinker's failure predicate and by
    corpus manifests; ``detail`` is the human-readable explanation.
    """

    oracle: str
    kind: str
    case: str
    expected: str
    observed: str
    detail: str = ""

    def summary(self) -> str:
        """One-line rendering for CLI output and trace events."""
        line = (
            f"[{self.oracle}] {self.kind} on {self.case}: "
            f"expected {self.expected}, observed {self.observed}"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line

    def matches(self, other: "Discrepancy") -> bool:
        """True when ``other`` is the same failure mode (oracle + kind)."""
        return self.oracle == other.oracle and self.kind == other.kind


class OracleContext:
    """Solve memoization + configuration shared by one case's checks.

    ``solve_fn`` defaults to the real solver; tests inject buggy
    wrappers here.  ``prefill`` seeds the memo table with results
    computed elsewhere (the campaign's :class:`ParallelRunner` fan-out),
    keyed by ``(formula_key(cnf), policy)``.
    """

    def __init__(
        self,
        case: str = "",
        budget: int = DEFAULT_BUDGET,
        solve_fn: Optional[SolveFn] = None,
        prefill: Optional[Dict[Tuple[str, str], Tuple[Status, Optional[Model]]]] = None,
        brute_force_max_vars: int = 13,
        dpll_max_vars: int = 30,
    ):
        self.case = case
        self.budget = budget
        self.solve_fn: SolveFn = solve_fn or default_solve_fn
        self.brute_force_max_vars = brute_force_max_vars
        self.dpll_max_vars = dpll_max_vars
        self.solves = 0
        self._memo: Dict[Tuple[str, str], Tuple[Status, Optional[Model]]] = dict(
            prefill or {}
        )

    def solve(self, cnf: CNF, policy: str = "default") -> Tuple[Status, Optional[Model]]:
        """Memoized subject solve of ``cnf`` under ``policy``."""
        key = (formula_key(cnf), policy)
        if key not in self._memo:
            self._memo[key] = self.solve_fn(cnf, policy, self.budget, None)
            self.solves += 1
        return self._memo[key]

    def solve_fresh(
        self, cnf: CNF, assumptions: Sequence[int] = ()
    ) -> Tuple[Status, Optional[Model]]:
        """Memoized fresh solve of the real engine (default policy).

        Bypasses ``solve_fn`` deliberately: the incremental oracle
        compares a warm session against a from-scratch solve, independent
        of whatever subject (possibly a fault-injected wrapper) the rest
        of the bank is exercising.  Memo keys are namespaced
        (``fresh:``, plus the assumption literals when given) so they
        never collide with per-policy subject results.
        """
        assumed = tuple(int(lit) for lit in assumptions)
        tag = "fresh:" + ",".join(map(str, assumed))
        key = (formula_key(cnf), tag)
        if key not in self._memo:
            result = Solver(cnf).solve(
                assumptions=assumed, max_conflicts=self.budget
            )
            self._memo[key] = (result.status, result.model)
            self.solves += 1
        return self._memo[key]


class Oracle:
    """Base class: one independent cross-check of a solve result."""

    #: Stable oracle identifier used in discrepancies and manifests.
    name = "oracle"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Return every disagreement found on ``cnf`` (empty when clean)."""
        raise NotImplementedError

    def _mismatch(
        self,
        ctx: OracleContext,
        kind: str,
        expected: str,
        observed: str,
        detail: str = "",
    ) -> Discrepancy:
        """Shorthand constructor stamping this oracle's name and case."""
        return Discrepancy(
            oracle=self.name,
            kind=kind,
            case=ctx.case,
            expected=expected,
            observed=observed,
            detail=detail,
        )


class ModelCheckOracle(Oracle):
    """A SAT verdict must carry a model that satisfies the formula."""

    name = "model-check"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Validate the subject's model whenever it claims SAT."""
        status, model = ctx.solve(cnf)
        if status is not Status.SATISFIABLE:
            return []
        if model is None:
            return [self._mismatch(ctx, "model-invalid", "model", "None",
                                   "SAT verdict without a model")]
        if not cnf.check_model(model):
            return [self._mismatch(ctx, "model-invalid", "satisfying model",
                                   "falsified clause",
                                   "reported model does not satisfy the formula")]
        return []


class BruteForceOracle(Oracle):
    """Exhaustive enumeration on small formulas — the ground truth."""

    name = "brute-force"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Compare a decided subject verdict against full enumeration."""
        if len(cnf.variables()) > ctx.brute_force_max_vars:
            return []
        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        truth = brute_force_status(cnf, max_vars=ctx.brute_force_max_vars)
        if truth is not status:
            return [self._mismatch(ctx, "status-mismatch", truth.value, status.value)]
        return []


class DPLLOracle(Oracle):
    """Plain recursive DPLL as an independent complete procedure."""

    name = "dpll"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Compare a decided subject verdict against the DPLL reference."""
        if len(cnf.variables()) > ctx.dpll_max_vars:
            return []
        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        truth, _ = dpll_solve(cnf)
        if truth is not status:
            return [self._mismatch(ctx, "status-mismatch", truth.value, status.value)]
        return []


def derive_schedule(
    cnf: CNF, steps: int = 6, seed_key: Optional[str] = None
) -> List[Tuple[str, List[int]]]:
    """A deterministic incremental schedule derived from the formula.

    Returns ``("add", lits)`` / ``("solve", assumptions)`` steps (the
    format :func:`repro.solver.session.replay_schedule` consumes),
    seeded from the formula's content hash, so every independent caller
    — campaign, corpus replay, the session-smoke job — drives the exact
    same schedule for a given CNF.  The schedule always begins with an
    unassumed solve (the base verdict) and ends with an assumed one.
    """
    variables = sorted(cnf.variables())
    if not variables:
        return []
    rng = random.Random(int((seed_key or formula_key(cnf))[:16], 16))

    def assumption_set() -> List[int]:
        count = rng.randint(1, min(3, len(variables)))
        chosen = rng.sample(variables, count)
        return [var if rng.random() < 0.5 else -var for var in chosen]

    schedule: List[Tuple[str, List[int]]] = [("solve", [])]
    for _ in range(max(0, steps)):
        if rng.random() < 0.4:
            size = rng.randint(1, min(3, len(variables)))
            clause = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(variables, size)
            ]
            schedule.append(("add", clause))
        else:
            schedule.append(("solve", assumption_set()))
    schedule.append(("solve", assumption_set()))
    return schedule


class PolicyAgreementOracle(Oracle):
    """Both clause-deletion policies must return the same verdict.

    Deletion changes *effort*, never *truth*: a disagreement here is the
    exact soundness bug that silently poisons the paper's dual-policy
    labels.  Verdicts are only compared when both runs decided within
    budget — the policy legitimately shifts how far a budget reaches.
    """

    name = "policy-agreement"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Solve under both policies and compare decided verdicts."""
        left, _ = ctx.solve(cnf, "default")
        right, _ = ctx.solve(cnf, "frequency")
        if left.decided and right.decided and left is not right:
            return [self._mismatch(
                ctx, "status-mismatch",
                f"default={left.value}",
                f"frequency={right.value}",
                "deletion policies disagree on satisfiability",
            )]
        return []


class IncrementalOracle(Oracle):
    """A warm incremental session must answer like a fresh solve.

    A deterministic add-clause/assumption schedule
    (:func:`derive_schedule`) is driven through one warm
    :class:`~repro.solver.session.SolverSession`, and at every solve
    step the oracle demands

    * a decided status identical to a fresh re-solve of the accumulated
      formula under the same assumptions (the warm state — learned
      clauses, phases, activities, the arena — must never change an
      answer), and
    * a *consistent* failed-assumption core for every
      UNSAT-under-assumptions answer: the core is a subset of the
      assumptions, and the accumulated formula is still UNSAT under
      the core alone (``analyzeFinal`` cores are sound but not
      guaranteed subset-minimal, so minimality is not asserted).
    """

    name = "incremental"

    #: Formulas with more variables than this are skipped — schedules
    #: re-solve several times per case and fuzz formulas are small.
    schedule_max_vars = 120

    #: Random steps per derived schedule (plus the fixed first/last solve).
    schedule_steps = 6

    def __init__(self) -> None:
        #: Test hook: builds the warm session the schedule drives.
        #: Replacing it with a factory that returns a corrupted session
        #: proves the checks actually detect bugs.
        self.session_factory: Callable[[CNF], SolverSession] = (
            lambda formula: SolverSession(formula.copy())
        )

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Drive one derived schedule through a warm session."""
        if len(cnf.variables()) > self.schedule_max_vars:
            return []
        schedule = derive_schedule(cnf, steps=self.schedule_steps)
        if not schedule:
            return []
        session = self.session_factory(cnf)
        accumulated = cnf.copy()
        found: List[Discrepancy] = []
        for index, (op, lits) in enumerate(schedule):
            if op == "add":
                accumulated.add_clause(lits)
                session.add(*lits)
                continue
            result = session.solve(assumptions=lits, max_conflicts=ctx.budget)
            where = f"schedule step {index} (assumptions {lits})"
            fresh, _ = ctx.solve_fresh(accumulated, assumptions=lits)
            warm = result.status
            if fresh.decided and warm.decided and fresh is not warm:
                found.append(self._mismatch(
                    ctx, "status-mismatch",
                    f"fresh={fresh.value}",
                    f"incremental={warm.value}",
                    f"warm session diverged from a fresh re-solve at {where}",
                ))
            found.extend(self._check_core_soundness(
                ctx, accumulated, lits, result, where
            ))
        return found

    def _check_core_soundness(
        self,
        ctx: OracleContext,
        accumulated: CNF,
        assumptions: List[int],
        result,
        where: str,
    ) -> List[Discrepancy]:
        """Failed-assumption cores must be assumption subsets that still
        make the formula UNSAT (consistency; minimality not guaranteed)."""
        if result.status is not Status.UNSATISFIABLE or result.core is None:
            return []
        if not set(result.core) <= set(assumptions):
            return [self._mismatch(
                ctx, "core-not-assumptions",
                f"subset of {assumptions}",
                f"core {result.core}",
                f"failed-assumption core contains non-assumption "
                f"literals at {where}",
            )]
        status, _ = ctx.solve_fresh(accumulated, assumptions=result.core)
        if status is Status.SATISFIABLE:
            return [self._mismatch(
                ctx, "core-insufficient",
                "UNSAT under the failed-assumption core",
                "SATISFIABLE",
                f"core {result.core} does not preserve "
                f"unsatisfiability at {where}",
            )]
        return []


class DratOracle(Oracle):
    """UNSAT answers must come with a checkable DRAT refutation."""

    name = "drat"

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Re-solve with proof logging and verify the refutation."""
        status, _ = ctx.solve(cnf)
        if status is not Status.UNSATISFIABLE:
            return []
        proof = ProofLog()
        proved_status, _ = ctx.solve_fn(cnf, "default", ctx.budget, proof)
        if proved_status is not Status.UNSATISFIABLE:
            return [self._mismatch(
                ctx, "status-mismatch", Status.UNSATISFIABLE.value,
                proved_status.value,
                "verdict changed between identical proof-logged runs",
            )]
        try:
            check_drat(cnf, proof.text())
        except DratError as exc:
            return [self._mismatch(
                ctx, "proof-invalid", "valid DRAT refutation", "DratError",
                str(exc),
            )]
        return []


class MetamorphicOracle(Oracle):
    """Satisfiability-preserving transforms must not flip the verdict.

    The mutation schedule is derived deterministically from the
    mutation seed, so a campaign that fanned the same mutants out
    through the parallel runner pre-fills the context's memo table and
    this oracle re-solves nothing.
    """

    name = "metamorphic"

    def __init__(self, mutants: int = 2, seed: int = 0):
        if mutants < 0:
            raise ValueError("mutants must be >= 0")
        self.mutants = mutants
        self.seed = seed

    def check(self, cnf: CNF, ctx: OracleContext) -> List[Discrepancy]:
        """Solve each derived mutant and compare decided verdicts."""
        status, _ = ctx.solve(cnf)
        if not status.decided:
            return []
        found: List[Discrepancy] = []
        for mutant_name, mutant in derive_mutants(cnf, self.seed, self.mutants):
            mutant_status, _ = ctx.solve(mutant)
            if mutant_status.decided and mutant_status is not status:
                found.append(self._mismatch(
                    ctx, "metamorphic-flip", status.value, mutant_status.value,
                    f"mutation {mutant_name} flipped the verdict",
                ))
        return found


#: The deterministic mutation cycle shared by campaigns and the
#: metamorphic oracle (order matters: both sides must derive the same
#: mutants for runner pre-fill to hit).
_MUTATION_KINDS: Tuple[str, ...] = ("rename", "flip", "shuffle", "duplicate")


def derive_mutants(
    cnf: CNF, seed: int, count: int
) -> List[Tuple[str, CNF]]:
    """Derive ``count`` satisfiability-preserving mutants of ``cnf``.

    Cycles through variable renaming, polarity flips, clause shuffling,
    and clause duplication with seeds derived from ``seed`` — fully
    deterministic, so independent callers agree on the exact mutants.
    """
    mutants: List[Tuple[str, CNF]] = []
    for i in range(count):
        kind = _MUTATION_KINDS[i % len(_MUTATION_KINDS)]
        sub_seed = seed * 1009 + i
        if kind == "rename":
            mutant = rename_variables(cnf, seed=sub_seed)
        elif kind == "flip":
            mutant = flip_polarity(cnf, seed=sub_seed)
        elif kind == "shuffle":
            mutant = shuffle_clauses(cnf, seed=sub_seed)
        else:
            mutant = duplicate_clauses(cnf, seed=sub_seed)
        mutants.append((f"{kind}#{i}", mutant))
    return mutants


def default_oracles(mutants: int = 2, mutation_seed: int = 0) -> List[Oracle]:
    """The full cross-check set, cheapest first."""
    return [
        ModelCheckOracle(),
        BruteForceOracle(),
        DPLLOracle(),
        PolicyAgreementOracle(),
        IncrementalOracle(),
        MetamorphicOracle(mutants=mutants, seed=mutation_seed),
        DratOracle(),
    ]


@dataclass
class OracleBank:
    """Runs a configurable oracle set and never lets one crash the hunt.

    An oracle that raises is itself a finding — soundness bugs often
    surface as assertion failures deep inside a cross-check — so
    exceptions become ``oracle-crash`` discrepancies instead of
    aborting the campaign.
    """

    oracles: List[Oracle] = field(default_factory=default_oracles)

    def names(self) -> List[str]:
        """Registered oracle names, in execution order."""
        return [oracle.name for oracle in self.oracles]

    def check(
        self,
        cnf: CNF,
        ctx: OracleContext,
        checks: Optional[Dict[str, int]] = None,
    ) -> List[Discrepancy]:
        """Run every oracle on ``cnf``; returns all discrepancies found.

        ``checks`` (optional) accumulates a per-oracle invocation count
        for campaign reports.
        """
        found: List[Discrepancy] = []
        for oracle in self.oracles:
            if checks is not None:
                checks[oracle.name] = checks.get(oracle.name, 0) + 1
            try:
                found.extend(oracle.check(cnf, ctx))
            except Exception as exc:  # noqa: BLE001 - a crash IS a finding
                found.append(Discrepancy(
                    oracle=oracle.name,
                    kind="oracle-crash",
                    case=ctx.case,
                    expected="clean check",
                    observed=type(exc).__name__,
                    detail=str(exc),
                ))
        return found
