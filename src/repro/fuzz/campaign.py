"""Seeded, deterministic differential fuzz campaigns.

A campaign draws small instances from every registered generator
family (:data:`~repro.cnf.generators.GENERATOR_FAMILIES`), derives
satisfiability-preserving mutants for each, fans the subject solves out
through the existing fault-tolerant
:class:`~repro.parallel.runner.ParallelRunner` (budgets, supervision,
caching, trace events all apply), and then runs the full
:class:`~repro.fuzz.oracles.OracleBank` over every case.  Everything is
keyed off ``base_seed``: the same seed produces the same instances,
the same mutants, the same checks, and therefore the same
:class:`CampaignReport` fingerprint — determinism is what turns "the
fuzzer failed once" into a replayable fact.

With ``shrink`` enabled, each failing case is minimized by
:func:`~repro.fuzz.shrink.shrink` and persisted to a
:class:`~repro.fuzz.shrink.FailureCorpus` as a DIMACS + manifest pair
whose recorded command replays the discrepancy from scratch.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cnf.formula import CNF
from repro.cnf.generators import GENERATOR_FAMILIES, GeneratorSpec
from repro.fuzz.oracles import (
    DEFAULT_BUDGET,
    Discrepancy,
    OracleBank,
    OracleContext,
    SolveFn,
    default_oracles,
    derive_mutants,
    formula_key,
)
from repro.fuzz.shrink import FailureCorpus, discrepancy_predicate, shrink
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.parallel.runner import ParallelRunner, SolveTask
from repro.solver.types import Model, Status


@dataclass
class CampaignConfig:
    """Everything that determines a campaign (and its fingerprint)."""

    #: Number of fuzz cases (one generator draw each).
    seeds: int = 50
    #: Root seed: same value -> identical campaign, byte for byte.
    base_seed: int = 0
    #: Per-solve conflict budget (deterministic, unlike wall clock).
    budget: int = DEFAULT_BUDGET
    #: Worker processes for the subject-solve fan-out.
    workers: int = 1
    #: Generator families to draw from (default: all registered).
    families: Sequence[str] = ()
    #: Metamorphic mutants derived per case.
    mutants: int = 2
    #: Minimize failures and write them to ``corpus_dir``.
    shrink: bool = False
    corpus_dir: Optional[Union[str, Path]] = None
    #: Optional supervision: wall-clock seconds per solve attempt.
    task_timeout: Optional[float] = None
    #: Optional cross-run result cache directory.
    cache_dir: Optional[Union[str, Path]] = None
    #: Oracle gating thresholds (see :class:`OracleContext`).
    brute_force_max_vars: int = 13
    dpll_max_vars: int = 30

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        unknown = set(self.families) - set(GENERATOR_FAMILIES)
        if unknown:
            raise ValueError(f"unknown generator families: {sorted(unknown)}")


@dataclass
class FuzzCase:
    """One drawn instance plus its derived metamorphic mutants."""

    spec: GeneratorSpec
    cnf: CNF
    mutants: List[Tuple[str, CNF]] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Replayable case identifier (family, params, and seed)."""
        return self.spec.name


@dataclass
class CampaignReport:
    """Deterministic summary of one campaign run.

    Everything except ``wall_seconds`` is a pure function of the
    configuration, which :meth:`fingerprint` certifies: two runs with
    the same config hash to the same value, on any machine.
    """

    seeds: int
    base_seed: int
    budget: int
    mutants: int
    families: List[str]
    cases: int = 0
    solves: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, int] = field(default_factory=dict)
    discrepancies: List[Discrepancy] = field(default_factory=list)
    corpus_entries: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """True when no oracle disagreed with the subject solver."""
        return not self.discrepancies

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (used by the CLI's ``--json`` style output)."""
        return {
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "budget": self.budget,
            "mutants": self.mutants,
            "families": list(self.families),
            "cases": self.cases,
            "solves": self.solves,
            "statuses": dict(sorted(self.statuses.items())),
            "checks": dict(sorted(self.checks.items())),
            "discrepancies": [d.summary() for d in self.discrepancies],
            "corpus_entries": list(self.corpus_entries),
            "wall_seconds": self.wall_seconds,
        }

    def fingerprint(self) -> str:
        """Hash of the deterministic report content (wall clock excluded)."""
        payload = self.to_dict()
        payload.pop("wall_seconds")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def draw_spec(rng: random.Random, family: str, seed: int) -> GeneratorSpec:
    """One small, oracle-checkable parameter draw for ``family``.

    Sizes are deliberately tiny: brute force needs <= ~13 variables and
    DPLL <= ~30, and a campaign's power comes from *many* diverse small
    cases, not a few big ones (small-scope hypothesis).
    """
    if family == "random_ksat":
        num_vars = rng.randint(6, 13)
        ratio = rng.uniform(3.0, 5.2)
        params: Tuple[Tuple[str, Any], ...] = (
            ("k", 3),
            ("num_clauses", max(6, int(num_vars * ratio))),
            ("num_vars", num_vars),
        )
    elif family == "pigeonhole":
        params = (("holes", rng.randint(2, 3)),)
    elif family == "graph_coloring":
        params = (
            ("edge_prob", round(rng.uniform(0.25, 0.7), 2)),
            ("num_colors", rng.randint(2, 3)),
            ("num_nodes", rng.randint(4, 6)),
        )
    elif family == "parity_chain":
        params = (
            ("chain_length", 3),
            ("num_vars", rng.randint(4, 8)),
        )
    elif family == "community_sat":
        params = (
            ("clauses_per_community", rng.randint(10, 16)),
            ("inter_clause_fraction", 0.2),
            ("num_communities", 2),
            ("vars_per_community", rng.randint(4, 6)),
        )
    elif family == "cardinality_conflict":
        params = (
            ("num_vars", rng.randint(4, 7)),
            ("overconstrained", rng.random() < 0.5),
        )
    else:
        raise ValueError(f"no fuzz parameter ranges for family {family!r}")
    return GeneratorSpec(family, params, seed)


def build_cases(config: CampaignConfig) -> List[FuzzCase]:
    """Draw the campaign's cases — pure function of the configuration."""
    rng = random.Random(config.base_seed)
    families = sorted(config.families) if config.families else sorted(GENERATOR_FAMILIES)
    cases: List[FuzzCase] = []
    for i in range(config.seeds):
        family = rng.choice(families)
        spec = draw_spec(rng, family, config.base_seed + i)
        cnf = spec.build()
        mutants = derive_mutants(cnf, spec.seed, config.mutants)
        cases.append(FuzzCase(spec=spec, cnf=cnf, mutants=mutants))
    return cases


def _prefill_from_runner(
    cases: Sequence[FuzzCase],
    config: CampaignConfig,
    observer: Observer,
) -> Tuple[Dict[Tuple[str, str], Tuple[Status, Optional[Model]]], int]:
    """Fan every (formula, policy) subject solve out through the runner.

    Returns the memo-table prefill plus the number of solves performed.
    Supervision failures (TIMEOUT / ERROR / MEMOUT) keep their failure
    status — ``Status.decided`` is False for them, so every oracle
    treats the case as undecided rather than trusting a dead worker.
    """
    tasks: List[SolveTask] = []
    for case in cases:
        formulas = [("subject", case.cnf)] + list(case.mutants)
        for variant, cnf in formulas:
            for policy in ("default", "frequency"):
                tasks.append(SolveTask(
                    cnf=cnf,
                    policy=policy,
                    max_conflicts=config.budget,
                    tag=f"{case.name}/{variant}/{policy}",
                ))
    runner = ParallelRunner(
        workers=config.workers,
        cache_dir=config.cache_dir,
        task_timeout=config.task_timeout,
        observer=observer,
    )
    outcomes = runner.run(tasks)
    prefill: Dict[Tuple[str, str], Tuple[Status, Optional[Model]]] = {}
    for task, outcome in zip(tasks, outcomes):
        prefill[(formula_key(task.cnf), task.policy)] = (
            outcome.status, outcome.model
        )
    return prefill, len(tasks)


def run_campaign(
    config: CampaignConfig,
    observer: Optional[Observer] = None,
    solve_hook: Optional[SolveFn] = None,
) -> CampaignReport:
    """Run one deterministic campaign; returns the structured report.

    ``solve_hook`` replaces the subject solver for *every* check — the
    fault-injection hook the shrinker tests use.  With a hook attached
    the runner fan-out is skipped (a hook cannot cross process
    boundaries) and all solving happens inline through the hook.
    """
    observer = observer if observer is not None else NULL_OBSERVER
    started = time.perf_counter()
    cases = build_cases(config)
    families = sorted(config.families) if config.families else sorted(GENERATOR_FAMILIES)
    report = CampaignReport(
        seeds=config.seeds,
        base_seed=config.base_seed,
        budget=config.budget,
        mutants=config.mutants,
        families=families,
        cases=len(cases),
    )
    observer.event(
        "fuzz-start",
        seeds=config.seeds,
        base_seed=config.base_seed,
        budget=config.budget,
        workers=config.workers,
        families=families,
    )

    prefill: Dict[Tuple[str, str], Tuple[Status, Optional[Model]]] = {}
    if solve_hook is None:
        prefill, fanned_out = _prefill_from_runner(cases, config, observer)
        report.solves += fanned_out

    corpus = (
        FailureCorpus(config.corpus_dir)
        if config.shrink and config.corpus_dir is not None
        else None
    )

    for case in cases:
        ctx = OracleContext(
            case=case.name,
            budget=config.budget,
            solve_fn=solve_hook,
            prefill=prefill,
            brute_force_max_vars=config.brute_force_max_vars,
            dpll_max_vars=config.dpll_max_vars,
        )
        bank = OracleBank(default_oracles(
            mutants=config.mutants, mutation_seed=case.spec.seed
        ))
        found = bank.check(case.cnf, ctx, checks=report.checks)
        report.solves += ctx.solves
        status, _ = ctx.solve(case.cnf)
        report.statuses[status.value] = report.statuses.get(status.value, 0) + 1
        observer.event(
            "fuzz-case",
            case=case.name,
            status=status.value,
            discrepancies=len(found),
        )
        for discrepancy in found:
            report.discrepancies.append(discrepancy)
            observer.event("fuzz-discrepancy", summary=discrepancy.summary())

        if corpus is not None and found:
            # One corpus entry per failing case: minimizing the first
            # discrepancy almost always pins the others too, and a
            # bounded corpus stays reviewable.
            target = found[0]
            predicate = discrepancy_predicate(
                bank, target, budget=config.budget, solve_fn=solve_hook
            )
            result = shrink(case.cnf, predicate)
            entry = corpus.add(
                result.cnf,
                target,
                budget=config.budget,
                generator={
                    "family": case.spec.family,
                    "params": dict(case.spec.params),
                    "seed": case.spec.seed,
                },
                original_clauses=result.original_clauses,
            )
            report.corpus_entries.append(entry.name)
            observer.event(
                "fuzz-shrink",
                case=case.name,
                entry=entry.name,
                original_clauses=result.original_clauses,
                shrunk_clauses=result.clauses,
                predicate_calls=result.predicate_calls,
            )

    report.wall_seconds = round(time.perf_counter() - started, 6)
    observer.event(
        "fuzz-end",
        cases=report.cases,
        solves=report.solves,
        discrepancies=len(report.discrepancies),
        fingerprint=report.fingerprint(),
    )
    return report


def render_report(report: CampaignReport) -> str:
    """Human-readable campaign summary for the CLI."""
    lines = [
        f"fuzz campaign: {report.cases} cases, {report.solves} solves, "
        f"budget {report.budget} conflicts, base seed {report.base_seed}",
        "statuses: " + ", ".join(
            f"{count} {name}" for name, count in sorted(report.statuses.items())
        ),
        "checks:   " + ", ".join(
            f"{name}={count}" for name, count in sorted(report.checks.items())
        ),
    ]
    if report.discrepancies:
        lines.append(f"DISCREPANCIES ({len(report.discrepancies)}):")
        lines.extend(f"  {d.summary()}" for d in report.discrepancies)
    else:
        lines.append("no discrepancies found")
    for entry in report.corpus_entries:
        lines.append(f"  shrunk repro written: {entry}")
    lines.append(
        f"fingerprint {report.fingerprint()}  ({report.wall_seconds:.2f}s)"
    )
    return "\n".join(lines)
