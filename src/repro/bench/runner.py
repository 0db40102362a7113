"""Suite runner: solve instance sets under policies and collect records."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.calibration import EffortScale
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.parallel.runner import ParallelRunner, SolveOutcome, SolveTask
from repro.selection.labeling import default_labeling_config
from repro.solver.solver import SolverConfig
from repro.solver.types import Status


@dataclass
class InstanceRecord:
    """One (instance, solver-variant) run."""

    name: str
    family: str
    policy: str
    status: Status
    propagations: int
    conflicts: int
    wall_seconds: float
    inference_seconds: float = 0.0

    @property
    def solved(self) -> bool:
        # ``decided`` (SAT/UNSAT), so supervision failures such as
        # TIMEOUT / ERROR / MEMOUT count as unsolved, like UNKNOWN.
        return self.status.decided


def run_suite(
    instances: Sequence,
    policy_name: str,
    max_propagations: int,
    config: Optional[SolverConfig] = None,
    runner: Optional[ParallelRunner] = None,
    observer: Optional[Observer] = None,
) -> List[InstanceRecord]:
    """Run every ``LabeledInstance`` (or CNF) under one policy.

    The ``runner`` (an in-process ``ParallelRunner()`` when none is
    given) decides how the solves execute: fanned out across processes,
    served from the on-disk result cache so repeated suite runs never
    re-solve a pair, or supervised so a wedged instance becomes a
    TIMEOUT record (unsolved, like UNKNOWN) and a journal resumes an
    interrupted sweep.  The records do not depend on the runner; the
    solver is deterministic per (instance, policy, config, budgets).
    """
    if runner is None:
        runner = ParallelRunner(observer=observer)
    obs = observer if observer is not None else NULL_OBSERVER
    families = [getattr(inst, "family", "") for inst in instances]
    tasks = [
        SolveTask(
            cnf=getattr(inst, "cnf", inst),
            policy=policy_name,
            config=config or default_labeling_config(),
            max_propagations=max_propagations,
            tag=f"inst-{i:03d}",
        )
        for i, inst in enumerate(instances)
    ]
    obs.event(
        "suite-start",
        policy=policy_name,
        instances=len(tasks),
        max_propagations=max_propagations,
    )
    with obs.span("suite", emit=False):
        outcomes = runner.run(tasks)
    records = [
        _record_from_outcome(outcome, family)
        for outcome, family in zip(outcomes, families)
    ]
    obs.event(
        "suite-end",
        policy=policy_name,
        instances=len(records),
        solved=sum(1 for r in records if r.solved),
        wall_seconds=round(sum(r.wall_seconds for r in records), 6),
    )
    obs.flush()
    return records


def _record_from_outcome(outcome: SolveOutcome, family: str) -> InstanceRecord:
    return InstanceRecord(
        name=outcome.tag,
        family=family,
        policy=outcome.policy,
        status=outcome.status,
        propagations=outcome.propagations,
        conflicts=outcome.conflicts,
        wall_seconds=outcome.wall_seconds,
    )


@dataclass(frozen=True)
class SuiteStatistics:
    """Solved / median / average — one row of Table 3."""

    solver_name: str
    solved: int
    total: int
    median_seconds: float
    average_seconds: float

    def as_row(self) -> Dict[str, object]:
        return {
            "solver": self.solver_name,
            "solved": self.solved,
            "median (s)": round(self.median_seconds, 2),
            "average (s)": round(self.average_seconds, 2),
        }


def suite_statistics(
    records: Sequence[InstanceRecord],
    scale: EffortScale,
    solver_name: str,
    include_inference: bool = True,
) -> SuiteStatistics:
    """Aggregate a suite run the way Table 3 does.

    Unsolved instances count as the full timeout; the median and average
    are taken over *all* instances.  NeuroSelect-Kissat's runtime
    "includes both model inference and SAT-solving durations" (Sec. 5.4),
    so inference seconds are added when present.
    """
    seconds: List[float] = []
    solved = 0
    for record in records:
        value = scale.timeout_seconds if not record.solved else scale.to_seconds(
            record.propagations
        )
        if include_inference:
            value = min(value + record.inference_seconds, scale.timeout_seconds)
        seconds.append(value)
        solved += record.solved
    return SuiteStatistics(
        solver_name=solver_name,
        solved=solved,
        total=len(records),
        median_seconds=statistics.median(seconds) if seconds else 0.0,
        average_seconds=statistics.fmean(seconds) if seconds else 0.0,
    )
