"""Ground-truth label generation (paper Sec. 5.1).

Each training instance is solved twice — once under Kissat's default
deletion policy and once under the propagation-frequency policy — and
labelled ``1`` when the frequency policy needs at least 2% fewer total
propagations, else ``0``.  Propagations, not wall-clock, are the paper's
own labelling measure ("due to the variability of CPU time, we focus on
the total number of propagations ... a more reliable and deterministic
measure").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cnf.formula import CNF
from repro.obs.observer import Observer
from repro.parallel.runner import ParallelRunner, SolveOutcome, SolveTask
from repro.solver.solver import SolverConfig
from repro.solver.types import Status

#: Paper's labelling threshold: >= 2% propagation reduction -> label 1.
REDUCTION_THRESHOLD = 0.02


def default_labeling_config() -> SolverConfig:
    """Scaled-down Kissat reduce schedule used across the evaluation.

    Kissat's stock intervals assume runs of millions of conflicts; our
    instances run thousands, so the reduce interval is scaled down
    proportionally to keep the *number of reduction rounds per run*
    comparable.  Both policies always share one config, so comparisons
    stay apples-to-apples.
    """
    return SolverConfig(reduce_interval=75, reduce_interval_growth=30, reduce_fraction=0.75)


@dataclass(frozen=True)
class PolicyComparison:
    """Effort of both policies on one instance, plus the derived label."""

    default_result_status: Status
    frequency_result_status: Status
    default_propagations: int
    frequency_propagations: int
    label: int
    #: Measured wall-clock per policy run.  Labels are derived from
    #: propagations (the paper's deterministic measure); wall-clock is
    #: recorded alongside for cost accounting and latency reports, and
    #: defaults to 0.0 so datasets written before it existed still load.
    #: Excluded from equality: two runs of the same instance are the
    #: same comparison even though their timings jitter.
    default_wall_seconds: float = field(default=0.0, compare=False)
    frequency_wall_seconds: float = field(default=0.0, compare=False)

    @property
    def reduction(self) -> float:
        """Fractional propagation reduction of the frequency policy."""
        if self.default_propagations == 0:
            return 0.0
        return 1.0 - self.frequency_propagations / self.default_propagations


def _derive_comparison(
    default: SolveOutcome, frequency: SolveOutcome, threshold: float
) -> PolicyComparison:
    """The Sec. 5.1 labelling rule applied to one instance's two runs."""
    d = default.propagations
    f = frequency.propagations
    # ``decided`` means SAT/UNSAT: a budget-UNKNOWN or a supervision
    # failure (TIMEOUT / ERROR / MEMOUT) contributes no evidence, and an
    # instance with no decided run keeps the safe label 0.  A failed run
    # also reports zero effort, which would fake a 100% reduction — any
    # failure on either side therefore forces the safe label too.
    decided = default.status.decided or frequency.status.decided
    comparable = not (default.status.failed or frequency.status.failed)
    label = 1 if (decided and comparable and d > 0 and (d - f) / d >= threshold) else 0
    return PolicyComparison(
        default_result_status=default.status,
        frequency_result_status=frequency.status,
        default_propagations=d,
        frequency_propagations=f,
        label=label,
        default_wall_seconds=default.wall_seconds,
        frequency_wall_seconds=frequency.wall_seconds,
    )


def label_instances(
    cnfs: Sequence[CNF],
    max_conflicts: Optional[int] = 20_000,
    max_propagations: Optional[int] = None,
    threshold: float = REDUCTION_THRESHOLD,
    config: Optional[SolverConfig] = None,
    runner: Optional[ParallelRunner] = None,
    observer: Optional[Observer] = None,
) -> List[PolicyComparison]:
    """Dual-policy labelling of a batch: the one labelling entry point.

    Every instance is solved once per deletion policy (2N tasks, default
    then frequency) on one shared config, and the ``runner`` executes
    them — a plain in-process ``ParallelRunner()`` when none is given.
    The runner decides only how the tasks execute (worker processes,
    result cache, resume journal); a solve it times out or loses to a
    crash becomes a failed outcome and the safe label 0.
    """
    if runner is None:
        runner = ParallelRunner(observer=observer)
    observer = observer if observer is not None else runner.observer
    config = config or default_labeling_config()
    tasks = [
        SolveTask(
            cnf=cnf,
            policy=policy,
            config=config,
            max_conflicts=max_conflicts,
            max_propagations=max_propagations,
            tag=f"label-{index:05d}",
        )
        for index, cnf in enumerate(cnfs)
        for policy in ("default", "frequency")
    ]
    outcomes = runner.run(tasks)
    comparisons: List[PolicyComparison] = []
    for i in range(0, len(outcomes), 2):
        comparison = _derive_comparison(outcomes[i], outcomes[i + 1], threshold)
        comparisons.append(comparison)
        observer.event(
            "label",
            instance=i // 2,
            label=comparison.label,
            reduction=round(comparison.reduction, 6),
            default_propagations=comparison.default_propagations,
            frequency_propagations=comparison.frequency_propagations,
        )
    observer.flush()
    return comparisons
