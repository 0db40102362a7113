"""Dataset construction: the Table 1 analogue.

The paper trains on SAT Competition 2016-2021 main tracks and tests on
2022, filtering out formulas whose graph exceeds 400,000 nodes.  Offline,
each "year" is a seed block over the synthetic generator families: the
year determines the base seed, so every year yields a distinct but
reproducible instance mix, and 2022 is held out for testing exactly as in
the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cnf.formula import CNF
from repro.cnf.generators import (
    cardinality_conflict,
    community_sat,
    graph_coloring,
    parity_chain,
    pigeonhole,
    random_ksat,
)
from repro.obs.observer import Observer
from repro.parallel.runner import ParallelRunner
from repro.selection.labeling import PolicyComparison, label_instances

TRAIN_YEARS: Tuple[int, ...] = (2016, 2017, 2018, 2019, 2020, 2021)
TEST_YEAR: int = 2022

#: Paper's GPU-memory filter, scaled to our instance sizes.  Any formula
#: whose bipartite graph exceeds this node count is excluded.
DEFAULT_MAX_NODES = 400_000


@dataclass
class LabeledInstance:
    """One dataset entry: formula, provenance, and ground-truth label."""

    cnf: CNF
    year: int
    family: str
    comparison: PolicyComparison

    @property
    def label(self) -> int:
        return self.comparison.label


@dataclass
class PolicyDataset:
    """Instances grouped into the paper's train/test year split."""

    train: List[LabeledInstance] = field(default_factory=list)
    test: List[LabeledInstance] = field(default_factory=list)

    def all_instances(self) -> List[LabeledInstance]:
        return self.train + self.test

    def label_balance(self) -> Dict[str, float]:
        """Fraction of label-1 instances in each split."""
        out = {}
        for name, split in (("train", self.train), ("test", self.test)):
            out[name] = (
                sum(inst.label for inst in split) / len(split) if split else 0.0
            )
        return out


def _instance_pool(year: int, count: int, scale: float) -> List[Tuple[str, CNF]]:
    """A reproducible mixed-family batch for one synthetic "year".

    ``scale`` stretches instance sizes so different years have slightly
    different statistics, as in Table 1.
    """
    rng = random.Random(year * 7919)
    out: List[Tuple[str, CNF]] = []
    for i in range(count):
        seed = year * 1000 + i
        family_pick = rng.random()
        if family_pick < 0.40:
            n = int(rng.randint(130, 220) * scale)
            ratio = rng.uniform(4.0, 4.4)
            cnf = random_ksat(n, int(n * ratio), seed=seed)
            family = "random_ksat"
        elif family_pick < 0.50:
            n = int(rng.randint(10, 14) * scale)
            cnf = parity_chain(
                n,
                chain_length=3,
                parity=rng.randint(0, 1),
                seed=seed,
                contradiction=rng.random() < 0.7,
            )
            family = "parity_chain"
        elif family_pick < 0.75:
            comms = rng.randint(2, 3)
            vpc = int(rng.randint(100, 150) * scale)
            cpc = int(vpc * rng.uniform(4.05, 4.35))
            cnf = community_sat(comms, vpc, cpc, seed=seed)
            family = "community_sat"
        elif family_pick < 0.80:
            nodes = int(rng.randint(30, 50) * scale)
            cnf = graph_coloring(nodes, 3, rng.uniform(4.2, 5.0) / nodes, seed=seed)
            family = "graph_coloring"
        elif family_pick < 0.92:
            n = int(rng.randint(16, 26) * scale)
            cnf = cardinality_conflict(n, overconstrained=rng.random() < 0.75, seed=seed)
            family = "cardinality_conflict"
        else:
            cnf = pigeonhole(rng.randint(6, 7))
            family = "pigeonhole"
        out.append((family, cnf))
    return out


def build_dataset(
    instances_per_year: int = 20,
    train_years: Sequence[int] = TRAIN_YEARS,
    test_year: int = TEST_YEAR,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_conflicts: int = 20_000,
    scale: float = 1.0,
    runner: Optional[ParallelRunner] = None,
    observer: Optional[Observer] = None,
) -> PolicyDataset:
    """Generate, filter, and label the full dataset.

    This is the expensive step (two solver runs per instance).  Callers
    size it with ``instances_per_year`` and ``max_conflicts``, and scale
    it with the ``runner`` (see
    :class:`~repro.parallel.runner.ParallelRunner`): process fan-out, an
    on-disk result cache (rebuilding an already-labelled dataset does
    zero solver work), per-task timeouts into label 0, and a resume
    journal.  The labels are identical for every runner — it only
    reorders or skips execution, never changes results.
    """
    # Generate and filter every instance first, then label as one batch
    # so the runner sees the full fan-out width.
    entries: List[Tuple[int, str, CNF]] = []
    for year in list(train_years) + [test_year]:
        for family, cnf in _instance_pool(year, instances_per_year, scale):
            # The paper's 400k-node GPU-memory filter; the bipartite
            # graph has one node per variable and one per clause.
            if cnf.num_vars + cnf.num_clauses > max_nodes:
                continue
            entries.append((year, family, cnf))

    comparisons = label_instances(
        [cnf for _, _, cnf in entries],
        max_conflicts=max_conflicts,
        runner=runner,
        observer=observer,
    )

    dataset = PolicyDataset()
    for (year, family, cnf), comparison in zip(entries, comparisons):
        split = dataset.test if year == test_year else dataset.train
        split.append(
            LabeledInstance(cnf=cnf, year=year, family=family, comparison=comparison)
        )
    return dataset


def augment_dataset(
    instances: Sequence[LabeledInstance],
    copies: int = 1,
    base_seed: int = 0,
) -> List[LabeledInstance]:
    """Symmetry-based data augmentation for training splits.

    Each copy applies a random satisfiability-preserving transform
    (variable renaming + polarity flip + clause shuffle) and inherits the
    original's label.  Caveat, stated honestly: solver *effort* is not
    exactly invariant under these symmetries (heuristic tie-breaking
    shifts), but the label is treated as a structural property — the
    standard augmentation assumption, and precisely the invariance a
    graph classifier should satisfy.  Use on training data only.
    """
    from repro.cnf.transforms import augment

    if copies < 0:
        raise ValueError("copies must be non-negative")
    out: List[LabeledInstance] = list(instances)
    for copy_index in range(copies):
        for i, inst in enumerate(instances):
            seed = base_seed + copy_index * 100_003 + i
            out.append(
                LabeledInstance(
                    cnf=augment(inst.cnf, seed=seed),
                    year=inst.year,
                    family=inst.family,
                    comparison=inst.comparison,
                )
            )
    return out


@dataclass(frozen=True)
class YearStatistics:
    """One row of the Table 1 analogue."""

    split: str
    year: int
    num_cnfs: int
    mean_variables: float
    mean_clauses: float


def dataset_statistics(dataset: PolicyDataset) -> List[YearStatistics]:
    """Per-year dataset statistics (reproduces Table 1's columns)."""
    rows: List[YearStatistics] = []
    by_year: Dict[Tuple[str, int], List[LabeledInstance]] = {}
    for inst in dataset.train:
        by_year.setdefault(("Training", inst.year), []).append(inst)
    for inst in dataset.test:
        by_year.setdefault(("Test", inst.year), []).append(inst)
    for (split, year), instances in sorted(by_year.items(), key=lambda kv: kv[0][1]):
        rows.append(
            YearStatistics(
                split=split,
                year=year,
                num_cnfs=len(instances),
                mean_variables=sum(i.cnf.num_vars for i in instances) / len(instances),
                mean_clauses=sum(i.cnf.num_clauses for i in instances) / len(instances),
            )
        )
    return rows
