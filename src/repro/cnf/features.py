"""Static feature extraction for CNF formulas.

These cheap structural features are used for dataset statistics (Table 1
analogue), for sanity checks on generated instances, and as an optional
auxiliary input to classification models.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, List, Sequence

import numpy as np

from repro.cnf.formula import CNF


@dataclass(frozen=True)
class FormulaFeatures:
    """Summary statistics of a CNF formula."""

    num_vars: int
    num_clauses: int
    num_literals: int
    clause_var_ratio: float
    mean_clause_size: float
    max_clause_size: int
    min_clause_size: int
    binary_fraction: float
    ternary_fraction: float
    horn_fraction: float
    positive_literal_fraction: float
    mean_var_occurrence: float
    max_var_occurrence: int
    var_occurrence_gini: float

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    def as_vector(self) -> List[float]:
        """Features as a fixed-order list of floats (model input)."""
        return [float(v) for v in asdict(self).values()]


def _gini(values: Sequence[int]) -> float:
    """Gini coefficient of a non-negative int sample (0 = uniform, ->1 = skewed)."""
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    total = int(values.sum())
    if n == 0 or total == 0:
        return 0.0
    # Lorenz-curve partial sums: integers, so int64 is exact.
    weighted = int(np.cumsum(np.sort(values)).sum())
    # Gini via Lorenz curve area: G = 1 - 2 * B where B = area under curve.
    return 1.0 - 2.0 * (weighted - total / 2.0) / (n * total)


def extract_features(cnf: CNF) -> FormulaFeatures:
    """Compute :class:`FormulaFeatures` for a formula, from its flat
    clause arrays.

    Degenerate formulas (no clauses / no variables) yield zeroed ratios
    rather than raising, so feature extraction is total.
    """
    num_vars = cnf.num_vars
    num_clauses = cnf.num_clauses
    lits = cnf.lits
    offsets = cnf.offsets
    sizes = np.diff(offsets)
    num_literals = len(lits)

    occ = np.bincount(np.abs(lits), minlength=num_vars + 1)[1:]
    positive_before = np.concatenate(([0], np.cumsum(lits > 0)))
    positive = int(positive_before[-1])
    # Horn: at most one positive literal in the clause.
    per_clause = positive_before[offsets[1:]] - positive_before[offsets[:-1]]
    horn = int(np.count_nonzero(per_clause <= 1))
    binary = int(np.count_nonzero(sizes == 2))
    ternary = int(np.count_nonzero(sizes == 3))

    mean_occ = (num_literals / num_vars) if num_vars else 0.0
    return FormulaFeatures(
        num_vars=num_vars,
        num_clauses=num_clauses,
        num_literals=num_literals,
        clause_var_ratio=(num_clauses / num_vars) if num_vars else 0.0,
        mean_clause_size=(num_literals / num_clauses) if num_clauses else 0.0,
        max_clause_size=int(sizes.max()) if num_clauses else 0,
        min_clause_size=int(sizes.min()) if num_clauses else 0,
        binary_fraction=(binary / num_clauses) if num_clauses else 0.0,
        ternary_fraction=(ternary / num_clauses) if num_clauses else 0.0,
        horn_fraction=(horn / num_clauses) if num_clauses else 0.0,
        positive_literal_fraction=(positive / num_literals) if num_literals else 0.0,
        mean_var_occurrence=mean_occ,
        max_var_occurrence=int(occ.max()) if num_vars else 0,
        var_occurrence_gini=_gini(occ),
    )
