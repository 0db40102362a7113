"""Formula transformations: renaming, shuffling, polarity flips, compaction.

Satisfiability is invariant under (a) permuting clause order, (b)
renaming variables, and (c) flipping the polarity of any variable subset
— the classic symmetries of CNF.  These transforms serve two purposes:

* **data augmentation** for the learning pipeline (a classifier should
  not change its answer under any of them);
* **metamorphic testing** of the solver (status must be preserved; a
  model of the transformed formula must map back to the original).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.cnf.formula import CNF


def shuffle_clauses(cnf: CNF, seed: int = 0) -> CNF:
    """Permute clause order (literal order inside clauses is kept)."""
    rng = random.Random(seed)
    clauses = [list(c.literals) for c in cnf.clauses]
    rng.shuffle(clauses)
    return CNF(clauses, num_vars=cnf.num_vars, comments=list(cnf.comments))


def rename_variables(cnf: CNF, mapping: Optional[Dict[int, int]] = None, seed: int = 0) -> CNF:
    """Apply a variable permutation; a random one is drawn when omitted.

    ``mapping`` must be a bijection on ``1..num_vars``.
    """
    if mapping is None:
        rng = random.Random(seed)
        targets = list(range(1, cnf.num_vars + 1))
        rng.shuffle(targets)
        mapping = {v: targets[v - 1] for v in range(1, cnf.num_vars + 1)}
    else:
        domain = set(mapping)
        image = set(mapping.values())
        expected = set(range(1, cnf.num_vars + 1))
        if domain != expected or image != expected:
            raise ValueError("mapping must be a permutation of 1..num_vars")
    clauses = [
        [mapping[abs(lit)] * (1 if lit > 0 else -1) for lit in c.literals]
        for c in cnf.clauses
    ]
    return CNF(clauses, num_vars=cnf.num_vars, comments=list(cnf.comments))


def flip_polarity(cnf: CNF, variables: Optional[Sequence[int]] = None, seed: int = 0) -> CNF:
    """Negate every occurrence of the given variables (random half if omitted).

    A model of the flipped formula maps back by inverting the flipped
    variables' values.
    """
    if variables is None:
        rng = random.Random(seed)
        variables = [v for v in range(1, cnf.num_vars + 1) if rng.random() < 0.5]
    flipped = set(variables)
    if any(v < 1 or v > cnf.num_vars for v in flipped):
        raise ValueError("variables out of range")
    clauses = [
        [-lit if abs(lit) in flipped else lit for lit in c.literals]
        for c in cnf.clauses
    ]
    out = CNF(clauses, num_vars=cnf.num_vars, comments=list(cnf.comments))
    return out


def duplicate_clauses(cnf: CNF, fraction: float = 0.25, seed: int = 0) -> CNF:
    """Append copies of a random clause subset (satisfiability invariant).

    Conjunction is idempotent, so repeating clauses never changes the
    set of models — but it does perturb watch-list layout, clause-db
    ordering, and deletion-policy scores, which makes duplication a
    useful metamorphic mutation for differential fuzzing.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = random.Random(seed)
    clauses = [list(c.literals) for c in cnf.clauses]
    extras = [list(c) for c in clauses if rng.random() < fraction]
    return CNF(clauses + extras, num_vars=cnf.num_vars, comments=list(cnf.comments))


def compact_variables(cnf: CNF) -> CNF:
    """Renumber so that used variables become 1..k (gaps removed)."""
    used = sorted(cnf.variables())
    mapping = {old: new for new, old in enumerate(used, start=1)}
    clauses = [
        [mapping[abs(lit)] * (1 if lit > 0 else -1) for lit in c.literals]
        for c in cnf.clauses
    ]
    return CNF(clauses, num_vars=len(used), comments=list(cnf.comments))


def augment(cnf: CNF, seed: int = 0) -> CNF:
    """One random symmetry-preserving augmentation (rename+flip+shuffle)."""
    step1 = rename_variables(cnf, seed=seed)
    step2 = flip_polarity(step1, seed=seed + 1)
    return shuffle_clauses(step2, seed=seed + 2)

