"""Literal-clause graph — the NeuroSAT encoding (baseline of Table 2).

One node per *literal* (2 per variable: index ``2i`` for ``x_{i+1}``,
``2i+1`` for ``¬x_{i+1}``) plus one node per clause.  An unweighted edge
connects a literal to every clause containing it.  NeuroSAT additionally
exchanges state between complementary literals each round ("flip").
"""

from __future__ import annotations

import numpy as np

from repro.cnf.formula import CNF


class LiteralClauseGraph:
    """COO literal-clause graph of a CNF formula."""

    def __init__(self, cnf: CNF):
        self.num_vars = cnf.num_vars
        self.num_literals = 2 * cnf.num_vars
        self.num_clauses = cnf.num_clauses

        lits = cnf.lits
        self.edge_lit = 2 * (np.abs(lits).astype(np.int64) - 1) + (lits < 0)
        self.edge_clause = np.repeat(
            np.arange(self.num_clauses, dtype=np.int64), np.diff(cnf.offsets)
        )

        self.lit_degree = np.maximum(
            np.bincount(self.edge_lit, minlength=self.num_literals), 1
        ).astype(np.float64)
        self.clause_degree = np.maximum(
            np.bincount(self.edge_clause, minlength=self.num_clauses), 1
        ).astype(np.float64)

    def flip_index(self) -> np.ndarray:
        """Permutation mapping each literal node to its complement."""
        idx = np.arange(self.num_literals)
        return idx ^ 1

    @property
    def num_nodes(self) -> int:
        return self.num_literals + self.num_clauses

    @property
    def num_edges(self) -> int:
        return len(self.edge_lit)

    def __repr__(self) -> str:
        return (
            f"LiteralClauseGraph(literals={self.num_literals}, "
            f"clauses={self.num_clauses}, edges={self.num_edges})"
        )
