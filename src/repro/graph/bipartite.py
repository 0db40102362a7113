"""Undirected bipartite variable-clause graph (paper Sec. 4.2).

``G = (V, E, W)`` with ``V = V1 (variables) ∪ V2 (clauses)``.  An edge
links variable ``x_i`` and clause ``c_j`` when the variable occurs in the
clause; its weight is ``+1`` for a positive occurrence and ``-1`` for a
negated one.  Initial node embeddings: 1 for variables, 0 for clauses.

Edges are stored as parallel index arrays (COO), which the MPNN layers
consume directly through the autograd gather/scatter primitives — message
passing stays ``O(|E|)`` as in the paper's complexity analysis.
"""

from __future__ import annotations

import numpy as np

from repro.cnf.formula import CNF


class BipartiteGraph:
    """COO bipartite graph of a CNF formula.

    Attributes
    ----------
    num_vars, num_clauses:
        Node counts of the two partitions (``|V1|``, ``|V2|``).
    edge_var, edge_clause:
        0-based endpoint indices of each edge (variable side, clause side).
    edge_weight:
        +1.0 / -1.0 per edge (polarity of the occurrence).
    var_degree, clause_degree:
        Node degrees, floored at 1 for safe mean-aggregation division.
    """

    def __init__(self, cnf: CNF):
        self.num_vars = cnf.num_vars
        self.num_clauses = cnf.num_clauses

        lits = cnf.lits
        self.edge_var = np.abs(lits).astype(np.int64) - 1
        self.edge_clause = np.repeat(
            np.arange(self.num_clauses, dtype=np.int64), np.diff(cnf.offsets)
        )
        self.edge_weight = np.where(lits > 0, 1.0, -1.0)

        self.var_degree = np.maximum(
            np.bincount(self.edge_var, minlength=self.num_vars), 1
        ).astype(np.float64)
        self.clause_degree = np.maximum(
            np.bincount(self.edge_clause, minlength=self.num_clauses), 1
        ).astype(np.float64)

    # -- node features ----------------------------------------------------

    def initial_var_features(self, dim: int) -> np.ndarray:
        """All-ones initial variable embeddings (paper Sec. 4.2)."""
        return np.ones((self.num_vars, dim), dtype=np.float64)

    def initial_clause_features(self, dim: int) -> np.ndarray:
        """All-zeros initial clause embeddings (paper Sec. 4.2)."""
        return np.zeros((self.num_clauses, dim), dtype=np.float64)

    # -- inspection ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count — the paper's 400k-node dataset filter uses this."""
        return self.num_vars + self.num_clauses

    @property
    def num_edges(self) -> int:
        return len(self.edge_var)

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(vars={self.num_vars}, clauses={self.num_clauses}, "
            f"edges={self.num_edges})"
        )
