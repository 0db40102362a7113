"""Batching: disjoint union of bipartite graphs with segment indices.

A :class:`BatchedBipartiteGraph` concatenates several
:class:`~repro.graph.bipartite.BipartiteGraph` objects into one graph
whose node indices are offset per member, plus ``var_graph_index`` /
``clause_graph_index`` arrays recording which member each node belongs
to.  Message passing runs unchanged on the union (edges never cross
members); readout and — less obviously — *linear attention* must respect
member boundaries, which the segment indices make possible.  Each
member's nodes occupy one contiguous row range, in member order, which
:class:`repro.models.linear_attention.LinearAttention` relies on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph


class BatchedBipartiteGraph:
    """Disjoint union of bipartite variable-clause graphs."""

    def __init__(self, graphs: Sequence[BipartiteGraph]):
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        self.graphs = list(graphs)
        self.num_graphs = len(graphs)

        var_offsets = [0]
        clause_offsets = [0]
        for g in graphs:
            var_offsets.append(var_offsets[-1] + g.num_vars)
            clause_offsets.append(clause_offsets[-1] + g.num_clauses)
        self.var_offsets = np.asarray(var_offsets, dtype=np.int64)
        self.clause_offsets = np.asarray(clause_offsets, dtype=np.int64)

        self.num_vars = int(self.var_offsets[-1])
        self.num_clauses = int(self.clause_offsets[-1])

        self.edge_var = np.concatenate(
            [g.edge_var + off for g, off in zip(graphs, self.var_offsets[:-1])]
        ) if any(g.num_edges for g in graphs) else np.zeros(0, dtype=np.int64)
        self.edge_clause = np.concatenate(
            [g.edge_clause + off for g, off in zip(graphs, self.clause_offsets[:-1])]
        ) if any(g.num_edges for g in graphs) else np.zeros(0, dtype=np.int64)
        self.edge_weight = (
            np.concatenate([g.edge_weight for g in graphs])
            if any(g.num_edges for g in graphs)
            else np.zeros(0, dtype=np.float64)
        )

        self.var_degree = np.concatenate([g.var_degree for g in graphs])
        self.clause_degree = np.concatenate([g.clause_degree for g in graphs])

        self.var_graph_index = np.concatenate(
            [np.full(g.num_vars, i, dtype=np.int64) for i, g in enumerate(graphs)]
        )
        self.clause_graph_index = np.concatenate(
            [np.full(g.num_clauses, i, dtype=np.int64) for i, g in enumerate(graphs)]
        )
        #: Variable-node count per member graph (for means and attention).
        self.var_counts = np.asarray(
            [g.num_vars for g in graphs], dtype=np.float64
        )

    # -- node features -----------------------------------------------------

    def initial_var_features(self, dim: int) -> np.ndarray:
        return np.ones((self.num_vars, dim), dtype=np.float64)

    def initial_clause_features(self, dim: int) -> np.ndarray:
        return np.zeros((self.num_clauses, dim), dtype=np.float64)

    # -- inspection ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.num_vars + self.num_clauses

    @property
    def num_edges(self) -> int:
        return len(self.edge_var)

    def var_slice(self, index: int) -> slice:
        """Row slice of member ``index``'s variable nodes."""
        return slice(int(self.var_offsets[index]), int(self.var_offsets[index + 1]))

    def __len__(self) -> int:
        return self.num_graphs

    def __repr__(self) -> str:
        return (
            f"BatchedBipartiteGraph(graphs={self.num_graphs}, vars={self.num_vars}, "
            f"clauses={self.num_clauses}, edges={self.num_edges})"
        )


def batch_graphs(graphs: Sequence[BipartiteGraph]) -> BatchedBipartiteGraph:
    """Convenience constructor matching torch-geometric's ``Batch``."""
    return BatchedBipartiteGraph(graphs)
