"""Message-passing layers over the bipartite variable-clause graph.

Implements Eqs. (6)-(7) of the paper.  Aggregation (Eq. 6) computes, for
every node ``v``,

    m_v = (1 / |N(v)|) * sum_{u in N(v)} w_uv * MLP(h_u)

where the MLP is a single linear layer and ``w_uv`` is the ±1 edge
weight.  The update (Eq. 7) is

    h_v' = sigma(MLP(m_v + MLP(h_v)))

with ReLU as the activation.  On the bipartite graph one
:class:`BipartiteMPNNLayer` performs a full round: variables -> clauses,
then clauses -> variables, each direction with its own parameters.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor


class DirectedMessagePass(Module):
    """One direction of Eq. (6)-(7): messages from source to target nodes."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.message_mlp = Linear(dim, dim, rng=rng)  # MLP(h_u) in Eq. (6)
        self.self_mlp = Linear(dim, dim, rng=rng)  # inner MLP(h_v) in Eq. (7)
        self.update_mlp = Linear(dim, dim, rng=rng)  # outer MLP in Eq. (7)

    def forward(
        self,
        source: Tensor,
        target: Tensor,
        edge_source: np.ndarray,
        edge_target: np.ndarray,
        edge_weight: np.ndarray,
        target_degree: np.ndarray,
    ) -> Tensor:
        summed = self.message_mlp(source).message_sum(
            edge_source, edge_target, edge_weight, target.shape[0]
        )
        mean = summed / Tensor(target_degree[:, None])  # Eq. (6)
        return self.update_mlp(mean + self.self_mlp(target)).relu()  # Eq. (7)


class BipartiteMPNNLayer(Module):
    """One full message-passing round on the variable-clause graph.

    Clause features are refreshed from variable messages first, then
    variable features from the *new* clause features — information moves
    two hops per layer, matching the usual bipartite GNN convention.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.var_to_clause = DirectedMessagePass(dim, rng=rng)
        self.clause_to_var = DirectedMessagePass(dim, rng=rng)

    def forward(
        self,
        var_features: Tensor,
        clause_features: Tensor,
        graph: BipartiteGraph,
    ) -> Tuple[Tensor, Tensor]:
        new_clause = self.var_to_clause(
            var_features,
            clause_features,
            graph.edge_var,
            graph.edge_clause,
            graph.edge_weight,
            graph.clause_degree,
        )
        new_var = self.clause_to_var(
            new_clause,
            var_features,
            graph.edge_clause,
            graph.edge_var,
            graph.edge_weight,
            graph.var_degree,
        )
        return new_var, new_clause


class MPNNStack(Module):
    """``num_layers`` chained rounds — the "MPNN" block of Eq. (3)."""

    def __init__(
        self,
        dim: int,
        num_layers: int = 3,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_layers < 1:
            raise ValueError("need at least one message-passing layer")
        rng = rng or np.random.default_rng(0)
        self.layers = [BipartiteMPNNLayer(dim, rng=rng) for _ in range(num_layers)]

    def forward(
        self,
        var_features: Tensor,
        clause_features: Tensor,
        graph: BipartiteGraph,
    ) -> Tuple[Tensor, Tensor]:
        for layer in self.layers:
            var_features, clause_features = layer(var_features, clause_features, graph)
        return var_features, clause_features
