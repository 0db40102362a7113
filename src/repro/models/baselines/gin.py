"""GIN classifier on the variable-clause graph (G4SATBench baseline).

Graph Isomorphism Network (Xu et al., 2019) as benchmarked by
G4SATBench: per layer, every node's state becomes

    h_v' = MLP((1 + eps) * h_v + sum_{u in N(v)} h_u)

with *sum* aggregation and a learnable ``eps``.  Layers alternate
variable->clause and clause->variable halves on the bipartite graph; edge
polarity is ignored (GIN is unweighted), which is one reason it trails
NeuroSelect in Table 2.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.nn.layers import Linear, MLP, Module
from repro.nn.tensor import Tensor, no_grad


class GINHalfLayer(Module):
    """One GIN update of the target partition from the source partition."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.mlp = MLP([dim, dim, dim], rng=rng)
        self.eps = Tensor(np.zeros(1), requires_grad=True)

    def forward(
        self,
        source: Tensor,
        target: Tensor,
        edge_source: np.ndarray,
        edge_target: np.ndarray,
    ) -> Tensor:
        neighbor_sum = source.gather_rows(edge_source).scatter_sum(
            edge_target, target.shape[0]
        )
        return self.mlp(target * (self.eps + 1.0) + neighbor_sum)


class GINClassifier(Module):
    """Stacked bipartite GIN layers + mean variable readout."""

    def __init__(self, hidden_dim: int = 32, num_layers: int = 3, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.var_encoder = Linear(1, hidden_dim, rng=rng)
        self.clause_encoder = Linear(1, hidden_dim, rng=rng)
        self.var_to_clause = [GINHalfLayer(hidden_dim, rng=rng) for _ in range(num_layers)]
        self.clause_to_var = [GINHalfLayer(hidden_dim, rng=rng) for _ in range(num_layers)]
        self.head = MLP([hidden_dim, hidden_dim, 1], rng=rng)

    def forward(self, graph: BipartiteGraph) -> Tensor:
        var_x = self.var_encoder(Tensor(graph.initial_var_features(1)))
        clause_x = self.clause_encoder(Tensor(graph.initial_clause_features(1)))
        for v2c, c2v in zip(self.var_to_clause, self.clause_to_var):
            clause_x = v2c(var_x, clause_x, graph.edge_var, graph.edge_clause).relu()
            var_x = c2v(clause_x, var_x, graph.edge_clause, graph.edge_var).relu()
        h_graph = var_x.mean(axis=0, keepdims=True)
        return self.head(h_graph)

    def predict_proba(self, instance) -> float:
        graph = instance if isinstance(instance, BipartiteGraph) else BipartiteGraph(instance)
        with no_grad():
            logit = self.forward(graph)
        raw = float(logit.data.ravel()[0])
        return float(1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0))))

    def predict(self, instance, threshold: float = 0.5) -> int:
        return int(self.predict_proba(instance) >= threshold)

    graph_type = BipartiteGraph
