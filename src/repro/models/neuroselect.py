"""The NeuroSelect classifier (paper Section 4).

Pipeline (Figure 6): CNF -> bipartite graph -> input encoders -> ``L``
HGT layers -> variable-node readout (Eq. 10) -> MLP -> sigmoid, yielding
the probability that the propagation-frequency deletion policy (label 1)
beats the default policy (label 0) on this instance.

Defaults follow Sec. 5.2: hidden dimension 32, two HGT layers, three
message-passing layers per HGT layer.
"""

from __future__ import annotations

import numpy as np

from repro.cnf.formula import CNF
from repro.graph.bipartite import BipartiteGraph
from repro.models.hgt import HGTLayer
from repro.models.readout import READOUTS
from repro.nn.layers import Linear, MLP, Module
from repro.nn.tensor import Tensor, no_grad


class NeuroSelect(Module):
    """Hybrid-graph-transformer policy classifier."""

    def __init__(
        self,
        hidden_dim: int = 32,
        num_hgt_layers: int = 2,
        mpnn_layers_per_hgt: int = 3,
        use_attention: bool = True,
        readout: str = "mean",
        seed: int = 0,
    ):
        if readout not in READOUTS:
            raise ValueError(f"unknown readout {readout!r}; options: {sorted(READOUTS)}")
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.use_attention = use_attention
        # Initial scalar embeddings (1 for variables, 0 for clauses, Sec. 4.2)
        # are lifted to the hidden width by per-partition encoders.
        self.var_encoder = Linear(1, hidden_dim, rng=rng)
        self.clause_encoder = Linear(1, hidden_dim, rng=rng)
        self.hgt_layers = [
            HGTLayer(
                hidden_dim,
                mpnn_layers=mpnn_layers_per_hgt,
                use_attention=use_attention,
                rng=rng,
            )
            for _ in range(num_hgt_layers)
        ]
        self.head = MLP([hidden_dim, hidden_dim, 1], rng=rng)
        self.readout_name = readout

    # -- forward -------------------------------------------------------------

    def forward(self, graph: BipartiteGraph) -> Tensor:
        """Raw logit for one instance (shape (1, 1))."""
        var_x = self.var_encoder(Tensor(graph.initial_var_features(1)))
        clause_x = self.clause_encoder(Tensor(graph.initial_clause_features(1)))
        for layer in self.hgt_layers:
            var_x, clause_x = layer(var_x, clause_x, graph)
        h_graph = READOUTS[self.readout_name](var_x)  # Eq. (10)
        return self.head(h_graph)

    def forward_batch(self, batch) -> Tensor:
        """Logits for a :class:`~repro.graph.batching.BatchedBipartiteGraph`.

        One forward pass over the disjoint union; linear attention and
        readout respect member-graph boundaries via the batch's segment
        indices.  Returns shape ``(num_graphs, 1)`` — identical values to
        running :meth:`forward` per member.
        """
        if self.readout_name != "mean":
            raise NotImplementedError(
                "batched forward currently supports the mean readout only"
            )
        var_x = self.var_encoder(Tensor(batch.initial_var_features(1)))
        clause_x = self.clause_encoder(Tensor(batch.initial_clause_features(1)))
        for layer in self.hgt_layers:
            var_x, clause_x = layer(var_x, clause_x, batch)
        # Per-graph mean readout (Eq. 10) over each member's variables.
        summed = var_x.scatter_sum(batch.var_graph_index, batch.num_graphs)
        h_graphs = summed / Tensor(batch.var_counts[:, None])
        return self.head(h_graphs)

    def predict_proba_batch(self, batch) -> list:
        """Per-member probabilities for a batched graph."""
        with no_grad():
            logits = self.forward_batch(batch).data.ravel()
        return [
            float(1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0)))) for raw in logits
        ]

    def predict_proba(self, instance) -> float:
        """P(frequency policy wins) for a CNF or a prebuilt graph.

        Runs under :func:`~repro.nn.tensor.no_grad`, as does
        :meth:`predict_proba_batch`: inference records no autograd graph.
        """
        graph = instance if isinstance(instance, BipartiteGraph) else BipartiteGraph(instance)
        with no_grad():
            logit = self.forward(graph)
        raw = float(logit.data.ravel()[0])
        return float(1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0))))

    def predict(self, instance, threshold: float = 0.5) -> int:
        """Hard policy label: 1 = frequency policy, 0 = default policy."""
        return int(self.predict_proba(instance) >= threshold)

    #: Graph encoding this model consumes (used by the generic trainer).
    graph_type = BipartiteGraph


def neuroselect_without_attention(
    hidden_dim: int = 32,
    num_hgt_layers: int = 2,
    mpnn_layers_per_hgt: int = 3,
    seed: int = 0,
) -> NeuroSelect:
    """The Table 2 ablation: identical model with attention blocks removed."""
    return NeuroSelect(
        hidden_dim=hidden_dim,
        num_hgt_layers=num_hgt_layers,
        mpnn_layers_per_hgt=mpnn_layers_per_hgt,
        use_attention=False,
        seed=seed,
    )
