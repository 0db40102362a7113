"""NeuroSAT-style classifier (Table 2 baseline).

Follows Selsam et al. (2018): the CNF is a *literal*-clause graph; for
``T`` rounds, clause states aggregate messages from their literals and
literal states aggregate messages from their clauses plus the state of
their complement literal (the "flip").  The original uses LSTM updates;
this reproduction uses gateless tanh recurrences of matching widths —
the simplification is documented in DESIGN.md and only needs to hold up
as a classification baseline, which is all Table 2 asks of it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.lcg import LiteralClauseGraph
from repro.nn.layers import Linear, MLP, Module
from repro.nn.tensor import Tensor, no_grad


class NeuroSATClassifier(Module):
    """Recurrent literal/clause message passing + mean literal readout."""

    def __init__(
        self,
        hidden_dim: int = 32,
        num_rounds: int = 6,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.num_rounds = num_rounds
        # Learned initial states (shared across all literals / clauses).
        self.lit_init = Tensor(rng.normal(scale=0.1, size=(1, hidden_dim)), requires_grad=True)
        self.clause_init = Tensor(rng.normal(scale=0.1, size=(1, hidden_dim)), requires_grad=True)
        # Message encoders and state updates.
        self.lit_msg = MLP([hidden_dim, hidden_dim, hidden_dim], rng=rng)
        self.clause_msg = MLP([hidden_dim, hidden_dim, hidden_dim], rng=rng)
        self.clause_update = Linear(2 * hidden_dim, hidden_dim, rng=rng)
        self.lit_update = Linear(3 * hidden_dim, hidden_dim, rng=rng)
        self.head = MLP([hidden_dim, hidden_dim, 1], rng=rng)

    def forward(self, graph: LiteralClauseGraph) -> Tensor:
        ones_l = Tensor(np.ones((graph.num_literals, 1)))
        ones_c = Tensor(np.ones((graph.num_clauses, 1)))
        lit_state = ones_l @ self.lit_init
        clause_state = ones_c @ self.clause_init
        flip = graph.flip_index()

        for _ in range(self.num_rounds):
            # Clauses <- literals.
            lit_messages = self.lit_msg(lit_state)
            incoming_c = lit_messages.gather_rows(graph.edge_lit).scatter_sum(
                graph.edge_clause, graph.num_clauses
            ) / Tensor(graph.clause_degree[:, None])
            clause_state = _concat(clause_state, incoming_c)
            clause_state = self.clause_update(clause_state).tanh()
            # Literals <- clauses (+ complement state).
            clause_messages = self.clause_msg(clause_state)
            incoming_l = clause_messages.gather_rows(graph.edge_clause).scatter_sum(
                graph.edge_lit, graph.num_literals
            ) / Tensor(graph.lit_degree[:, None])
            flipped = lit_state.gather_rows(flip)
            lit_state = self.lit_update(
                _concat(_concat(lit_state, incoming_l), flipped)
            ).tanh()

        h_graph = lit_state.mean(axis=0, keepdims=True)
        return self.head(h_graph)

    def predict_proba(self, instance) -> float:
        graph = (
            instance
            if isinstance(instance, LiteralClauseGraph)
            else LiteralClauseGraph(instance)
        )
        with no_grad():
            logit = self.forward(graph)
        raw = float(logit.data.ravel()[0])
        return float(1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0))))

    def predict(self, instance, threshold: float = 0.5) -> int:
        return int(self.predict_proba(instance) >= threshold)

    #: Graph encoding this model consumes (used by the generic trainer).
    graph_type = LiteralClauseGraph


def _concat(a: Tensor, b: Tensor) -> Tensor:
    """Column-wise concatenation built from differentiable primitives.

    Equivalent to ``np.concatenate([a, b], axis=1)``: each operand is
    right-multiplied by a constant selector matrix placing it into its
    column block, then the two placements are added.
    """
    n, da = a.shape
    _, db = b.shape
    left = np.zeros((da, da + db))
    left[:, :da] = np.eye(da)
    right = np.zeros((db, da + db))
    right[:, da:] = np.eye(db)
    return a @ Tensor(left) + b @ Tensor(right)
