"""NeuroSelect-Kissat: one model inference, then solve (paper Sec. 5.4).

The selector runs a single forward pass of the trained classifier on the
input CNF (CPU-friendly by design — this is the paper's headline
efficiency argument over per-clause evaluation), maps the predicted label
to a deletion policy, and solves with it.  Instances whose graph exceeds
the node cap skip inference and use the default policy, exactly as the
paper handles its >400k-node instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cnf.formula import CNF
from repro.graph.bipartite import BipartiteGraph
from repro.policies.registry import LABEL_TO_POLICY, get_policy
from repro.selection.dataset import DEFAULT_MAX_NODES
from repro.solver.solver import Solver, SolverConfig, SolveResult


@dataclass(frozen=True)
class DecisionRule:
    """How every selector turns a formula's probability into a policy.

    The one-shot :class:`NeuroSelectSolver`, the drift-gated
    :class:`~repro.selection.session.SelectorSession` and the served
    :class:`~repro.serve.batcher.InferenceBatcher` all decide through
    this rule: a formula whose graph would exceed ``max_nodes`` skips
    inference (before any graph is built), no forward pass means label 0
    (the default policy), and otherwise the label is
    ``probability >= threshold``.
    """

    threshold: float
    max_nodes: int

    @classmethod
    def for_model(
        cls, model, threshold: Optional[float] = None,
        max_nodes: int = DEFAULT_MAX_NODES,
    ) -> "DecisionRule":
        """The rule at ``threshold``, else at the threshold calibrated
        during training when the model carries one (set by
        ``Trainer.fit``), else 0.5."""
        if threshold is None:
            threshold = getattr(model, "decision_threshold", 0.5)
        return cls(threshold, max_nodes)

    def admits(self, cnf: CNF) -> bool:
        """Whether ``cnf``'s graph is within the node cap (worth a forward
        pass).  Its node count, variables plus clauses, is known from the
        formula, so an oversized graph is never built."""
        return cnf.num_vars + cnf.num_clauses <= self.max_nodes

    def decide(self, probability: Optional[float]) -> Tuple[int, str]:
        """``(label, policy name)``; ``None`` (no forward pass) is label 0."""
        label = 0 if probability is None else int(probability >= self.threshold)
        return label, LABEL_TO_POLICY[label]


@dataclass
class SelectionOutcome:
    """A solve guided by the selector, with inference accounting."""

    result: SolveResult
    predicted_label: int
    policy_name: str
    inference_seconds: float
    used_model: bool  # False when the node cap forced the default policy

    @property
    def propagations(self) -> int:
        return self.result.stats.propagations


class NeuroSelectSolver:
    """End-to-end adaptive solver: classify once, then run CDCL."""

    def __init__(
        self,
        model,
        max_nodes: int = DEFAULT_MAX_NODES,
        config: Optional[SolverConfig] = None,
        threshold: Optional[float] = None,
    ):
        self.model = model
        self.config = config
        self.rule = DecisionRule.for_model(model, threshold, max_nodes)

    def select_policy(self, cnf: CNF):
        """Model inference only; returns (label, policy, seconds, used_model)."""
        if not self.rule.admits(cnf):
            label, name = self.rule.decide(None)
            return label, get_policy(name), 0.0, False
        graph = BipartiteGraph(cnf)
        start = time.perf_counter()
        probability = self.model.predict_proba(graph)
        elapsed = time.perf_counter() - start
        label, name = self.rule.decide(probability)
        return label, get_policy(name), elapsed, True

    def solve(
        self,
        cnf: CNF,
        max_conflicts: Optional[int] = None,
        max_propagations: Optional[int] = None,
    ) -> SelectionOutcome:
        """Classify, pick the deletion policy, and solve."""
        label, policy, inference_seconds, used_model = self.select_policy(cnf)
        solver = Solver(cnf, policy=policy, config=self.config)
        result = solver.solve(
            max_conflicts=max_conflicts, max_propagations=max_propagations
        )
        return SelectionOutcome(
            result=result,
            predicted_label=label,
            policy_name=policy.name,
            inference_seconds=inference_seconds,
            used_model=used_model,
        )
