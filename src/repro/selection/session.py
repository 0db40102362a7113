"""Drift-aware policy selection for incremental sessions.

NeuroSelect pays one HGT forward pass per instance.  On session traffic
— families of closely related formulas (configuration deltas, CI of
hardware designs) — that is almost always wasted: the policy choice for
delta *k+1* is overwhelmingly the choice for delta *k*.
:class:`SelectorSession` caches the embedding-backed choice per session
and gates recomputation behind the *cheap* expert features of
:mod:`repro.cnf.features` (the GraSS-style screen): a new forward pass
runs only when the feature-space distance between the current formula
and the snapshot that was last embedded exceeds a configurable drift
threshold.

Distance is a relative per-dimension infinity norm over
:meth:`~repro.cnf.features.FormulaFeatures.as_vector`::

    d(a, b) = max_i |a_i - b_i| / max(1, |b_i|)

so a 14-dimensional vector mixing counts in the thousands with
fractions in [0, 1] compares scale-free: adding two clauses to a
400-clause formula is ~0.5% drift regardless of the absolute feature
magnitudes.  The default threshold (:data:`DEFAULT_DRIFT_THRESHOLD`)
tolerates ~10% relative drift on every dimension.

Observability: each selection emits a ``session-select`` trace event
(reused or recomputed, with the measured distance) and bumps the
``session.embedding_reuse`` / ``session.embedding_recompute`` counters,
so the amortization claim — forward passes strictly fewer than
instances solved — is measured from traces, never asserted.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import List, Optional

from repro.cnf.features import extract_features
from repro.cnf.formula import CNF
from repro.graph.bipartite import BipartiteGraph
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.selection.selector import DecisionRule

#: Relative per-dimension drift tolerated before re-embedding.
DEFAULT_DRIFT_THRESHOLD = 0.1


def new_session_id() -> str:
    """A fresh session identifier (``sess-`` + 12 hex chars)."""
    return "sess-" + uuid.uuid4().hex[:12]


def feature_distance(a: List[float], b: List[float]) -> float:
    """Relative infinity-norm distance between two feature vectors."""
    if len(a) != len(b):
        raise ValueError(
            f"feature vectors disagree in length ({len(a)} vs {len(b)})"
        )
    worst = 0.0
    for x, y in zip(a, b):
        delta = abs(x - y) / max(1.0, abs(y))
        if delta > worst:
            worst = delta
    return worst


@dataclass
class SessionSelection:
    """One policy choice made inside a session."""

    label: int
    policy: str
    probability: Optional[float]
    #: True when the cached embedding answered (no forward pass).
    reused: bool
    #: Measured feature drift against the embedded snapshot (0.0 on the
    #: first selection of a session).
    distance: float
    #: False when the node cap (or a missing model) forced the default
    #: policy instead of a real forward pass.
    used_model: bool
    inference_seconds: float = 0.0


class SelectorSession:
    """Per-session policy selection with drift-gated HGT inference."""

    def __init__(
        self,
        model,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        rule: Optional[DecisionRule] = None,
        observer: Observer = NULL_OBSERVER,
        session_id: Optional[str] = None,
    ):
        if drift_threshold < 0:
            raise ValueError("drift_threshold must be >= 0")
        self.model = model
        self.drift_threshold = drift_threshold
        self.rule = rule or DecisionRule.for_model(model)
        self.observer = observer
        self.id = session_id or new_session_id()
        #: Forward passes actually performed for this session.
        self.inference_passes = 0
        #: Selections answered from the cached embedding.
        self.reuses = 0
        #: Total selections made.
        self.selections = 0
        self._snapshot: Optional[List[float]] = None
        self._cached: Optional[SessionSelection] = None
        self._reuse_counter = observer.counter("session.embedding_reuse")
        self._recompute_counter = observer.counter(
            "session.embedding_recompute"
        )

    def select(self, cnf: CNF) -> SessionSelection:
        """Pick a deletion policy for ``cnf``, reusing the cached
        embedding while the formula stays within the drift threshold."""
        features = extract_features(cnf).as_vector()
        self.selections += 1
        if self._cached is not None and self._snapshot is not None:
            distance = feature_distance(features, self._snapshot)
            if distance <= self.drift_threshold:
                self.reuses += 1
                self._reuse_counter.inc()
                cached = self._cached
                selection = SessionSelection(
                    label=cached.label,
                    policy=cached.policy,
                    probability=cached.probability,
                    reused=True,
                    distance=distance,
                    used_model=cached.used_model,
                    inference_seconds=0.0,
                )
                self._emit(selection)
                return selection
        else:
            distance = 0.0
        selection = self._classify(cnf, distance)
        # The *embedded* snapshot is the drift reference: distances are
        # always measured against the formula the model last saw, never
        # against an intermediate reused one — small deltas cannot creep
        # arbitrarily far from the embedding by chaining.
        self._snapshot = features
        self._cached = selection
        self._recompute_counter.inc()
        self._emit(selection)
        return selection

    def _classify(self, cnf: CNF, distance: float) -> SessionSelection:
        """Run (or skip, per the node cap) one real forward pass."""
        graph = BipartiteGraph(cnf) if self.model is not None else None
        if graph is None or not self.rule.admits(graph):
            label, policy = self.rule.decide(None)
            return SessionSelection(
                label=label,
                policy=policy,
                probability=None,
                reused=False,
                distance=distance,
                used_model=False,
            )
        start = time.perf_counter()
        probability = float(self.model.predict_proba(graph))
        elapsed = time.perf_counter() - start
        self.inference_passes += 1
        label, policy = self.rule.decide(probability)
        return SessionSelection(
            label=label,
            policy=policy,
            probability=probability,
            reused=False,
            distance=distance,
            used_model=True,
            inference_seconds=elapsed,
        )

    def _emit(self, selection: SessionSelection) -> None:
        if not self.observer.tracing:
            return
        self.observer.event(
            "session-select",
            session=self.id,
            reused=selection.reused,
            distance=round(selection.distance, 6),
            label=selection.label,
            policy=selection.policy,
            used_model=selection.used_model,
            passes=self.inference_passes,
            selections=self.selections,
        )

    def invalidate(self) -> None:
        """Drop the cached embedding; the next selection recomputes."""
        self._snapshot = None
        self._cached = None

    def stats(self) -> dict:
        """Point-in-time reuse accounting for service introspection."""
        return {
            "selections": self.selections,
            "inference_passes": self.inference_passes,
            "embedding_reuses": self.reuses,
        }
