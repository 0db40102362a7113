"""Training loop for policy classifiers.

Matches the paper's recipe (Sec. 5.2): Adam, binary cross-entropy,
batch size 1 (one graph per step).  Works with any model exposing
``forward(graph) -> logit``, ``predict(graph)``, and a ``graph_type``
attribute naming its CNF encoding — NeuroSelect and both baselines do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.nn.loss import bce_with_logits
from repro.nn.optim import Adam
from repro.selection.dataset import LabeledInstance
from repro.selection.metrics import ClassificationMetrics, classification_metrics


@dataclass
class TrainingHistory:
    """Per-epoch mean loss and training accuracy."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class Trainer:
    """Fits one classifier on labelled instances."""

    def __init__(
        self,
        model,
        learning_rate: float = 1e-4,
        epochs: int = 400,
        observer: Optional[Observer] = None,
    ):
        self.model = model
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.optimizer = Adam(model.parameters(), lr=learning_rate)
        self.epochs = epochs
        #: Decision threshold used by :meth:`evaluate`; recalibrated on the
        #: training split at the end of :meth:`fit`.
        self.threshold = 0.5

    def fit(
        self,
        instances: Sequence[LabeledInstance],
        validation: Optional[Sequence[LabeledInstance]] = None,
        log_every: int = 0,
    ) -> TrainingHistory:
        """Train; returns the loss/accuracy history.

        Graphs are encoded once up front, and the visiting order is
        reshuffled every epoch from a fixed seed.  Each example's loss is
        weighted inversely to its class frequency — synthetic datasets
        are rarely 50/50 and an unweighted model otherwise collapses to
        the majority label.
        """
        if not instances:
            raise ValueError("cannot train on an empty dataset")
        graphs = [self.model.graph_type(inst.cnf) for inst in instances]
        if hasattr(self.model, "fit_scaler"):
            # Feature-based models freeze input standardization on the
            # training encodings before the first step.
            self.model.fit_scaler(graphs)
        labels = [inst.label for inst in instances]
        weights = self._weights(labels)
        order = list(range(len(instances)))
        rng = random.Random(0)
        history = TrainingHistory()
        obs = self.observer
        obs.event(
            "train-start",
            model=type(self.model).__name__,
            instances=len(instances),
            epochs=self.epochs,
        )

        for epoch in range(self.epochs):
            rng.shuffle(order)
            total_loss = 0.0
            correct = 0
            for i in order:
                self.optimizer.zero_grad()
                logit = self.model(graphs[i])
                loss = bce_with_logits(logit, labels[i]) * weights[i]
                loss.backward()
                self.optimizer.step()
                total_loss += loss.item()
                prediction = 1 if float(logit.data.ravel()[0]) >= 0.0 else 0
                correct += prediction == labels[i]
            history.losses.append(total_loss / len(order))
            history.accuracies.append(correct / len(order))
            if obs.enabled:
                obs.event(
                    "epoch-end",
                    epoch=epoch + 1,
                    loss=round(history.losses[-1], 6),
                    accuracy=round(history.accuracies[-1], 6),
                    grad_norm=round(self._grad_norm(), 6),
                    lr=self.optimizer.lr,
                )
                obs.histogram("trainer.epoch_loss").observe(history.losses[-1])
            if log_every and (epoch + 1) % log_every == 0:
                msg = (
                    f"epoch {epoch + 1}/{self.epochs} "
                    f"loss={history.losses[-1]:.4f} "
                    f"acc={history.accuracies[-1]:.3f}"
                )
                if validation:
                    msg += f" val_acc={self.evaluate(validation).accuracy:.3f}"
                print(msg)
        self.calibrate_threshold(instances, mode="balanced")
        obs.event(
            "train-end",
            epochs_run=len(history.losses),
            final_loss=round(history.final_loss, 6)
            if history.losses else None,
            threshold=round(self.threshold, 6),
        )
        obs.flush()
        return history

    def _grad_norm(self) -> float:
        """L2 norm of the most recent step's gradients (0 when absent)."""
        total = 0.0
        for parameter in self.model.parameters():
            grad = getattr(parameter, "grad", None)
            if grad is None:
                continue
            total += float((grad ** 2).sum())
        return total ** 0.5

    def evaluate(self, instances: Sequence[LabeledInstance]) -> ClassificationMetrics:
        """Classification metrics of the current model on a split.

        Uses the decision threshold calibrated by :meth:`fit` (0.5 until
        then).
        """
        predictions = [
            self.model.predict(inst.cnf, threshold=self.threshold)
            for inst in instances
        ]
        labels = [inst.label for inst in instances]
        return classification_metrics(predictions, labels)

    def calibrate_threshold(
        self, instances: Sequence[LabeledInstance], mode: str = "effort"
    ) -> float:
        """Pick the decision threshold on the *training* split.

        Class-weighted training on an imbalanced dataset shifts the
        natural operating point away from 0.5; calibration restores a
        sensible one.  Two modes:

        * ``"effort"`` (default) — cost-sensitive: every training
          instance carries both policies' propagation counts (the
          labelling byproduct), so the threshold can directly maximize
          the total propagations *saved* by following the model's
          advice.  This optimizes the Table 3 objective rather than a
          surrogate.
        * ``"balanced"`` — maximize balanced accuracy (mean of the two
          class recalls), tie-broken towards the *higher* threshold: on
          skewed label distributions this degrades gracefully to the
          majority prediction instead of flooding positives.
        * ``"f1"`` — maximize F1 (tie-broken by accuracy) over the hard
          labels, the conventional classification calibration.

        Falls back to 0.5 when the split carries no signal.
        """
        if mode not in ("effort", "f1", "balanced"):
            raise ValueError(f"unknown calibration mode {mode!r}")
        probabilities = [self.model.predict_proba(inst.cnf) for inst in instances]
        candidates = sorted(set(probabilities))
        midpoints = [
            (candidates[i] + candidates[i + 1]) / 2
            for i in range(len(candidates) - 1)
        ]
        # Endpoints: predict everything 1 / everything 0.
        thresholds = [0.0] + midpoints + [1.0 + 1e-9]

        best_threshold = 0.5
        if mode == "effort":
            savings = [
                inst.comparison.default_propagations
                - inst.comparison.frequency_propagations
                for inst in instances
            ]
            if not any(savings):
                self.threshold = 0.5
                self.model.decision_threshold = self.threshold
                return self.threshold
            best_saving = float("-inf")
            for threshold in thresholds:
                total = sum(
                    s for p, s in zip(probabilities, savings) if p >= threshold
                )
                if total > best_saving:
                    best_saving = total
                    best_threshold = threshold
        else:
            labels = [inst.label for inst in instances]
            if len(set(labels)) < 2:
                self.threshold = 0.5
                self.model.decision_threshold = self.threshold
                return self.threshold
            best_key = (-1.0, -1.0, float("-inf"))
            for threshold in thresholds:
                predictions = [int(q >= threshold) for q in probabilities]
                metrics = classification_metrics(predictions, labels)
                if mode == "balanced":
                    positive_recall = metrics.recall
                    denom = metrics.true_negatives + metrics.false_positives
                    negative_recall = metrics.true_negatives / denom if denom else 0.0
                    primary = (positive_recall + negative_recall) / 2.0
                    # Prefer conservative (higher) thresholds on ties.
                    key = (primary, metrics.accuracy, threshold)
                else:
                    key = (metrics.f1, metrics.accuracy, -threshold)
                if key > best_key:
                    best_key = key
                    best_threshold = threshold

        self.threshold = best_threshold
        # Stash on the model so downstream consumers (NeuroSelectSolver)
        # inherit the calibrated operating point automatically.
        self.model.decision_threshold = self.threshold
        return self.threshold

    def _weights(self, labels: Sequence[int]) -> List[float]:
        positives = sum(labels)
        negatives = len(labels) - positives
        if positives == 0 or negatives == 0:
            return [1.0] * len(labels)
        # Mean weight is 1 so the learning rate keeps its meaning.
        w_pos = len(labels) / (2.0 * positives)
        w_neg = len(labels) / (2.0 * negatives)
        return [w_pos if y == 1 else w_neg for y in labels]
