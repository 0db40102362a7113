"""Feature-based logistic-regression baseline.

A classical-ML reference point below the graph networks of Table 2: a
single linear layer over the static formula features of
:mod:`repro.cnf.features`, trained with the same BCE/Adam recipe.  How
far the GNNs beat this baseline measures how much of the signal is
*structural* rather than reachable from summary statistics.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cnf.features import extract_features
from repro.cnf.formula import CNF
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, no_grad


class FeatureVector:
    """The "graph" encoding of this model: a standardized feature row.

    Standardization statistics are fixed at construction of the model's
    first training batch via :meth:`FeatureLogisticRegression.fit_scaler`;
    until then, raw features pass through (tests and inference on single
    instances still work).
    """

    def __init__(self, cnf: CNF):
        self.raw = np.asarray(extract_features(cnf).as_vector(), dtype=np.float64)


class FeatureLogisticRegression(Module):
    """Logistic regression over :class:`~repro.cnf.features.FormulaFeatures`."""

    NUM_FEATURES = 14

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.linear = Linear(self.NUM_FEATURES, 1, rng=rng)
        # Feature standardization (identity until fit_scaler is called).
        self._mean = np.zeros(self.NUM_FEATURES)
        self._scale = np.ones(self.NUM_FEATURES)

    #: Encoding consumed by the generic trainer.
    graph_type = FeatureVector

    def fit_scaler(self, vectors: List[FeatureVector]) -> None:
        """Freeze standardization statistics from training feature rows."""
        matrix = np.stack([v.raw for v in vectors])
        self._mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self._scale = scale

    def _standardize(self, vector: FeatureVector) -> np.ndarray:
        return (vector.raw - self._mean) / self._scale

    def forward(self, vector: FeatureVector) -> Tensor:
        x = Tensor(self._standardize(vector)[None, :])
        return self.linear(x)

    def predict_proba(self, instance) -> float:
        vector = instance if isinstance(instance, FeatureVector) else FeatureVector(instance)
        with no_grad():
            raw = float(self.forward(vector).data.ravel()[0])
        return float(1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0))))

    def predict(self, instance, threshold: float = 0.5) -> int:
        return int(self.predict_proba(instance) >= threshold)
