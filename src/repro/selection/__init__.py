"""Learning-aided policy selection: labels, datasets, training, inference."""

from repro.selection.labeling import (
    PolicyComparison,
    label_instances,
    REDUCTION_THRESHOLD,
)
from repro.selection.dataset import (
    augment_dataset,
    LabeledInstance,
    PolicyDataset,
    YearStatistics,
    build_dataset,
    dataset_statistics,
    TRAIN_YEARS,
    TEST_YEAR,
    DEFAULT_MAX_NODES,
)
from repro.selection.metrics import ClassificationMetrics, classification_metrics
from repro.selection.trainer import Trainer, TrainingHistory
from repro.selection.selector import NeuroSelectSolver, SelectionOutcome
from repro.selection.session import (
    DEFAULT_DRIFT_THRESHOLD,
    SelectorSession,
    SessionSelection,
    feature_distance,
    new_session_id,
)
from repro.selection.storage import save_dataset, load_dataset

__all__ = [
    "PolicyComparison",
    "label_instances",
    "REDUCTION_THRESHOLD",
    "LabeledInstance",
    "augment_dataset",
    "PolicyDataset",
    "YearStatistics",
    "build_dataset",
    "dataset_statistics",
    "TRAIN_YEARS",
    "TEST_YEAR",
    "DEFAULT_MAX_NODES",
    "ClassificationMetrics",
    "classification_metrics",
    "Trainer",
    "TrainingHistory",
    "NeuroSelectSolver",
    "SelectionOutcome",
    "DEFAULT_DRIFT_THRESHOLD",
    "SelectorSession",
    "SessionSelection",
    "feature_distance",
    "new_session_id",
    "save_dataset",
    "load_dataset",
]
