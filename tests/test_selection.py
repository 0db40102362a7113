"""Tests for labeling, datasets, metrics, training, and the selector."""

import pytest

from repro.cnf import CNF, random_ksat
from repro.graph import BipartiteGraph
from repro.models import NeuroSelect
from repro.selection import (
    ClassificationMetrics,
    NeuroSelectSolver,
    PolicyDataset,
    SelectorSession,
    Trainer,
    build_dataset,
    classification_metrics,
    dataset_statistics,
    label_instances,
)
from repro.selection.dataset import LabeledInstance, _instance_pool
from repro.selection import selector as selector_module
from repro.selection import session as session_module
from repro.selection.labeling import REDUCTION_THRESHOLD, default_labeling_config
from repro.selection.selector import DecisionRule
from repro.solver import Status

from tests.conftest import make_labeled


class TestLabeling:
    def test_label_instances_fields(self, medium_sat_cnf):
        [comparison] = label_instances([medium_sat_cnf], max_conflicts=2000)
        assert comparison.default_propagations > 0
        assert comparison.frequency_propagations > 0
        assert comparison.label in (0, 1)

    def test_label_follows_threshold(self):
        """Label 1 iff frequency policy saves >= 2% propagations."""
        from repro.selection.labeling import PolicyComparison

        base = dict(
            default_result_status=Status.SATISFIABLE,
            frequency_result_status=Status.SATISFIABLE,
        )
        just_under = PolicyComparison(
            default_propagations=1000, frequency_propagations=981, label=0, **base
        )
        assert just_under.reduction < REDUCTION_THRESHOLD
        at_threshold = PolicyComparison(
            default_propagations=1000, frequency_propagations=980, label=1, **base
        )
        assert at_threshold.reduction >= REDUCTION_THRESHOLD

    def test_label_zero_when_both_unknown(self):
        # Hard instance, tiny budget: both runs time out -> safe label 0.
        cnf = random_ksat(150, 645, seed=0)
        [comparison] = label_instances([cnf], max_conflicts=5)
        assert comparison.default_result_status is Status.UNKNOWN
        assert comparison.frequency_result_status is Status.UNKNOWN
        assert comparison.label == 0

    def test_deterministic(self, medium_sat_cnf):
        a = label_instances([medium_sat_cnf], max_conflicts=2000)
        b = label_instances([medium_sat_cnf], max_conflicts=2000)
        assert a == b

    def test_labeling_config_shape(self):
        config = default_labeling_config()
        assert config.reduce_interval < 300  # scaled down from Kissat


class TestDataset:
    def test_instance_pool_deterministic(self):
        a = _instance_pool(2020, 5, 1.0)
        b = _instance_pool(2020, 5, 1.0)
        assert [f for f, _ in a] == [f for f, _ in b]
        assert all(
            [c.literals for c in x.clauses] == [c.literals for c in y.clauses]
            for (_, x), (_, y) in zip(a, b)
        )

    def test_years_differ(self):
        a = _instance_pool(2016, 5, 1.0)
        b = _instance_pool(2017, 5, 1.0)
        texts_a = [tuple(c.literals for c in cnf.clauses) for _, cnf in a]
        texts_b = [tuple(c.literals for c in cnf.clauses) for _, cnf in b]
        assert texts_a != texts_b

    def test_build_dataset_small(self):
        ds = build_dataset(instances_per_year=2, max_conflicts=500)
        assert len(ds.train) == 12  # 6 train years x 2
        assert len(ds.test) == 2
        assert all(inst.label in (0, 1) for inst in ds.all_instances())
        assert all(inst.year != 2022 for inst in ds.train)
        assert all(inst.year == 2022 for inst in ds.test)

    def test_node_filter_excludes_large(self):
        ds = build_dataset(instances_per_year=2, max_conflicts=100, max_nodes=10)
        assert len(ds.all_instances()) == 0

    def test_statistics_rows(self):
        ds = PolicyDataset(
            train=[make_labeled(CNF([[1, 2]]), 0, year=2016)],
            test=[make_labeled(CNF([[1], [2], [3]]), 1, year=2022)],
        )
        rows = dataset_statistics(ds)
        assert len(rows) == 2
        assert rows[0].split == "Training" and rows[0].num_cnfs == 1
        assert rows[1].split == "Test" and rows[1].mean_clauses == 3

    def test_label_balance(self):
        ds = PolicyDataset(
            train=[make_labeled(CNF([[1]]), l) for l in (0, 1, 1, 1)],
            test=[make_labeled(CNF([[1]]), 0)],
        )
        assert ds.label_balance() == {"train": 0.75, "test": 0.0}


class TestMetrics:
    def test_perfect(self):
        m = classification_metrics([1, 0, 1], [1, 0, 1])
        assert m.accuracy == 1.0 and m.f1 == 1.0

    def test_confusion_counts(self):
        m = classification_metrics([1, 1, 0, 0], [1, 0, 1, 0])
        assert (m.true_positives, m.false_positives, m.false_negatives, m.true_negatives) == (1, 1, 1, 1)
        assert m.precision == 0.5 and m.recall == 0.5 and m.accuracy == 0.5

    def test_zero_division_guards(self):
        m = classification_metrics([0, 0], [0, 0])
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.accuracy == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_metrics([1], [1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics([2], [1])

    def test_as_row_percentages(self):
        m = classification_metrics([1, 0], [1, 1])
        row = m.as_row()
        assert row["accuracy"] == pytest.approx(50.0)

    def test_f1_harmonic_mean(self):
        m = ClassificationMetrics(
            true_positives=2, false_positives=1, true_negatives=0, false_negatives=2
        )
        p, r = 2 / 3, 1 / 2
        assert m.f1 == pytest.approx(2 * p * r / (p + r))


class TestTrainer:
    @pytest.fixture
    def toy_instances(self):
        # Labels correlated with a visible feature (clause/var ratio).
        sparse = [random_ksat(12, 24, seed=s) for s in range(4)]
        dense = [random_ksat(12, 60, seed=s) for s in range(4)]
        return [make_labeled(c, 0) for c in sparse] + [
            make_labeled(c, 1) for c in dense
        ]

    def test_fit_reduces_loss(self, toy_instances):
        model = NeuroSelect(hidden_dim=8, seed=0)
        trainer = Trainer(model, learning_rate=3e-3, epochs=25)
        history = trainer.fit(toy_instances)
        assert len(history.losses) == 25
        assert history.final_loss < history.losses[0]

    def test_fit_learns_separable_labels(self, toy_instances):
        model = NeuroSelect(hidden_dim=8, seed=0)
        trainer = Trainer(model, learning_rate=5e-3, epochs=60)
        trainer.fit(toy_instances)
        metrics = trainer.evaluate(toy_instances)
        assert metrics.accuracy >= 0.9

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Trainer(NeuroSelect(hidden_dim=8)).fit([])

    def test_class_weights_balance(self):
        trainer = Trainer(NeuroSelect(hidden_dim=8))
        weights = trainer._weights([1, 0, 0, 0])
        assert weights[0] == pytest.approx(2.0)
        assert weights[1] == pytest.approx(2 / 3)
        # Mean stays 1 so the effective lr is unchanged.
        assert sum(weights) / len(weights) == pytest.approx(1.0)

    def test_single_class_gets_uniform_weights(self):
        trainer = Trainer(NeuroSelect(hidden_dim=8))
        assert trainer._weights([0, 0]) == [1.0, 1.0]


class TestSelector:
    def test_selects_and_solves(self, medium_sat_cnf):
        model = NeuroSelect(hidden_dim=8, seed=0)
        selector = NeuroSelectSolver(model)
        outcome = selector.solve(medium_sat_cnf, max_conflicts=5000)
        assert outcome.result.status is Status.SATISFIABLE
        assert outcome.policy_name in ("default", "frequency")
        assert outcome.predicted_label in (0, 1)
        assert outcome.inference_seconds >= 0.0
        assert outcome.used_model

    def test_label_policy_consistency(self, medium_sat_cnf):
        model = NeuroSelect(hidden_dim=8, seed=0)
        outcome = NeuroSelectSolver(model).solve(medium_sat_cnf, max_conflicts=100)
        expected = "frequency" if outcome.predicted_label == 1 else "default"
        assert outcome.policy_name == expected

    def test_node_cap_falls_back_to_default(self, medium_sat_cnf):
        model = NeuroSelect(hidden_dim=8, seed=0)
        selector = NeuroSelectSolver(model, max_nodes=3)
        outcome = selector.solve(medium_sat_cnf, max_conflicts=100)
        assert not outcome.used_model
        assert outcome.policy_name == "default"
        assert outcome.inference_seconds == 0.0

    def test_node_cap_applies_before_any_graph_is_built(self, monkeypatch):
        """Over the cap by its declared variables, a formula gets the
        default policy without a graph, one-shot and in a session."""
        built = []

        class CountedGraph(BipartiteGraph):
            def __init__(self, cnf):
                built.append(cnf)
                super().__init__(cnf)

        monkeypatch.setattr(selector_module, "BipartiteGraph", CountedGraph)
        monkeypatch.setattr(session_module, "BipartiteGraph", CountedGraph)
        model = NeuroSelect(hidden_dim=8, seed=0)
        sparse = CNF([[1, -2], [2, 3], [-1, -3]], num_vars=50_000)
        outcome = NeuroSelectSolver(model, max_nodes=1_000).solve(sparse)
        assert not outcome.used_model and outcome.policy_name == "default"
        rule = DecisionRule.for_model(model, max_nodes=1_000)
        selection = SelectorSession(model, rule=rule).select(sparse)
        assert not selection.used_model and selection.policy == "default"
        assert selection.probability is None
        assert built == []
        assert SelectorSession(model, rule=rule).select(CNF([[1, 2]])).used_model
        assert len(built) == 1

    def test_threshold_extremes_force_policy(self, medium_sat_cnf):
        model = NeuroSelect(hidden_dim=8, seed=0)
        always_default = NeuroSelectSolver(model, threshold=1.1)
        always_frequency = NeuroSelectSolver(model, threshold=-0.1)
        assert always_default.solve(medium_sat_cnf, max_conflicts=10).policy_name == "default"
        assert always_frequency.solve(medium_sat_cnf, max_conflicts=10).policy_name == "frequency"


class TestAugmentDataset:
    def test_copies_multiply_size(self):
        from repro.selection import augment_dataset

        base = [make_labeled(random_ksat(8, 20, seed=s), s % 2) for s in range(3)]
        augmented = augment_dataset(base, copies=2, base_seed=1)
        assert len(augmented) == 9
        # Originals come first, untouched.
        assert augmented[:3] == base

    def test_labels_and_metadata_inherited(self):
        from repro.selection import augment_dataset

        base = [make_labeled(random_ksat(8, 20, seed=0), 1, year=2019, family="x")]
        aug = augment_dataset(base, copies=1)[1]
        assert aug.label == 1 and aug.year == 2019 and aug.family == "x"
        # The formula itself differs (renamed/flipped/shuffled) ...
        assert [c.literals for c in aug.cnf.clauses] != [
            c.literals for c in base[0].cnf.clauses
        ]
        # ... but is structurally identical in size.
        assert aug.cnf.num_vars == base[0].cnf.num_vars
        assert aug.cnf.num_clauses == base[0].cnf.num_clauses

    def test_zero_copies_identity(self):
        from repro.selection import augment_dataset

        base = [make_labeled(random_ksat(8, 20, seed=0), 0)]
        assert augment_dataset(base, copies=0) == base

    def test_negative_copies_rejected(self):
        from repro.selection import augment_dataset

        with pytest.raises(ValueError):
            augment_dataset([], copies=-1)

    def test_deterministic(self):
        from repro.selection import augment_dataset

        base = [make_labeled(random_ksat(8, 20, seed=0), 0)]
        a = augment_dataset(base, copies=1, base_seed=5)[1]
        b = augment_dataset(base, copies=1, base_seed=5)[1]
        assert [c.literals for c in a.cnf.clauses] == [
            c.literals for c in b.cnf.clauses
        ]
