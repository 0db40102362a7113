"""Exercise exported result/record types by name (API completeness)."""

from repro import SolveResult
from repro.bench import EndToEndResult, SuiteStatistics, Table2Result
from repro.cnf import CNF, FormulaFeatures, extract_features
from repro.policies import POLICY_REGISTRY, DeletionPolicy, DefaultPolicy
from repro.selection import (
    DEFAULT_MAX_NODES,
    SelectionOutcome,
    TEST_YEAR,
    TRAIN_YEARS,
    TrainingHistory,
    YearStatistics,
)
from repro.solver import Solver, Status
from repro.models import READOUTS, DirectedMessagePass


def test_solve_result_type():
    result = Solver(CNF([[1]])).solve()
    assert isinstance(result, SolveResult)
    assert result.is_sat and not result.is_unknown


def test_formula_features_type():
    assert isinstance(extract_features(CNF([[1, 2]])), FormulaFeatures)


def test_policy_registry_and_interface():
    assert set(POLICY_REGISTRY) == {"default", "frequency"}
    assert isinstance(DefaultPolicy(), DeletionPolicy)
    assert "default" in repr(DefaultPolicy())


def test_conflict_analyzer_is_solver_component():
    from repro.solver import ArenaConflictAnalyzer

    solver = Solver(CNF([[1, 2], [-1, 2]]))
    assert isinstance(solver.analyzer, ArenaConflictAnalyzer)


def test_year_split_constants():
    assert TEST_YEAR == 2022
    assert TRAIN_YEARS == (2016, 2017, 2018, 2019, 2020, 2021)
    assert DEFAULT_MAX_NODES == 400_000  # the paper's GPU-memory filter


def test_selection_outcome_and_history_types():
    from repro.models import NeuroSelect
    from repro.selection import NeuroSelectSolver, Trainer
    from tests.conftest import make_labeled
    from repro.cnf import random_ksat

    instances = [make_labeled(random_ksat(8, 20, seed=s), s % 2) for s in range(2)]
    trainer = Trainer(NeuroSelect(hidden_dim=8, seed=0), epochs=1)
    history = trainer.fit(instances)
    assert isinstance(history, TrainingHistory)
    outcome = NeuroSelectSolver(trainer.model).solve(
        instances[0].cnf, max_conflicts=100
    )
    assert isinstance(outcome, SelectionOutcome)


def test_bench_result_types():
    from repro.bench import (
        fig7_table3_end_to_end,
        scale_for_budget,
        suite_statistics,
        table2_classification,
    )
    from repro.bench.runner import InstanceRecord
    from repro.models import NeuroSelect
    from repro.selection import PolicyDataset
    from tests.conftest import make_labeled
    from repro.cnf import random_ksat

    stats = suite_statistics(
        [InstanceRecord("a", "", "default", Status.SATISFIABLE, 10, 1, 0.0)],
        scale_for_budget(100),
        "x",
    )
    assert isinstance(stats, SuiteStatistics)

    dataset = PolicyDataset(
        train=[make_labeled(random_ksat(8, 20, seed=0), 0)],
        test=[make_labeled(random_ksat(8, 20, seed=1), 1)],
    )
    model = NeuroSelect(hidden_dim=8, seed=0)
    t2 = table2_classification(dataset, models={"m": model}, epochs=1)
    assert isinstance(t2, Table2Result)
    e2e = fig7_table3_end_to_end(dataset.test, model, max_propagations=5_000)
    assert isinstance(e2e, EndToEndResult)


def test_year_statistics_type():
    from repro.selection import PolicyDataset, dataset_statistics
    from tests.conftest import make_labeled

    ds = PolicyDataset(train=[make_labeled(CNF([[1, 2]]), 0, year=2016)])
    rows = dataset_statistics(ds)
    assert isinstance(rows[0], YearStatistics)


def test_readouts_registry_and_message_pass():
    import numpy as np

    assert set(READOUTS) == {"mean", "max", "mean_max"}
    layer = DirectedMessagePass(dim=4, rng=np.random.default_rng(0))
    assert layer.num_parameters() > 0
