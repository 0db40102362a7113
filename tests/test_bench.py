"""Tests for the benchmark harness (calibration, runner, tables, drivers)."""

import pytest

from repro.bench import (
    EffortScale,
    fig3_propagation_frequency,
    fig4_policy_scatter,
    fig7_table3_end_to_end,
    format_box_stats,
    format_dict_table,
    format_scatter,
    format_table,
    oracle_end_to_end,
    run_suite,
    scale_for_budget,
    suite_statistics,
    table1_dataset_statistics,
    table2_classification,
)
from repro.bench.runner import InstanceRecord
from repro.cnf import CNF, random_ksat
from repro.models import NeuroSelect
from repro.selection import PolicyDataset
from repro.solver import Status

from tests.conftest import make_labeled


class TestCalibration:
    def test_scale_maps_budget_to_timeout(self):
        scale = scale_for_budget(100_000)
        assert scale.to_seconds(100_000) == pytest.approx(5000.0)
        assert scale.to_seconds(50_000) == pytest.approx(2500.0)

    def test_seconds_capped_at_timeout(self):
        scale = scale_for_budget(1000)
        assert scale.to_seconds(99_999) == 5000.0

    def test_is_timeout(self):
        scale = scale_for_budget(1000)
        assert scale.is_timeout(1000)
        assert not scale.is_timeout(999)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            scale_for_budget(0)


class TestRunner:
    def test_run_suite_covers_all(self, medium_sat_cnf):
        instances = [make_labeled(medium_sat_cnf, 0), make_labeled(medium_sat_cnf, 1)]
        records = run_suite(instances, "frequency", max_propagations=100_000)
        assert len(records) == 2
        assert all(r.policy == "frequency" for r in records)
        assert all(r.solved and r.propagations > 0 for r in records)

    def test_suite_statistics_counts_timeouts_at_cap(self):
        scale = scale_for_budget(1000)
        records = [
            InstanceRecord("a", "", "default", Status.SATISFIABLE, 500, 10, 0.0),
            InstanceRecord("b", "", "default", Status.UNKNOWN, 1000, 10, 0.0),
        ]
        stats = suite_statistics(records, scale, "Kissat")
        assert stats.solved == 1
        assert stats.median_seconds == pytest.approx((2500 + 5000) / 2)

    def test_suite_statistics_adds_inference_time(self):
        scale = scale_for_budget(1000)
        records = [
            InstanceRecord(
                "a", "", "default", Status.SATISFIABLE, 500, 10, 0.0,
                inference_seconds=10.0,
            )
        ]
        with_inf = suite_statistics(records, scale, "x", include_inference=True)
        without = suite_statistics(records, scale, "x", include_inference=False)
        assert with_inf.median_seconds == pytest.approx(without.median_seconds + 10.0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_dict_table(self):
        text = format_dict_table([{"x": 1, "y": 2.5}])
        assert "2.50" in text and "x" in text

    def test_format_dict_table_empty(self):
        assert format_dict_table([]) == "(empty)"

    def test_format_scatter_contains_points_and_diagonal(self):
        text = format_scatter([(10.0, 10.0), (100.0, 5.0)], "x", "y")
        assert "o" in text and "." in text

    def test_format_scatter_empty(self):
        assert format_scatter([], "x", "y") == "(no points)"

    def test_format_box_stats(self):
        text = format_box_stats([1.0, 2.0, 3.0, 4.0], "lat")
        assert "median=2.5" in text
        assert format_box_stats([], "x").endswith("(no data)")


class TestExperimentDrivers:
    @pytest.fixture(scope="class")
    def tiny_dataset(self):
        sparse = [random_ksat(12, 24, seed=s) for s in range(3)]
        dense = [random_ksat(12, 60, seed=s) for s in range(3)]
        train = [make_labeled(c, 0, year=2016) for c in sparse[:2]] + [
            make_labeled(c, 1, year=2016) for c in dense[:2]
        ]
        test = [make_labeled(sparse[2], 0), make_labeled(dense[2], 1)]
        return PolicyDataset(train=train, test=test)

    def test_fig3(self, medium_sat_cnf):
        result = fig3_propagation_frequency(medium_sat_cnf, max_conflicts=2000)
        assert len(result.frequencies) == medium_sat_cnf.num_vars
        assert result.total_propagations == sum(result.frequencies)
        assert 0.0 <= result.gini <= 1.0
        assert result.top_decile_share >= 0.1  # skew: hot variables dominate
        assert "variables=" in result.render()

    def test_fig3_histogram_covers_all_variables(self, medium_sat_cnf):
        result = fig3_propagation_frequency(medium_sat_cnf, max_conflicts=500)
        assert sum(count for _, count in result.histogram()) == len(result.frequencies)

    def test_fig4(self, tiny_dataset):
        result = fig4_policy_scatter(tiny_dataset.test, max_propagations=50_000)
        assert len(result.names) == 2
        assert result.wins + result.losses + result.ties == 2
        assert "wins=" in result.render()

    def test_table1(self, tiny_dataset):
        text = table1_dataset_statistics(tiny_dataset)
        assert "Training" in text and "Test" in text and "2016" in text

    def test_table2_single_model(self, tiny_dataset):
        model = NeuroSelect(hidden_dim=8, seed=0)
        result = table2_classification(
            tiny_dataset, models={"NeuroSelect": model}, epochs=3
        )
        assert len(result.rows) == 1
        assert "accuracy" in result.rows[0]
        assert result.accuracy_of("NeuroSelect") >= 0.0

    def test_fig7_table3(self, tiny_dataset):
        model = NeuroSelect(hidden_dim=8, seed=0)
        result = fig7_table3_end_to_end(
            tiny_dataset.test, model, max_propagations=50_000
        )
        assert result.kissat_stats.total == 2
        assert result.neuroselect_stats.total == 2
        assert len(result.inference_seconds) == 2
        assert all(t >= 0 for t in result.inference_seconds)
        assert "median improvement" in result.render_table3()
        assert "inference" in result.render_fig7()

    def test_oracle_at_least_as_good_as_either_policy(self, tiny_dataset):
        budget = 50_000
        oracle = oracle_end_to_end(tiny_dataset.test, max_propagations=budget)
        fig4 = fig4_policy_scatter(tiny_dataset.test, max_propagations=budget)
        import statistics as st
        assert oracle.median_seconds <= st.median(fig4.default_seconds) + 1e-9
        assert oracle.median_seconds <= st.median(fig4.frequency_seconds) + 1e-9


class TestCactusResult:
    def make(self):
        from repro.bench.experiments import CactusResult

        return CactusResult(
            series={
                "A": [10.0, 20.0, 30.0],
                "B": [15.0, 100.0],
            },
            timeout_seconds=100.0,
            total_instances=4,
        )

    def test_solved_within(self):
        result = self.make()
        assert result.solved_within("A", 25.0) == 2
        assert result.solved_within("B", 25.0) == 1
        assert result.solved_within("A", 100.0) == 3

    def test_render_contains_series_and_counts(self):
        text = self.make().render()
        assert "A" in text and "B" in text
        assert "out of 4 instances" in text


class TestResultRenders:
    def test_fig4_result_counts(self):
        from repro.bench import Fig4Result
        from repro.bench.calibration import EffortScale

        result = Fig4Result(
            names=["a", "b", "c"],
            default_seconds=[10.0, 20.0, 30.0],
            frequency_seconds=[5.0, 20.0, 40.0],
            scale=EffortScale(propagations_at_timeout=1000),
        )
        assert result.wins == 1 and result.losses == 1 and result.ties == 1
        assert "wins=1" in result.render()

    def test_fig3_render_histogram(self):
        from repro.bench import Fig3Result

        result = Fig3Result(frequencies=[0, 1, 5, 5, 10], total_propagations=21)
        text = result.render()
        assert "total_propagations=21" in text
        assert result.max_frequency == 10

    def test_fig3_empty(self):
        from repro.bench import Fig3Result

        result = Fig3Result(frequencies=[], total_propagations=0)
        assert result.gini == 0.0
        assert result.top_decile_share == 0.0
        assert result.histogram() == []
