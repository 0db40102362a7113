"""Tests for repro.parallel: runner, on-disk cache, progress aggregation.

The load-bearing properties: parallel execution returns exactly the
sequential results (the solver is deterministic per task), and a second
run over the same tasks is answered entirely from the cache — zero
re-solves.
"""

import pytest

from repro.cnf import random_ksat
from repro.parallel import (
    ParallelRunner,
    ProgressAggregator,
    ResultCache,
    SolveOutcome,
    SolveTask,
    execute_task,
    solve_cache_key,
)
from repro.policies import get_policy
from repro.selection import label_instances
from repro.selection.labeling import REDUCTION_THRESHOLD, default_labeling_config
from repro.solver import Solver, Status


def make_tasks(count=4, seed_base=10, policy="default"):
    config = default_labeling_config()
    return [
        SolveTask(
            cnf=random_ksat(40, 170, seed=seed_base + i),
            policy=policy,
            config=config,
            max_conflicts=600,
            tag=f"t{i}",
        )
        for i in range(count)
    ]


class TestCacheKey:
    def test_key_is_stable(self):
        a, b = make_tasks(1)[0], make_tasks(1)[0]
        assert a.cache_key() == b.cache_key()

    def test_key_depends_on_policy(self):
        task = make_tasks(1)[0]
        other = make_tasks(1, policy="frequency")[0]
        assert task.cache_key() != other.cache_key()

    def test_key_depends_on_budget(self):
        config = default_labeling_config()
        cnf = random_ksat(20, 85, seed=3)
        a = SolveTask(cnf=cnf, config=config, max_conflicts=100)
        b = SolveTask(cnf=cnf, config=config, max_conflicts=200)
        assert a.cache_key() != b.cache_key()

    def test_key_depends_on_formula(self):
        config = default_labeling_config()
        a = SolveTask(cnf=random_ksat(20, 85, seed=3), config=config)
        b = SolveTask(cnf=random_ksat(20, 85, seed=4), config=config)
        assert a.cache_key() != b.cache_key()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = make_tasks(1)[0]
        outcome = execute_task(task)
        key = task.cache_key()
        cache.put(key, outcome.as_payload())
        restored = SolveOutcome.from_payload(cache.get(key))
        assert restored.status is outcome.status
        assert restored.propagations == outcome.propagations
        assert restored.model == outcome.model
        assert restored.cached

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        assert cache.get(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, {"policy": "default"})
        cache.put("bb" + "0" * 62, {"policy": "default"})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestParallelRunner:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_serial_matches_direct_execution(self):
        tasks = make_tasks(3)
        direct = [execute_task(t) for t in tasks]
        ran = ParallelRunner(workers=1).run(make_tasks(3))
        for a, b in zip(direct, ran):
            assert a.status is b.status
            assert a.propagations == b.propagations
            assert a.tag == b.tag

    def test_parallel_matches_serial(self):
        serial = ParallelRunner(workers=1).run(make_tasks(6))
        parallel = ParallelRunner(workers=4).run(make_tasks(6))
        assert [o.tag for o in parallel] == [o.tag for o in serial]
        for a, b in zip(serial, parallel):
            assert a.status is b.status
            assert a.propagations == b.propagations
            assert a.conflicts == b.conflicts

    def test_second_run_hits_cache_with_zero_resolves(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        tasks = make_tasks(4)
        first = ParallelRunner(workers=2, cache_dir=cache_dir)
        first_outcomes = first.run(tasks)
        assert first.last_stats.total == len(tasks)
        assert first.last_stats.executed == len(tasks)
        assert first.last_stats.cache_hits == 0

        # Second run: every task must come from disk.  Re-solving would
        # call execute_task, which is rigged to explode.
        import repro.parallel.runner as runner_module

        def boom(task):  # pragma: no cover - only runs on regression
            raise AssertionError("cache miss: task was re-solved")

        monkeypatch.setattr(runner_module, "execute_task", boom)
        second = ParallelRunner(workers=1, cache_dir=cache_dir)
        second_outcomes = second.run(make_tasks(4))
        assert second.last_stats.executed == 0
        assert second.last_stats.cache_hits == len(tasks)
        for a, b in zip(first_outcomes, second_outcomes):
            assert b.cached and not a.cached
            assert a.status is b.status
            assert a.propagations == b.propagations

    def test_cached_sat_models_still_check(self, tmp_path):
        cache_dir = tmp_path / "cache"
        tasks = make_tasks(4, seed_base=50)
        ParallelRunner(workers=1, cache_dir=cache_dir).run(tasks)
        cached = ParallelRunner(workers=1, cache_dir=cache_dir).run(
            make_tasks(4, seed_base=50)
        )
        for task, outcome in zip(tasks, cached):
            if outcome.status is Status.SATISFIABLE:
                assert task.cnf.check_model(outcome.model)

    def test_progress_aggregator_counts(self):
        runner = ParallelRunner(workers=1)
        runner.run(make_tasks(3))
        progress = runner.last_stats
        assert isinstance(progress, ProgressAggregator)
        assert progress.total == 3
        summary = progress.summary()
        assert summary["done"] == 3
        assert summary["executed"] == 3
        assert summary["cache_hits"] == 0
        assert summary["by_policy"] == {"default": 3}
        assert summary["propagations"] > 0


class TestLabelingIntegration:
    def test_label_instances_matches_direct_solves(self):
        cnfs = [random_ksat(40, 170, seed=s) for s in (7, 8, 9)]
        batched = label_instances(cnfs, max_conflicts=600)
        for cnf, comparison in zip(cnfs, batched):
            default, frequency = (
                Solver(cnf, get_policy(policy), config=default_labeling_config())
                .solve(max_conflicts=600)
                for policy in ("default", "frequency")
            )
            assert comparison.default_result_status is default.status
            assert comparison.frequency_result_status is frequency.status
            assert comparison.default_propagations == default.stats.propagations
            assert comparison.frequency_propagations == frequency.stats.propagations
            d, f = default.stats.propagations, frequency.stats.propagations
            assert default.status.decided
            assert comparison.label == int((d - f) / d >= REDUCTION_THRESHOLD)

    def test_label_instances_parallel_and_cached(self, tmp_path):
        cnfs = [random_ksat(40, 170, seed=s) for s in (21, 22, 23, 24)]
        cache_dir = tmp_path / "labels"
        parallel = label_instances(
            cnfs, max_conflicts=600,
            runner=ParallelRunner(workers=4, cache_dir=cache_dir),
        )
        serial = label_instances(cnfs, max_conflicts=600)
        assert [c.label for c in parallel] == [c.label for c in serial]

        runner = ParallelRunner(workers=1, cache_dir=cache_dir)
        relabelled = label_instances(cnfs, max_conflicts=600, runner=runner)
        assert runner.last_stats.executed == 0
        assert runner.last_stats.cache_hits == 2 * len(cnfs)
        assert [c.label for c in relabelled] == [c.label for c in serial]


class TestDatasetAndSuiteIntegration:
    def test_build_dataset_parallel_matches_serial(self):
        from repro.selection import build_dataset

        serial = build_dataset(instances_per_year=2, max_conflicts=300)
        parallel = build_dataset(
            instances_per_year=2, max_conflicts=300,
            runner=ParallelRunner(workers=2),
        )
        assert [i.label for i in serial.all_instances()] == [
            i.label for i in parallel.all_instances()
        ]
        assert [i.family for i in serial.all_instances()] == [
            i.family for i in parallel.all_instances()
        ]

    def test_run_suite_parallel_matches_serial(self, tmp_path):
        from repro.bench import run_suite

        cnfs = [random_ksat(40, 170, seed=s) for s in (31, 32, 33)]
        serial = run_suite(cnfs, "default", max_propagations=20_000)
        parallel = run_suite(
            cnfs, "default", max_propagations=20_000,
            runner=ParallelRunner(workers=3, cache_dir=tmp_path / "suite"),
        )
        assert [r.status for r in serial] == [r.status for r in parallel]
        assert [r.propagations for r in serial] == [r.propagations for r in parallel]
        assert [r.name for r in serial] == [r.name for r in parallel]
