"""Fault-path tests for the supervised execution layer.

Every failure mode is driven through the deterministic ``FaultPlan``
injector — a chosen fault at a chosen task index and attempt number,
inside the worker process — so the tests exercise worker exceptions,
hard kills, hangs, memouts, transient-then-clean retries, journal
resume, and cache corruption recovery without sleeps or timing luck.
"""

import json

import pytest

from repro.cnf import random_ksat
from repro.parallel import (
    Fault,
    FaultPlan,
    ParallelRunner,
    ResultCache,
    RunJournal,
    SolveTask,
    Supervisor,
    WorkerBudget,
)
from repro.parallel import supervisor as supervisor_module
from repro.parallel.supervisor import retry_delay
from repro.selection import label_instances
from repro.selection.labeling import default_labeling_config
from repro.solver import Status

#: Hang-interruption budget: generous against CI jitter, but the hang
#: fault sleeps for an hour, so the kill is what ends the task either way.
TIMEOUT = 2.0


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once: the backoff schedule is not under test here."""
    monkeypatch.setattr(supervisor_module, "RETRY_BACKOFF_SECONDS", 0.0)


def make_tasks(count=4, seed_base=10, policy="default", max_conflicts=400):
    config = default_labeling_config()
    return [
        SolveTask(
            cnf=random_ksat(30, 126, seed=seed_base + i),
            policy=policy,
            config=config,
            max_conflicts=max_conflicts,
            tag=f"t{i}",
        )
        for i in range(count)
    ]


class TestConfigValidation:
    def test_budget_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WorkerBudget(wall_seconds=0)
        with pytest.raises(ValueError):
            WorkerBudget(rss_mb=-1)

    def test_retry_policy_rejects_negative(self):
        with pytest.raises(ValueError):
            ParallelRunner(retries=-1)
        with pytest.raises(ValueError):
            Supervisor(retries=-1)

    def test_retry_backoff_is_capped_exponential(self):
        delays = [retry_delay(k) for k in range(1, 10)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]

    def test_fault_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Fault("explode")

    def test_fault_attempt_windows(self):
        transient = Fault("raise", attempts=2)
        permanent = Fault("raise")
        assert transient.applies(1) and transient.applies(2)
        assert not transient.applies(3)
        assert permanent.applies(99)


class TestFailureIsolation:
    def test_worker_exception_becomes_error_outcome(self):
        tasks = make_tasks(4)
        runner = ParallelRunner(
            workers=2, fault_plan=FaultPlan({1: Fault("raise", message="boom")})
        )
        outcomes = runner.run(tasks)
        # Exactly one outcome per task, in task order — no silent drops.
        assert [o.tag for o in outcomes] == [t.tag for t in tasks]
        assert outcomes[1].status is Status.ERROR
        assert "boom" in outcomes[1].error
        assert not outcomes[1].solved and outcomes[1].failed
        for sibling in (outcomes[0], outcomes[2], outcomes[3]):
            assert sibling.status.decided  # siblings unaffected
        assert runner.last_stats.failed == 1
        assert runner.last_stats.failures == {"ERROR": 1}

    def test_worker_hard_kill_becomes_error_outcome(self):
        tasks = make_tasks(3)
        runner = ParallelRunner(workers=2, fault_plan=FaultPlan({0: Fault("kill")}))
        outcomes = runner.run(tasks)
        assert outcomes[0].status is Status.ERROR
        assert "-9" in outcomes[0].error  # SIGKILL exit code is reported
        assert outcomes[1].status.decided and outcomes[2].status.decided

    def test_hang_is_timed_out(self):
        tasks = make_tasks(3)
        runner = ParallelRunner(
            workers=3, task_timeout=TIMEOUT,
            fault_plan=FaultPlan({2: Fault("hang")}),
        )
        outcomes = runner.run(tasks)
        assert outcomes[2].status is Status.TIMEOUT
        assert "budget" in outcomes[2].error
        assert outcomes[0].status.decided and outcomes[1].status.decided
        assert runner.last_stats.failures == {"TIMEOUT": 1}

    def test_injected_memout_is_classified(self):
        tasks = make_tasks(2)
        runner = ParallelRunner(workers=1, fault_plan=FaultPlan({0: Fault("memout")}))
        outcomes = runner.run(tasks)
        assert outcomes[0].status is Status.MEMOUT
        assert outcomes[1].status.decided

    def test_slow_fault_still_succeeds_within_budget(self):
        tasks = make_tasks(2)
        runner = ParallelRunner(
            workers=2, task_timeout=30.0,
            fault_plan=FaultPlan({0: Fault("slow", seconds=0.05)}),
        )
        outcomes = runner.run(tasks)
        assert all(o.status.decided for o in outcomes)

    def test_inline_exception_becomes_error_outcome(self, monkeypatch):
        # workers=1 without supervision options stays inline, but the
        # one-outcome-per-task contract must hold there too.
        import repro.parallel.runner as runner_module

        real = runner_module.execute_task
        tasks = make_tasks(3)

        def flaky(task):
            if task.tag == "t1":
                raise RuntimeError("inline boom")
            return real(task)

        monkeypatch.setattr(runner_module, "execute_task", flaky)
        outcomes = ParallelRunner(workers=1).run(tasks)
        assert [o.tag for o in outcomes] == ["t0", "t1", "t2"]
        assert outcomes[1].status is Status.ERROR
        assert outcomes[0].status.decided and outcomes[2].status.decided


@pytest.mark.usefixtures("no_backoff")
class TestRetry:
    def test_transient_error_succeeds_on_retry(self):
        tasks = make_tasks(3)
        runner = ParallelRunner(
            workers=2, retries=2,
            fault_plan=FaultPlan({1: Fault("raise", attempts=1)}),
        )
        outcomes = runner.run(tasks)
        assert all(o.status.decided for o in outcomes)
        assert outcomes[1].attempts == 2
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 0

    def test_permanent_error_exhausts_retries(self):
        tasks = make_tasks(2)
        runner = ParallelRunner(
            workers=1, retries=2,
            fault_plan=FaultPlan({0: Fault("raise")}),
        )
        outcomes = runner.run(tasks)
        assert outcomes[0].status is Status.ERROR
        assert outcomes[0].attempts == 3  # 1 try + 2 retries
        assert outcomes[1].status.decided

    def test_timeouts_are_not_retried_by_default(self):
        tasks = make_tasks(1)
        runner = ParallelRunner(
            workers=1, retries=3, task_timeout=TIMEOUT,
            fault_plan=FaultPlan({0: Fault("hang")}),
        )
        outcomes = runner.run(tasks)
        assert outcomes[0].status is Status.TIMEOUT
        assert outcomes[0].attempts == 1  # deterministic failure: one try


class TestJournalResume:
    def test_resume_skips_finished_tasks(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = make_tasks(5)

        # "Interrupted" sweep: only the first three tasks ever finished.
        first = ParallelRunner(workers=2, journal=journal_path)
        first.run(tasks[:3])
        assert first.last_stats.executed == 3

        resumed = ParallelRunner(workers=2, journal=journal_path)
        outcomes = resumed.run(tasks)
        assert resumed.last_stats.journal_hits == 3
        assert resumed.last_stats.executed == 2
        assert [o.tag for o in outcomes] == [t.tag for t in tasks]
        assert [o.resumed for o in outcomes] == [True, True, True, False, False]

        # Journalled outcomes are byte-identical to fresh ones.
        fresh = ParallelRunner(workers=1).run(make_tasks(5))
        for a, b in zip(outcomes, fresh):
            assert a.status is b.status
            assert a.propagations == b.propagations

    def test_terminal_failures_are_journalled_not_rerun(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = make_tasks(3)
        first = ParallelRunner(
            workers=1, journal=journal_path,
            fault_plan=FaultPlan({1: Fault("raise")}),
        )
        first.run(tasks)

        # Resume without the fault plan: the recorded ERROR is terminal,
        # so nothing re-executes — finished means finished.
        resumed = ParallelRunner(workers=1, journal=journal_path)
        outcomes = resumed.run(make_tasks(3))
        assert resumed.last_stats.executed == 0
        assert resumed.last_stats.journal_hits == 3
        assert outcomes[1].status is Status.ERROR

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = make_tasks(2)
        ParallelRunner(workers=1, journal=journal_path).run(tasks)
        with journal_path.open("a") as handle:
            handle.write('{"kind": "entry", "key": "abc", "outc')  # torn write

        journal = RunJournal(journal_path)
        assert journal.corrupt_lines == 1
        assert len(journal) == 2  # intact lines all survive

        resumed = ParallelRunner(workers=1, journal=journal)
        resumed.run(make_tasks(2))
        assert resumed.last_stats.journal_hits == 2

    def test_journal_tag_follows_current_task(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = make_tasks(2)
        ParallelRunner(workers=1, journal=journal_path).run(tasks)
        retagged = make_tasks(2)
        for task in retagged:
            task.tag = "re-" + task.tag
        outcomes = ParallelRunner(workers=1, journal=journal_path).run(retagged)
        assert [o.tag for o in outcomes] == ["re-t0", "re-t1"]


class TestCacheRobustness:
    def test_corrupt_entry_is_evicted_and_resolved(self, tmp_path):
        cache_dir = tmp_path / "cache"
        tasks = make_tasks(2)
        ParallelRunner(workers=1, cache_dir=cache_dir).run(tasks)

        cache = ResultCache(cache_dir)
        key = tasks[0].cache_key()
        cache.path_for(key).write_text("{ torn json")

        runner = ParallelRunner(workers=1, cache_dir=cache_dir)
        outcomes = runner.run(make_tasks(2))
        assert runner.cache.corrupt_evictions == 1
        assert runner.last_stats.executed == 1  # only the corrupt one
        assert runner.last_stats.cache_hits == 1
        assert all(o.status.decided for o in outcomes)
        # The re-solve repaired the entry on disk.
        assert ResultCache(cache_dir).get(key) is not None

    def test_stale_tmp_files_swept_on_startup(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, {"policy": "default"})
        # A killed writer's leftovers, in an existing shard directory.
        (tmp_path / "aa" / ("bb" + "0" * 62 + ".tmp.12345")).write_text("{par")
        assert len(cache) == 1  # tmp files are not entries

        reopened = ResultCache(tmp_path)
        assert reopened.tmp_swept == 1
        assert not list(tmp_path.glob("*/*.tmp.*"))
        assert len(reopened) == 1

    def test_clear_reports_entries_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, {"policy": "default"})
        cache.put("bb" + "0" * 62, {"policy": "default"})
        (tmp_path / "aa" / ("cc" + "0" * 62 + ".tmp.999")).write_text("x")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not list(tmp_path.glob("*/*.tmp.*"))

    def test_cache_hit_restores_current_tag(self, tmp_path):
        # Two tasks with identical cache keys but different caller tags:
        # the second must get its own tag back, not the first one's.
        cache_dir = tmp_path / "cache"
        config = default_labeling_config()
        cnf = random_ksat(30, 126, seed=77)
        first = SolveTask(cnf=cnf, config=config, max_conflicts=400, tag="alpha")
        second = SolveTask(cnf=cnf, config=config, max_conflicts=400, tag="beta")
        assert first.cache_key() == second.cache_key()

        ParallelRunner(workers=1, cache_dir=cache_dir).run([first])
        outcomes = ParallelRunner(workers=1, cache_dir=cache_dir).run([second])
        assert outcomes[0].cached
        assert outcomes[0].tag == "beta"  # not the stored "alpha"

        rerun = ParallelRunner(workers=1, cache_dir=cache_dir).run(
            [SolveTask(cnf=cnf, config=config, max_conflicts=400, tag="gamma")]
        )
        assert rerun[0].tag == "gamma" and rerun[0].cached


class TestLabelingSweepAcceptance:
    def test_faulty_sweep_completes_and_resumes(self, tmp_path, no_backoff):
        """The acceptance scenario: 1 hang, 1 crash, 1 transient error.

        The hang is timed out, the crash yields an ERROR outcome without
        aborting sibling tasks, the transient error succeeds on retry —
        and a re-run with the same journal re-solves only the tasks that
        failed terminally (here: none; everything is journalled).
        """
        cnfs = [random_ksat(30, 126, seed=40 + i) for i in range(5)]
        journal_path = tmp_path / "labels.jsonl"
        # Task indices are (instance, policy) pairs: 2i is instance i
        # under "default", 2i+1 under "frequency".
        plan = FaultPlan({
            0: Fault("hang"),                  # instance 0 / default
            3: Fault("kill"),                  # instance 1 / frequency
            4: Fault("raise", attempts=1),     # instance 2: transient
        })
        runner = ParallelRunner(
            workers=2, task_timeout=TIMEOUT, retries=1,
            fault_plan=plan, journal=journal_path,
        )
        comparisons = label_instances(cnfs, max_conflicts=400, runner=runner)

        assert len(comparisons) == len(cnfs)  # nothing dropped
        stats = runner.last_stats
        assert stats.total == 2 * len(cnfs)  # both policies per instance
        assert stats.failures == {"TIMEOUT": 1, "ERROR": 1}
        # Two outcomes took more than one attempt: the transient error
        # (recovered) and the permanent kill (retried once, still ERROR).
        assert stats.retried == 2
        # Failed runs force the safe label 0; clean instances label
        # normally (their statuses are decided).
        assert comparisons[0].label == 0 and comparisons[1].label == 0
        assert comparisons[0].default_result_status is Status.TIMEOUT
        assert comparisons[1].frequency_result_status is Status.ERROR
        for comparison in comparisons[2:]:
            assert comparison.default_result_status.decided
            assert comparison.frequency_result_status.decided

        # Resume: every task is journalled (failures are terminal), so
        # the re-run does zero solver work and reproduces the labels.
        resumed_runner = ParallelRunner(workers=2, journal=journal_path)
        resumed = label_instances(cnfs, max_conflicts=400, runner=resumed_runner)
        assert resumed_runner.last_stats.executed == 0
        assert resumed_runner.last_stats.journal_hits == 2 * len(cnfs)
        assert [c.label for c in resumed] == [c.label for c in comparisons]

    def test_journal_file_is_plain_jsonl(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        ParallelRunner(workers=1, journal=journal_path).run(make_tasks(2))
        lines = journal_path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["kind"] == "entry"
            assert set(record) == {"kind", "key", "outcome"}
            assert record["outcome"]["status"] in (
                "SATISFIABLE", "UNSATISFIABLE", "UNKNOWN"
            )
