"""Resilience layer: breaker state machine, degraded inference, deadlines.

What must hold, each claim tested here:

* the circuit breaker walks every edge of CLOSED → OPEN → HALF_OPEN
  correctly — opening at the failure-rate threshold (but never before
  ``min_samples``), admitting only ``half_open_probes`` probes after
  the cooldown, reopening on a failed probe, closing after
  ``recovery_successes`` clean ones, and treating slow successes as
  failures — all on an injected clock, with zero sleeps;
* a raising, hanging, or breaker-blocked forward pass degrades every
  batch member to the default policy (``degraded=true``) instead of
  hanging futures or killing the batcher loop;
* deadlines propagate: an infeasible deadline is shed at admission
  with ``Retry-After``, an admitted one clamps the conflict budget and
  the supervisor wall budget, and one that expires in the queue
  answers TIMEOUT without touching a worker;
* a draining service completes what it admitted and answers new
  submissions 503;
* the client retries 429s and connection resets with capped,
  seeded-jitter backoff, and a retried solve resumes from the journal
  instead of re-solving.

Tests drive the event loop with ``asyncio.run`` (no pytest-asyncio
dependency).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cnf import random_ksat, to_dimacs
from repro.models import NeuroSelect
from repro.serve import (
    AdmissionError,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    InferenceBatcher,
    ServeClient,
    ServeConfig,
    ServeReply,
    SolveService,
)
from repro.serve.http import bound_address, start_service
from repro.serve.resilience import clamp_conflicts_to_deadline
from repro.solver import Status


def _model() -> NeuroSelect:
    return NeuroSelect(hidden_dim=8, seed=0)


class _Clock:
    """Manually advanced monotonic clock for sleep-free breaker tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _breaker(**overrides) -> CircuitBreaker:
    defaults = dict(
        window=8,
        min_samples=4,
        failure_threshold=0.5,
        cooldown_seconds=10.0,
        half_open_probes=1,
        recovery_successes=2,
    )
    defaults.update(overrides)
    clock = _Clock()
    breaker = CircuitBreaker(BreakerConfig(**defaults), clock=clock)
    breaker.test_clock = clock  # type: ignore[attr-defined]
    return breaker


# ---------------------------------------------------------------------------
# breaker state machine


def test_breaker_stays_closed_below_min_samples():
    breaker = _breaker()
    for _ in range(3):  # 100% failure, but only 3 of 4 required samples
        assert breaker.allow()
        breaker.record_failure(reason="boom")
    assert breaker.state is BreakerState.CLOSED
    assert breaker.failure_rate() == 1.0


def test_breaker_opens_at_threshold_and_short_circuits():
    breaker = _breaker()
    for _ in range(2):
        breaker.record_success()
    for _ in range(2):
        breaker.record_failure(reason="boom")
    assert breaker.state is BreakerState.OPEN  # 2/4 >= 0.5
    assert not breaker.allow()
    assert breaker.short_circuits == 1
    assert breaker.transitions[-1][0:2] == ("CLOSED", "OPEN")


def test_breaker_ignores_failures_below_threshold():
    breaker = _breaker()
    for _ in range(3):
        breaker.record_success()
    breaker.record_failure(reason="boom")  # 1/4 < 0.5
    assert breaker.state is BreakerState.CLOSED


def test_breaker_half_open_after_cooldown_bounds_probes():
    breaker = _breaker(half_open_probes=1)
    for _ in range(4):
        breaker.record_failure(reason="boom")
    assert breaker.state is BreakerState.OPEN
    breaker.test_clock.advance(9.9)
    assert not breaker.allow()  # still cooling down
    breaker.test_clock.advance(0.2)
    assert breaker.allow()      # first probe admitted
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow()  # probe budget exhausted
    assert breaker.short_circuits == 2


def test_breaker_recovers_after_enough_probe_successes():
    breaker = _breaker(recovery_successes=2)
    for _ in range(4):
        breaker.record_failure(reason="boom")
    breaker.test_clock.advance(10.0)
    for _ in range(2):
        assert breaker.allow()
        breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.failure_rate() == 0.0  # window cleared on recovery
    edges = [(t[0], t[1]) for t in breaker.transitions]
    assert edges == [
        ("CLOSED", "OPEN"),
        ("OPEN", "HALF_OPEN"),
        ("HALF_OPEN", "CLOSED"),
    ]


def test_breaker_failed_probe_reopens():
    breaker = _breaker()
    for _ in range(4):
        breaker.record_failure(reason="boom")
    breaker.test_clock.advance(10.0)
    assert breaker.allow()
    breaker.record_failure(reason="still broken")
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()  # a fresh cooldown applies
    breaker.test_clock.advance(10.0)
    assert breaker.allow()      # and probing resumes after it
    assert breaker.state is BreakerState.HALF_OPEN


def test_breaker_slow_success_counts_as_failure():
    breaker = _breaker(slow_seconds=0.1, min_samples=4)
    for _ in range(4):
        breaker.record_success(seconds=0.5)
    assert breaker.state is BreakerState.OPEN
    assert "slow" in breaker.transitions[-1][2]


def test_breaker_straggler_failure_while_open_is_ignored():
    breaker = _breaker()
    for _ in range(4):
        breaker.record_failure(reason="boom")
    transitions = len(breaker.transitions)
    breaker.record_failure(reason="late straggler")
    assert breaker.state is BreakerState.OPEN
    assert len(breaker.transitions) == transitions


def test_breaker_stats_snapshot():
    breaker = _breaker()
    breaker.record_failure(reason="boom")
    stats = breaker.stats()
    assert stats["state"] == "CLOSED"
    assert stats["samples"] == 1
    assert stats["failure_rate"] == 1.0


def test_breaker_config_validation():
    with pytest.raises(ValueError):
        BreakerConfig(window=0)
    with pytest.raises(ValueError):
        BreakerConfig(min_samples=9, window=8)
    with pytest.raises(ValueError):
        BreakerConfig(failure_threshold=0.0)
    with pytest.raises(ValueError):
        BreakerConfig(half_open_probes=0)
    with pytest.raises(ValueError):
        BreakerConfig(slow_seconds=-1.0)


def test_clamp_conflicts_to_deadline():
    assert clamp_conflicts_to_deadline(100_000, 2.0, 25_000) == 50_000
    assert clamp_conflicts_to_deadline(100_000, 10.0, 25_000) == 100_000
    assert clamp_conflicts_to_deadline(100_000, 0.0, 25_000) == 1
    assert clamp_conflicts_to_deadline(100_000, -1.0, 25_000) == 1
    assert clamp_conflicts_to_deadline(100_000, 1e-9, 25_000) == 1


# ---------------------------------------------------------------------------
# batcher failure contract


class _RaisingModel:
    decision_threshold = 0.5

    def __init__(self) -> None:
        self.calls = 0

    def predict_proba_batch(self, batch):
        self.calls += 1
        raise RuntimeError("synthetic inference crash")


class _StallingModel:
    decision_threshold = 0.5

    def predict_proba_batch(self, batch):
        import time

        time.sleep(0.5)
        raise AssertionError("timed-out result must be discarded")


def test_raising_model_degrades_every_batch_member():
    async def scenario():
        batcher = InferenceBatcher(
            _RaisingModel(), ServeConfig(max_batch=3)
        )
        await batcher.start()
        choices = await asyncio.gather(*[
            batcher.submit(random_ksat(10 + i, 30, seed=i))
            for i in range(3)
        ])
        await batcher.stop()
        return batcher, choices

    batcher, choices = asyncio.run(scenario())
    assert len(choices) == 3
    for choice in choices:
        assert choice.policy == "default"
        assert not choice.used_model
        assert choice.degraded
    assert batcher.failures == 1
    assert batcher.degraded == 3
    assert batcher.served == 3


def test_inference_timeout_degrades_and_loop_survives():
    async def scenario():
        batcher = InferenceBatcher(
            _StallingModel(),
            ServeConfig(max_batch=2, inference_timeout=0.05),
        )
        await batcher.start()
        first = await asyncio.gather(*[
            batcher.submit(random_ksat(10, 30, seed=i)) for i in range(2)
        ])
        second = await asyncio.gather(*[
            batcher.submit(random_ksat(11, 33, seed=i)) for i in range(2)
        ])
        await batcher.stop()
        return batcher, first + second

    batcher, choices = asyncio.run(scenario())
    assert all(c.degraded and c.policy == "default" for c in choices)
    assert batcher.failures == 2  # the loop survived the first timeout


def test_open_breaker_bypasses_model_entirely():
    async def scenario():
        model = _RaisingModel()
        breaker = CircuitBreaker(
            BreakerConfig(min_samples=1, failure_threshold=1.0,
                          cooldown_seconds=60.0)
        )
        breaker.record_failure(reason="pre-tripped")
        assert breaker.state is BreakerState.OPEN
        batcher = InferenceBatcher(
            model, ServeConfig(max_batch=2),
            breaker=breaker,
        )
        await batcher.start()
        choices = await asyncio.gather(*[
            batcher.submit(random_ksat(10, 30, seed=i)) for i in range(2)
        ])
        await batcher.stop()
        return model, breaker, choices

    model, breaker, choices = asyncio.run(scenario())
    assert model.calls == 0  # open breaker short-circuits the forward pass
    assert breaker.short_circuits >= 1
    assert all(c.degraded and c.policy == "default" for c in choices)


def test_breaker_recovers_through_batcher_traffic():
    """End to end: failures trip the breaker, clean probes close it."""

    class _FlakyModel:
        decision_threshold = 0.5

        def __init__(self, real, fail_first: int) -> None:
            self.real = real
            self.fail_first = fail_first
            self.calls = 0

        def predict_proba_batch(self, batch):
            self.calls += 1
            if self.calls <= self.fail_first:
                raise RuntimeError("transient inference crash")
            return self.real.predict_proba_batch(batch)

    async def scenario():
        breaker = CircuitBreaker(
            BreakerConfig(min_samples=1, failure_threshold=1.0,
                          cooldown_seconds=0.05, recovery_successes=1)
        )
        batcher = InferenceBatcher(
            _FlakyModel(_model(), fail_first=1),
            ServeConfig(max_batch=1),
            breaker=breaker,
        )
        await batcher.start()
        degraded = await batcher.submit(random_ksat(10, 30, seed=0))
        await asyncio.sleep(0.1)  # let the cooldown elapse
        recovered = await batcher.submit(random_ksat(10, 30, seed=1))
        await batcher.stop()
        return breaker, degraded, recovered

    breaker, degraded, recovered = asyncio.run(scenario())
    assert degraded.degraded
    assert recovered.used_model and not recovered.degraded
    edges = [(t[0], t[1]) for t in breaker.transitions]
    assert edges == [
        ("CLOSED", "OPEN"),
        ("OPEN", "HALF_OPEN"),
        ("HALF_OPEN", "CLOSED"),
    ]


# ---------------------------------------------------------------------------
# deadline propagation


def test_infeasible_deadline_is_shed_at_admission():
    async def scenario():
        service = SolveService(None, ServeConfig(default_max_conflicts=500))
        await service.start()
        service._wait_ewma = 2.0  # pretend the queue is slow
        try:
            service.submit(random_ksat(10, 30, seed=0), deadline_seconds=1.0)
        except AdmissionError as exc:
            shed = exc
        else:
            shed = None
        try:
            service.submit(random_ksat(10, 30, seed=0), deadline_seconds=0.0)
        except AdmissionError as exc:
            nonpositive = exc
        else:
            nonpositive = None
        stats = service.stats()
        await service.stop(drain=True)
        return shed, nonpositive, stats

    shed, nonpositive, stats = asyncio.run(scenario())
    assert shed is not None and shed.http_code == 429
    assert shed.reason == "deadline-infeasible"
    assert shed.retry_after >= 1.0
    assert nonpositive is not None
    assert stats["shed"] == 2
    assert stats["rejected"] == 2


def test_deadline_clamps_conflict_and_wall_budgets():
    async def scenario():
        service = SolveService(
            None,
            ServeConfig(
                default_max_conflicts=1_000_000,
                max_conflicts_cap=1_000_000,
                conflicts_per_second=1000.0,
            ),
        )
        await service.start()
        request = service.submit(
            random_ksat(10, 30, seed=0), deadline_seconds=30.0
        )
        task = service._task_for(request)
        await service.wait(request.id)
        await service.stop(drain=True)
        return request, task

    request, task = asyncio.run(scenario())
    # ~30s at 1000 conflicts/s: far below the million-conflict default.
    assert task.max_conflicts <= 30_000
    assert task.wall_budget_seconds is not None
    assert task.wall_budget_seconds <= 30.0
    assert request.outcome is not None


def test_expired_deadline_answers_timeout_without_solving():
    async def scenario():
        service = SolveService(None, ServeConfig(default_max_conflicts=500))
        await service.start()
        request = service.submit(
            random_ksat(10, 30, seed=0), deadline_seconds=1e-9
        )
        await service.wait(request.id)
        stats = service.stats()
        await service.stop(drain=True)
        return request, stats

    request, stats = asyncio.run(scenario())
    assert request.outcome.status is Status.TIMEOUT
    assert request.outcome.attempts == 0  # never reached a worker
    assert "expired" in request.outcome.error
    assert stats["deadline_missed"] >= 0  # histogram path exercised
    assert request.http_code() == 504


def test_wall_budget_stays_out_of_cache_key():
    from repro.parallel import SolveTask
    from repro.solver import SolverConfig

    cnf = random_ksat(10, 30, seed=0)
    plain = SolveTask(cnf=cnf, policy="default", config=SolverConfig(),
                      max_conflicts=100)
    budgeted = SolveTask(cnf=cnf, policy="default", config=SolverConfig(),
                         max_conflicts=100, wall_budget_seconds=0.5)
    assert plain.cache_key() == budgeted.cache_key()


# ---------------------------------------------------------------------------
# graceful drain under load


def test_drain_completes_admitted_and_rejects_new_with_503():
    async def scenario():
        service = SolveService(
            _model(),
            ServeConfig(max_batch=4, default_max_conflicts=500),
        )
        server, _ = await start_service(service)
        host, port = bound_address(server)
        client = ServeClient(host, port)
        inflight = [
            asyncio.ensure_future(client.solve(
                to_dimacs(random_ksat(10 + i, 30, seed=i)),
                max_conflicts=500,
            ))
            for i in range(4)
        ]
        while service.total_requests < 4:  # submissions must be admitted
            await asyncio.sleep(0.001)
        drain = asyncio.ensure_future(service.stop(drain=True))
        while service.accepting:
            await asyncio.sleep(0.001)
        rejected = await client.solve(
            to_dimacs(random_ksat(9, 27, seed=99)), max_conflicts=500
        )
        replies = await asyncio.gather(*inflight)
        await drain
        server.close()
        await server.wait_closed()
        return replies, rejected, service.stats()

    replies, rejected, stats = asyncio.run(scenario())
    assert rejected.code == 503
    assert rejected.retry_after is not None
    assert rejected.json["reason"] == "not-accepting"
    assert len(replies) == 4
    assert all(r.code == 200 for r in replies)  # drained, not dropped
    assert stats["responses"] == 4


# ---------------------------------------------------------------------------
# client retry


def test_retry_delay_schedule_and_retry_after_floor():
    client = ServeClient(
        max_retries=5, backoff_seconds=0.25, multiplier=2.0,
        max_backoff_seconds=1.0, jitter=0.0,
    )
    assert client._retry_delay(1, None) == 0.25
    assert client._retry_delay(2, None) == 0.5
    assert client._retry_delay(3, None) == 1.0   # capped
    assert client._retry_delay(4, None) == 1.0
    assert client._retry_delay(1, 0.8) == 0.8    # Retry-After raises it


def test_retry_jitter_is_seeded_and_bounded():
    a = ServeClient(max_retries=1, jitter=0.1, retry_seed=7)
    b = ServeClient(max_retries=1, jitter=0.1, retry_seed=7)
    delays_a = [a._retry_delay(1, None) for _ in range(5)]
    delays_b = [b._retry_delay(1, None) for _ in range(5)]
    assert delays_a == delays_b  # same seed, same jitter sequence
    for delay in delays_a:
        assert 0.9 * 0.25 <= delay <= 1.1 * 0.25


def test_client_retries_429_until_success():
    replies = [
        ServeReply(code=429, json={"error": "full"},
                   headers={"retry-after": "0.01"}),
        ServeReply(code=429, json={"error": "full"},
                   headers={"retry-after": "0.01"}),
        ServeReply(code=200, json={"status": "SATISFIABLE"}),
    ]

    async def scenario():
        client = ServeClient(
            max_retries=3, backoff_seconds=0.01, jitter=0.0
        )

        async def fake_call(method, path, payload=None):
            return replies.pop(0)

        client._call = fake_call  # type: ignore[assignment]
        return await client.solve("p cnf 1 1\n1 0\n")

    reply = asyncio.run(scenario())
    assert reply.code == 200
    assert not replies  # all three attempts consumed


def test_client_retry_budget_exhaustion_returns_last_429():
    async def scenario():
        client = ServeClient(
            max_retries=1, backoff_seconds=0.01, jitter=0.0
        )

        async def fake_call(method, path, payload=None):
            return ServeReply(code=429, json={"error": "full"})

        client._call = fake_call  # type: ignore[assignment]
        return await client.solve("p cnf 1 1\n1 0\n")

    reply = asyncio.run(scenario())
    assert reply.code == 429


def test_connection_reset_retry_resumes_from_journal(tmp_path):
    """A lost reply is retried and answered from the journal, idempotently."""
    cnf = random_ksat(12, 40, seed=3)

    async def scenario():
        service = SolveService(
            None,
            ServeConfig(
                max_batch=2,
                default_max_conflicts=2000,
                journal=str(tmp_path / "journal.jsonl"),
            ),
        )
        server, _ = await start_service(service)
        host, port = bound_address(server)
        client = ServeClient(
            host, port, max_retries=2, backoff_seconds=0.01, jitter=0.0
        )
        real_call = client._call
        dropped = {"count": 0}

        async def lossy_call(method, path, payload=None):
            reply = await real_call(method, path, payload)
            if dropped["count"] == 0:
                # The server answered, but the reply is lost on the
                # wire: exactly the case where blind re-submission
                # would double-solve without the journal.
                dropped["count"] += 1
                raise ConnectionResetError("reply lost in transit")
            return reply

        client._call = lossy_call  # type: ignore[assignment]
        reply = await client.solve(to_dimacs(cnf), max_conflicts=2000)
        retries = client.retries
        server.close()
        await server.wait_closed()
        await service.stop(drain=True)
        return reply, retries, dropped["count"]

    reply, retries, drops = asyncio.run(scenario())
    assert drops == 1 and retries == 1
    assert reply.code in (200, 504)
    assert reply.json["resumed"] is True  # second solve came from disk
    assert reply.json["status"] in (
        "SATISFIABLE", "UNSATISFIABLE", "UNKNOWN", "TIMEOUT"
    )


def test_client_raises_after_transport_retries_exhausted():
    async def scenario():
        client = ServeClient(
            max_retries=1, backoff_seconds=0.01, jitter=0.0
        )

        async def dead_call(method, path, payload=None):
            raise ConnectionResetError("service gone")

        client._call = dead_call  # type: ignore[assignment]
        try:
            await client.solve("p cnf 1 1\n1 0\n")
        except ConnectionResetError:
            return client.retries
        return None

    retries = asyncio.run(scenario())
    assert retries == 1  # one retry, then the error surfaced


# ---------------------------------------------------------------------------
# service-level breaker integration


def test_service_stats_expose_breaker_and_resilience_counters():
    async def scenario():
        service = SolveService(
            _model(),
            ServeConfig(
                max_batch=2,
                default_max_conflicts=500,
                breaker=BreakerConfig(),
            ),
        )
        await service.start()
        request = service.submit(random_ksat(10, 30, seed=0))
        await service.wait(request.id)
        stats = service.stats()
        await service.stop(drain=True)
        return stats

    stats = asyncio.run(scenario())
    assert stats["breaker"]["state"] == "CLOSED"
    for key in ("degraded", "shed", "deadline_missed", "inference_failures"):
        assert key in stats
