"""Solve service: batcher flush semantics, lifecycle, HTTP front door.

The service's correctness claims, each tested here:

* work-conserving flushes — a lone request flushes at once, requests
  queued behind a running forward pass form the next batch, a full
  batch flushes on size, a burst larger than ``max_batch`` splits, and
  a cancelled client is dropped from its batch before inference;
* batched classification equals per-instance classification (the
  segmented-attention equality, end to end through the batcher);
* amortization — a concurrent burst of 8 requests costs strictly fewer
  forward passes than requests, and every response matches a direct
  solve of the same (formula, policy, budget);
* admission control (queue-depth 429) and budget clamping;
* graceful shutdown drains the queue; a restart with the same journal
  answers repeated requests from disk;
* the HTTP protocol: held and fire-and-forget solves, job snapshots,
  NDJSON lifecycle streaming, the failure-taxonomy response codes, and
  malformed-input handling.

Tests drive the event loop with ``asyncio.run`` (no pytest-asyncio
dependency).
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time

import pytest

from repro.cnf import parse_dimacs, random_ksat, to_dimacs
from repro.graph import BipartiteGraph
from repro.models import NeuroSelect
from repro.obs import start_run, summarize_traces
from repro.policies import get_policy
from repro.selection.selector import DecisionRule
from repro.serve import (
    AdmissionError,
    InferenceBatcher,
    RequestState,
    ServeClient,
    ServeConfig,
    ServeRequest,
    SolveService,
    http_code_for,
)
from repro.serve.http import bound_address, start_service
from repro.solver import Solver, Status


def _model() -> NeuroSelect:
    return NeuroSelect(hidden_dim=8, seed=0)


def _burst(n: int, offset: int = 0):
    return [
        random_ksat(10 + i, 3 * (10 + i), seed=offset + i) for i in range(n)
    ]


class _GatedModel(NeuroSelect):
    """A model whose forward passes wait until the test opens ``gate``.

    ``entered`` is set once a pass has started, so a test can queue
    requests behind a pass that is known to be running.
    """

    def __init__(self):
        super().__init__(hidden_dim=8, seed=0)
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batch_sizes = []

    def predict_proba_batch(self, batch):
        self.entered.set()
        self.gate.wait(timeout=30)
        values = super().predict_proba_batch(batch)
        self.batch_sizes.append(len(values))
        return values


async def _hold(batcher, model: _GatedModel) -> "asyncio.Future":
    """Start a forward pass that ``model`` holds until its gate opens;
    later submissions stay queued behind it.  Returns the holder's
    pending choice."""
    holder = asyncio.ensure_future(
        batcher.submit(random_ksat(12, 40, seed=99))
    )
    deadline = time.monotonic() + 10.0
    while not model.entered.is_set():
        assert time.monotonic() < deadline, "the held pass never started"
        await asyncio.sleep(0.005)
    return holder


# ---------------------------------------------------------------------------
# batcher flush semantics


def test_lone_request_flushes_at_once():
    async def scenario():
        batcher = InferenceBatcher(_model(), ServeConfig(max_batch=8))
        await batcher.start()
        choice = await batcher.submit(random_ksat(12, 40, seed=0))
        await batcher.stop()
        return choice, batcher.passes

    choice, passes = asyncio.run(scenario())
    assert choice.trigger == "queue"
    assert choice.batch_size == 1
    assert choice.used_model
    assert passes == 1


def test_requests_queued_behind_a_pass_form_the_next_batch():
    model = _GatedModel()

    async def scenario():
        batcher = InferenceBatcher(model, ServeConfig(max_batch=8))
        await batcher.start()
        try:
            holder = await _hold(batcher, model)
            queued = [
                asyncio.ensure_future(batcher.submit(cnf))
                for cnf in _burst(5)
            ]
            await asyncio.sleep(0)  # let them enqueue
            model.gate.set()
            choices = await asyncio.gather(holder, *queued)
        finally:
            model.gate.set()
            await batcher.stop()
        return choices, batcher.passes

    choices, passes = asyncio.run(scenario())
    assert passes == 2  # 5 < max_batch: one pass for all of them
    assert model.batch_sizes == [1, 5]
    assert [c.batch_size for c in choices] == [1, 5, 5, 5, 5, 5]
    assert {c.trigger for c in choices} == {"queue"}


def test_burst_larger_than_max_batch_splits():
    async def scenario():
        batcher = InferenceBatcher(_model(), ServeConfig(max_batch=2))
        await batcher.start()
        choices = await asyncio.gather(*[
            batcher.submit(cnf) for cnf in _burst(5)
        ])
        await batcher.stop()
        return choices, batcher.passes

    choices, passes = asyncio.run(scenario())
    assert passes == 3  # 2 + 2 + 1
    assert sorted(c.batch_size for c in choices) == [1, 2, 2, 2, 2]
    assert sum(1 for c in choices if c.trigger == "size") == 4


def test_cancelled_client_dropped_before_inference():
    async def scenario():
        batcher = InferenceBatcher(_model(), ServeConfig(max_batch=8))
        await batcher.start()
        doomed = asyncio.ensure_future(
            batcher.submit(random_ksat(12, 40, seed=0))
        )
        await asyncio.sleep(0)  # let it enqueue
        doomed.cancel()
        survivor = await batcher.submit(random_ksat(12, 40, seed=1))
        await batcher.stop()
        with pytest.raises(asyncio.CancelledError):
            await doomed
        return survivor, batcher.passes, batcher.served

    survivor, passes, served = asyncio.run(scenario())
    assert survivor.batch_size == 1  # the cancelled member never counted
    assert passes == 1
    assert served == 1


def test_batched_choice_matches_per_instance_prediction():
    model = _model()
    cnfs = _burst(6)

    async def scenario():
        batcher = InferenceBatcher(model, ServeConfig(max_batch=6))
        await batcher.start()
        choices = await asyncio.gather(*[batcher.submit(c) for c in cnfs])
        await batcher.stop()
        return batcher.threshold, choices

    threshold, choices = asyncio.run(scenario())
    for cnf, choice in zip(cnfs, choices):
        expected = model.predict_proba(BipartiteGraph(cnf))
        assert choice.probability == pytest.approx(expected, abs=1e-9)
        assert choice.label == int(expected >= threshold)


def test_oversize_graph_skips_inference():
    async def scenario():
        model = _model()
        batcher = InferenceBatcher(
            model,
            ServeConfig(max_batch=4),
            DecisionRule.for_model(model, max_nodes=5),
        )
        await batcher.start()
        choice = await batcher.submit(random_ksat(20, 80, seed=0))
        await batcher.stop()
        return choice, batcher.passes

    choice, passes = asyncio.run(scenario())
    assert passes == 0
    assert choice.label == 0
    assert choice.policy == "default"
    assert not choice.used_model
    assert choice.probability is None


def test_stop_drains_queued_submissions():
    model = _GatedModel()

    async def scenario():
        batcher = InferenceBatcher(model, ServeConfig(max_batch=4))
        await batcher.start()
        holder = await _hold(batcher, model)
        waiters = [
            asyncio.ensure_future(batcher.submit(cnf)) for cnf in _burst(3)
        ]
        await asyncio.sleep(0)  # queued behind the held pass
        stopping = asyncio.ensure_future(batcher.stop())
        await asyncio.sleep(0)  # the stop sentinel queues behind them
        model.gate.set()
        await stopping
        return await asyncio.gather(holder, *waiters)

    choices = asyncio.run(scenario())
    assert len(choices) == 4
    assert all(c.label in (0, 1) for c in choices)


# ---------------------------------------------------------------------------
# service lifecycle


def test_burst_amortizes_and_matches_direct_solve():
    cnfs = _burst(8)
    budget = 20_000

    async def scenario():
        service = SolveService(
            _model(), ServeConfig(max_batch=8)
        )
        await service.start()
        requests = [
            service.submit(cnf, max_conflicts=budget) for cnf in cnfs
        ]
        done = await asyncio.gather(*[
            service.wait(request.id) for request in requests
        ])
        await service.stop()
        return done, service.batcher.passes

    done, passes = asyncio.run(scenario())
    assert passes < len(done)  # the acceptance criterion, measured
    assert max(request.batch_size for request in done) > 1
    for cnf, request in zip(cnfs, done):
        assert request.state is RequestState.DONE
        direct = Solver(
            cnf,
            policy=get_policy(request.policy),
        ).solve(max_conflicts=budget)
        assert request.outcome.status is direct.status
        assert request.outcome.propagations == direct.stats.propagations
        assert request.outcome.conflicts == direct.stats.conflicts


def test_admission_rejects_when_queue_full():
    async def scenario():
        service = SolveService(
            _model(),
            ServeConfig(max_batch=4, max_queue_depth=2),
        )
        await service.start()
        service.submit(random_ksat(10, 30, seed=0))
        service.submit(random_ksat(11, 33, seed=1))
        with pytest.raises(AdmissionError):
            service.submit(random_ksat(12, 36, seed=2))
        stats = service.stats()
        await service.stop(drain=False)
        return stats

    stats = asyncio.run(scenario())
    assert stats["rejected"] == 1
    assert stats["requests"] == 2


def test_budgets_are_clamped_to_the_cap():
    async def scenario():
        service = SolveService(
            None,
            ServeConfig(
                default_max_conflicts=777,
                max_conflicts_cap=1_000,
            ),
        )
        await service.start()
        defaulted = service.submit(random_ksat(10, 30, seed=0))
        clamped = service.submit(
            random_ksat(11, 33, seed=1), max_conflicts=10**9
        )
        floored = service.submit(
            random_ksat(12, 36, seed=2), max_conflicts=-5
        )
        await asyncio.gather(*[
            service.wait(r.id) for r in (defaulted, clamped, floored)
        ])
        await service.stop()
        return defaulted, clamped, floored

    defaulted, clamped, floored = asyncio.run(scenario())
    assert defaulted.max_conflicts == 777
    assert clamped.max_conflicts == 1_000
    assert floored.max_conflicts == 1


def test_graceful_shutdown_drains_inflight_requests():
    async def scenario():
        service = SolveService(
            _model(), ServeConfig(max_batch=8)
        )
        await service.start()
        requests = [service.submit(cnf) for cnf in _burst(4)]
        await service.stop(drain=True)  # immediately: nothing solved yet
        return requests, service.stats()

    requests, stats = asyncio.run(scenario())
    assert all(r.state is RequestState.DONE for r in requests)
    assert all(r.outcome is not None for r in requests)
    assert stats["responses"] == 4
    assert stats["cancelled"] == 0


def test_restart_resumes_from_journal(tmp_path):
    journal = str(tmp_path / "serve-journal.jsonl")
    cnfs = _burst(3)

    async def round_trip():
        service = SolveService(
            _model(),
            ServeConfig(max_batch=4, journal=journal),
        )
        await service.start()
        requests = [
            service.submit(cnf, max_conflicts=5_000) for cnf in cnfs
        ]
        done = await asyncio.gather(*[
            service.wait(request.id) for request in requests
        ])
        await service.stop()
        return done

    first = asyncio.run(round_trip())
    assert all(not r.outcome.resumed for r in first)

    second = asyncio.run(round_trip())  # fresh service, same journal
    for before, after in zip(first, second):
        assert after.outcome.resumed  # answered from disk, not re-solved
        assert after.outcome.status is before.outcome.status
        assert after.outcome.propagations == before.outcome.propagations


def test_stop_closes_journal(tmp_path):
    async def scenario():
        service = SolveService(
            _model(),
            ServeConfig(journal=str(tmp_path / "journal.jsonl")),
        )
        await service.start()
        await service.wait(service.submit(_burst(1)[0]).id)
        handle = service.runner.journal._handle
        assert handle is not None and not handle.closed
        await service.stop()
        return handle

    assert asyncio.run(scenario()).closed


def test_cancel_inflight_request():
    model = _GatedModel()

    async def scenario():
        service = SolveService(model, ServeConfig(max_batch=8))
        await service.start()
        holder = await _hold(service.batcher, model)
        try:
            request = service.submit(random_ksat(12, 40, seed=0))
            await asyncio.sleep(0.02)
            assert service.cancel(request.id)
            await request.done.wait()
            state = request.state
            stats = service.stats()
        finally:
            model.gate.set()
        await holder
        await service.stop()
        return state, stats, request

    state, stats, request = asyncio.run(scenario())
    assert state is RequestState.CANCELLED
    assert stats["cancelled"] == 1
    assert request.outcome is None
    assert request.http_code() == 200


def test_service_without_model_uses_default_policy():
    async def scenario():
        service = SolveService(None, ServeConfig())
        await service.start()
        request = service.submit(random_ksat(12, 40, seed=3))
        await service.wait(request.id)
        await service.stop()
        return request, service.batcher.passes

    request, passes = asyncio.run(scenario())
    assert passes == 0
    assert request.policy == "default"
    assert not request.used_model
    assert request.outcome.status.decided


# ---------------------------------------------------------------------------
# observability integration


def test_traced_burst_summarizes_as_service_report(tmp_path):
    cnfs = _burst(8)

    async def scenario(observer):
        service = SolveService(
            _model(),
            ServeConfig(max_batch=8),
            observer=observer,
        )
        await service.start()
        requests = [
            service.submit(cnf, max_conflicts=5_000) for cnf in cnfs
        ]
        await asyncio.gather(*[service.wait(r.id) for r in requests])
        await service.stop()

    observer = start_run(
        str(tmp_path), "serve", argv=[], config={}, metrics=True
    )
    asyncio.run(scenario(observer))
    observer.finish(exit_code=0)

    summary = summarize_traces([observer.sink.path])
    assert not summary["errors"]  # every serve-* event passes the schema
    service = summary["service"]
    assert service["admitted"] == 8
    assert service["responses"] == 8
    assert service["inference_passes"] < 8
    assert service["max_batch"] > 1
    histogram = summary["metrics_by_run"][observer.run_id]["histograms"]
    assert histogram["serve.batch_size"]["count"] == service["inference_passes"]
    assert histogram["serve.batch_size"]["max"] > 1


# ---------------------------------------------------------------------------
# HTTP front door


async def _http_service(model=None, **cfg):
    service = SolveService(
        model or _model(),
        ServeConfig(**{"max_batch": 8, **cfg}),
    )
    server, _ = await start_service(service, port=0)
    host, port = bound_address(server)
    return service, server, ServeClient(host, port)


async def _http_teardown(service, server):
    server.close()
    await server.wait_closed()
    await service.stop()


def test_http_solve_roundtrip_matches_direct_solve():
    cnf = random_ksat(14, 50, seed=7)

    async def scenario():
        service, server, client = await _http_service()
        try:
            reply = await client.solve(to_dimacs(cnf), max_conflicts=5_000)
        finally:
            await _http_teardown(service, server)
        return reply

    reply = asyncio.run(scenario())
    assert reply.code == 200
    body = reply.json
    direct = Solver(
        cnf,
        policy=get_policy(body["policy"]),
    ).solve(max_conflicts=5_000)
    assert body["status"] == direct.status.value
    assert reply.code == http_code_for(direct.status)
    assert body["propagations"] == direct.stats.propagations
    if direct.status is Status.SATISFIABLE:
        assignment = body["model"]  # Model: list indexed by variable
        assert all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        )

    async def fire_and_forget():
        service, server, client = await _http_service()
        try:
            ticket = await client.solve(
                to_dimacs(cnf), max_conflicts=5_000, wait=False
            )
            snapshots = []
            async for snapshot in client.stream(ticket.json["id"]):
                snapshots.append(snapshot)
            status = await client.status(ticket.json["id"])
        finally:
            await _http_teardown(service, server)
        return ticket, snapshots, status

    ticket, snapshots, status = asyncio.run(fire_and_forget())
    assert ticket.code == 202
    assert snapshots[-1]["state"] == "DONE"
    assert snapshots[-1]["status"] == direct.status.value
    assert status.code == 200
    assert status.json["state"] == "DONE"


def test_healthz_reports_solver_engine():
    from repro.solver import kernel

    async def scenario():
        service, server, client = await _http_service()
        try:
            return await client.health()
        finally:
            await _http_teardown(service, server)

    reply = asyncio.run(scenario())
    assert reply.code == 200
    engine, reason = kernel.engine_info()
    assert reply.json["solver_engine"] == engine
    assert reply.json["solver_engine_reason"] == reason


def test_http_error_paths():
    model = _GatedModel()

    async def scenario():
        service, server, client = await _http_service(
            model, max_queue_depth=1
        )
        holder = await _hold(service.batcher, model)
        try:
            bad_json = await client._call("POST", "/solve", None)
            not_object = await client._call("POST", "/solve", [1, 2])
            missing = await client._call("POST", "/solve", {"wait": True})
            bad_dimacs = await client.solve("this is not dimacs")
            # One request parked behind the held pass fills the queue.
            await client.solve("p cnf 1 1\n1 0\n", wait=False)
            full = await client.solve("p cnf 1 1\n1 0\n")
            lost = await client.status("q-000000000000")
            no_route = await client._call("GET", "/nope")
            wrong_method = await client._call("GET", "/solve")
            health = await client.health()
        finally:
            model.gate.set()
            await holder
            await _http_teardown(service, server)
        return (bad_json, not_object, missing, bad_dimacs, full, lost,
                no_route, wrong_method, health)

    (bad_json, not_object, missing, bad_dimacs, full, lost, no_route,
     wrong_method, health) = asyncio.run(scenario())
    assert bad_json.code == 400
    assert not_object.code == 400
    assert missing.code == 400
    assert "dimacs" in missing.json["error"]
    assert bad_dimacs.code == 400
    assert full.code == 429
    assert lost.code == 404
    assert no_route.code == 404
    assert wrong_method.code == 405
    assert health.code == 200
    assert health.json["rejected"] == 1


def test_http_rejects_out_of_range_variables():
    """A literal or variable count past the solver's int32 encoding is a
    400 on both front doors, answered before any solver state is sized."""
    big = "p cnf 2 1\n1 1073741824 0\n"

    async def scenario():
        service, server, client = await _http_service()
        try:
            solve = await client.solve(big)
            header = await client.solve("p cnf 1073741824 1\n1 0\n")
            session = await client.session_create(dimacs=big)
            empty = await client.session_create(num_vars=2**30)
            health = await client.health()
        finally:
            await _http_teardown(service, server)
        return solve, header, session, empty, health

    solve, header, session, empty, health = asyncio.run(scenario())
    for reply in (solve, header, session, empty):
        assert reply.code == 400
        assert "out of range (max 1073741823)" in reply.json["error"]
    assert "line 2: variable 1073741824" in solve.json["error"]
    assert "line 1: variable count 1073741824" in header.json["error"]
    assert health.json["sessions"]["created"] == 0


def test_http_timeout_maps_to_504():
    # A hard formula under a microscopic wall budget: the supervisor
    # kills the attempt and the taxonomy surfaces as a 504 response.
    from repro.cnf import pigeonhole

    async def scenario():
        service, server, client = await _http_service(
            task_timeout=0.05
        )
        try:
            reply = await client.solve(to_dimacs(pigeonhole(7)))
        finally:
            await _http_teardown(service, server)
        return reply

    reply = asyncio.run(scenario())
    assert reply.code == 504
    assert reply.json["status"] == "TIMEOUT"


def test_http_disconnect_cancels_held_request():
    model = _GatedModel()

    async def scenario():
        service, server, client = await _http_service(model)
        holder = await _hold(service.batcher, model)
        try:
            # Speak the protocol by hand so the connection can be torn
            # down mid-wait.
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            writer.write(client._request_bytes(
                "POST", "/solve",
                {"dimacs": "p cnf 2 1\n1 2 0\n", "wait": True},
            ))
            await writer.drain()
            for _ in range(100):
                if service.active:
                    break
                await asyncio.sleep(0.01)
            assert service.active == 1
            writer.close()  # client disconnects while queued
            await writer.wait_closed()
            for _ in range(100):
                if service.stats()["cancelled"]:
                    break
                await asyncio.sleep(0.01)
            stats = service.stats()
        finally:
            model.gate.set()
            await holder
            await _http_teardown(service, server)
        return stats

    stats = asyncio.run(scenario())
    assert stats["cancelled"] == 1
    assert stats["responses"] == 0


def test_cli_serve_subprocess_smoke(tmp_path):
    """`repro serve` end to end: burst, SIGINT drain, valid trace."""
    import re
    import signal
    import subprocess
    import sys

    from repro.obs import validate_traces

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--max-batch", "4",
         "--hidden-dim", "8", "--trace", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"no listen banner, got {banner!r}"
        port = int(match.group(1))

        async def burst():
            client = ServeClient("127.0.0.1", port)
            await client.wait_ready()
            return await asyncio.gather(*[
                client.solve(to_dimacs(cnf), max_conflicts=5_000)
                for cnf in _burst(4)
            ])

        replies = asyncio.run(burst())
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert all(reply.code == 200 for reply in replies)
    assert all(reply.json["status"] in ("SATISFIABLE", "UNSATISFIABLE",
                                        "UNKNOWN") for reply in replies)
    assert "c serve stopped" in out
    traces = sorted(tmp_path.glob("serve-*.jsonl"))
    assert traces, "no trace written"
    assert not validate_traces(traces)


def test_serve_request_snapshot_and_states():
    cnf = parse_dimacs("p cnf 1 1\n1 0\n")
    request = ServeRequest(cnf=cnf, max_conflicts=10)
    assert request.id.startswith("q-")
    assert not request.state.terminal
    snapshot = request.snapshot()
    assert snapshot["state"] == "QUEUED"
    assert "status" not in snapshot
    watched: "asyncio.Queue" = None

    async def watch():
        queue: "asyncio.Queue" = asyncio.Queue()
        request.watchers.append(queue)
        request.transition(RequestState.INFERRING)
        request.transition(RequestState.CANCELLED)
        return queue

    watched = asyncio.run(watch())
    assert request.done.is_set()
    assert watched.get_nowait()["state"] == "INFERRING"
    assert watched.get_nowait()["state"] == "CANCELLED"
    assert request.http_code() == 200


def test_http_metrics_prometheus_text():
    cnf = random_ksat(12, 40, seed=3)

    async def scenario():
        service, server, client = await _http_service()
        try:
            await client.solve(to_dimacs(cnf), max_conflicts=2_000)
            return await client.metrics_text()
        finally:
            await _http_teardown(service, server)

    prom = asyncio.run(scenario())
    # /metrics is Prometheus text exposition 0.0.4.
    assert prom.code == 200
    assert prom.headers["content-type"].startswith("text/plain")
    assert "version=0.0.4" in prom.headers["content-type"]
    assert prom.json is None
    assert "# TYPE serve_requests gauge" in prom.text
    assert "serve_requests 1" in prom.text
    assert "serve_responses 1" in prom.text
    assert "serve_accepting 1" in prom.text


def test_http_metrics_includes_observer_registry():
    cnf = random_ksat(12, 40, seed=4)

    async def scenario(observer):
        service = SolveService(
            _model(),
            ServeConfig(max_batch=8),
            observer=observer,
        )
        server, _ = await start_service(service, port=0)
        host, port = bound_address(server)
        client = ServeClient(host, port)
        try:
            await client.solve(to_dimacs(cnf), max_conflicts=2_000)
            return await client.metrics_text()
        finally:
            await _http_teardown(service, server)

    from repro.obs import MetricsRegistry, Observer

    observer = Observer(registry=MetricsRegistry(enabled=True))
    reply = asyncio.run(scenario(observer))
    # Registry histograms render as cumulative buckets with +Inf.
    assert 'serve_batch_size_bucket{le="+Inf"} 1' in reply.text
    assert "serve_batch_size_count 1" in reply.text
    assert "# TYPE serve_request_wall_seconds histogram" in reply.text
    # Each fact is exported once: the /healthz totals as serve_* gauges,
    # never again as a registry instrument.
    families = re.findall(r"^# TYPE (\S+) ", reply.text, re.MULTILINE)
    duplicated = sorted({n for n in families if families.count(n) > 1})
    assert not duplicated, duplicated
    assert "# TYPE serve_requests gauge" in reply.text
