"""Incremental sessions: the differential battery that locks them down.

The claims under test, each pinned here:

* **Warm = fresh** — a :class:`SolverSession` driven through any random
  add-clause/assumption schedule returns, at every solve step, a status
  bit-identical to a *fresh* solver on the accumulated formula under the
  same assumptions (hypothesis property);
* **Failed-assumption cores are consistent** — every
  UNSAT-under-assumptions answer carries a core that is a subset of the
  assumptions and still renders the formula UNSAT on its own;
* **IPASIR semantics** — assumptions never persist across calls, added
  clauses always do, budgets are per-call, and ``add`` after an UNSAT
  answer keeps the session usable (the stale-state regression);
* **Drift-gated selection** — :class:`SelectorSession` reuses the
  cached embedding under small feature deltas, recomputes past the
  threshold, and never shares cache across sessions;
* **Serve sessions** — the manager enforces TTL eviction and the
  session-capacity 429, and the HTTP surface round-trips a sticky
  session end to end;
* **The incremental fuzz oracle** — clean on sound solvers, and its
  checks actually fire when a buggy session is injected.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, random_ksat, to_dimacs
from repro.fuzz import OracleContext
from repro.fuzz.oracles import IncrementalOracle, derive_schedule
from repro.models import NeuroSelect
from repro.selection import (
    DEFAULT_DRIFT_THRESHOLD,
    SelectorSession,
    feature_distance,
)
from repro.serve import AdmissionError, ServeConfig, SolveService
from repro.serve.http import bound_address, start_service
from repro.serve.sessions import SessionManager
from repro.solver import Solver, Status
from repro.solver.session import SolverSession, replay_schedule


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def schedules(draw, max_vars: int = 6, max_steps: int = 8):
    """A seed formula plus a random add/solve schedule over it."""
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=3)
    seed_clauses = draw(st.lists(clause, min_size=0, max_size=10))
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), clause),
                st.tuples(
                    st.just("solve"),
                    st.lists(literal, min_size=0, max_size=3),
                ),
            ),
            min_size=1,
            max_size=max_steps,
        )
    )
    # Always end on a solve so every added clause gets exercised.
    steps = list(steps) + [("solve", draw(st.lists(literal, max_size=2)))]
    return CNF(seed_clauses, num_vars=num_vars), steps


def _fresh_status(cnf: CNF, assumptions) -> Status:
    """Fresh-solver status on the accumulated formula (the reference)."""
    return Solver(cnf.copy()).solve(assumptions=assumptions).status


# ---------------------------------------------------------------------------
# the differential battery


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_warm_session_matches_fresh_resolve(case):
    """At every solve step, warm status == fresh status."""
    seed, steps = case
    session = SolverSession(seed.copy())
    accumulated = seed.copy()
    for op, lits in steps:
        if op == "add":
            accumulated.add_clause(lits)
            session.add(*lits)
            continue
        status = session.solve(assumptions=lits).status
        assert status is _fresh_status(accumulated, lits), (
            f"warm session diverged from fresh re-solve "
            f"under assumptions {lits}"
        )


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_failed_cores_are_consistent(case):
    """Every failed-assumption core is a subset of the assumptions and
    keeps the formula UNSAT on its own."""
    seed, steps = case
    session = SolverSession(seed.copy())
    accumulated = seed.copy()
    for op, lits in steps:
        if op == "add":
            accumulated.add_clause(lits)
            session.add(*lits)
            continue
        result = session.solve(assumptions=lits)
        if result.core is None:
            continue
        assert result.status is Status.UNSATISFIABLE
        assert set(result.core) <= set(lits)
        assert session.failed() == list(result.core)
        again = Solver(accumulated.copy()).solve(
            assumptions=list(result.core)
        )
        assert again.status is Status.UNSATISFIABLE, (
            f"core {result.core} insufficient"
        )


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_replay_schedule_reproduces_statuses(case):
    """`replay_schedule` (the oracle's driver) equals the manual loop."""
    seed, steps = case
    manual = SolverSession(seed.copy())
    manual_statuses = []
    for op, lits in steps:
        if op == "add":
            manual.add(*lits)
        else:
            manual_statuses.append(manual.solve(assumptions=lits).status)
    replayed = replay_schedule(
        SolverSession(seed.copy()), steps
    )
    assert [r.status for r in replayed] == manual_statuses


# ---------------------------------------------------------------------------
# IPASIR semantics


class TestSessionSemantics:
    def test_assumptions_do_not_persist(self):
        session = SolverSession(CNF([[1, 2]], num_vars=2))
        session.assume(-1, -2)
        assert session.solve().status is Status.UNSATISFIABLE
        # Next call runs without the assumptions: SAT again.
        assert session.solve().status is Status.SATISFIABLE

    def test_explicit_assumptions_replace_queued(self):
        session = SolverSession(CNF([[1, 2]], num_vars=2))
        session.assume(-1, -2)
        result = session.solve(assumptions=[1])
        assert result.status is Status.SATISFIABLE
        assert result.model[1] is True
        # The queued set was consumed, not merely shadowed.
        assert session.solve().status is Status.SATISFIABLE

    def test_added_clauses_persist(self):
        session = SolverSession(3)
        session.add(1, 2).add(-1, 3)
        assert session.solve().status is Status.SATISFIABLE
        session.add(-2).add(-3)
        assert session.solve().status is Status.UNSATISFIABLE
        assert session.added_clauses == 4

    def test_failed_membership(self):
        session = SolverSession(CNF([[1, 2], [-1, 2]], num_vars=2))
        result = session.solve(assumptions=[-2])
        assert result.status is Status.UNSATISFIABLE
        assert session.failed(-2) is True
        assert session.failed(2) is False
        assert session.failed() == [-2]

    def test_assume_rejects_bad_literals(self):
        session = SolverSession(2)
        with pytest.raises(ValueError):
            session.assume(0)
        with pytest.raises(ValueError):
            session.assume(3)

    def test_budgets_are_per_call(self):
        cnf = random_ksat(60, 258, seed=5)
        session = SolverSession(cnf)
        baseline = Solver(cnf.copy()).solve(max_conflicts=50)
        # Burn budget, then give a later call the same per-call budget a
        # fresh solver got: the session must not have *less* room.
        session.solve(max_conflicts=10)
        result = session.solve(max_conflicts=50)
        if baseline.status.decided:
            assert result.status.decided

    def test_add_after_unsat_under_assumptions_keeps_session_usable(self):
        """The stale-state regression: an UNSAT-under-assumptions answer
        must not poison later adds/solves."""
        session = SolverSession(CNF([[1, 2], [-1, 2]], num_vars=3))
        assert session.solve(assumptions=[-2]).status is Status.UNSATISFIABLE
        session.add(2, 3)  # grow the formula *after* the UNSAT answer
        result = session.solve()
        assert result.status is Status.SATISFIABLE
        assert session.cnf.check_model(result.model)
        # And a genuine (assumption-free) UNSAT is still reachable.
        session.add(-2)
        assert session.solve().status is Status.UNSATISFIABLE

    def test_add_after_hard_unsat_stays_unsat(self):
        """Once the formula itself is UNSAT, it stays UNSAT through any
        further adds (monotonicity) without raising."""
        session = SolverSession(CNF([[1], [-1]], num_vars=2))
        assert session.solve().status is Status.UNSATISFIABLE
        session.add(2)
        assert session.solve().status is Status.UNSATISFIABLE
        assert session.solve(assumptions=[2]).status is Status.UNSATISFIABLE

    def test_warm_session_reuses_learned_state(self):
        """Consecutive solves on a warm session spend no extra conflicts
        re-deriving what the first call learned (the warm-restart win)."""
        cnf = random_ksat(40, 160, seed=9)
        session = SolverSession(cnf)
        first = session.solve()
        assert first.status is Status.SATISFIABLE
        conflicts_before = session.solver.stats.conflicts
        second = session.solve()
        assert second.status is Status.SATISFIABLE
        # Saved phases steer straight back to a model: no new conflicts.
        assert session.solver.stats.conflicts == conflicts_before


# ---------------------------------------------------------------------------
# drift-gated selection


def _features_cnf(num_clauses: int = 60, seed: int = 1) -> CNF:
    return random_ksat(20, num_clauses, seed=seed)


class _CountingModel:
    """Stub model: counts forward passes, returns a fixed probability."""

    decision_threshold = 0.5

    def __init__(self, probability: float = 0.9):
        self.probability = probability
        self.calls = 0

    def predict_proba(self, graph) -> float:
        self.calls += 1
        return self.probability


class TestSelectorSession:
    def test_identical_formula_reuses_embedding(self):
        model = _CountingModel()
        session = SelectorSession(model)
        cnf = _features_cnf()
        first = session.select(cnf)
        second = session.select(cnf)
        assert model.calls == 1
        assert first.reused is False and second.reused is True
        assert second.policy == first.policy
        assert session.stats() == {
            "selections": 2,
            "inference_passes": 1,
            "embedding_reuses": 1,
        }

    def test_small_delta_reuses_large_delta_recomputes(self):
        model = _CountingModel()
        session = SelectorSession(model)
        cnf = _features_cnf(num_clauses=400)
        session.select(cnf)
        # Two extra 3-clauses on 400: far under the 10% drift threshold
        # on every dimension (same clause length keeps min/max stable).
        small = cnf.copy()
        small.add_clause([1, 2, 3])
        small.add_clause([-4, 5, 6])
        assert session.select(small).reused is True
        assert model.calls == 1
        # Doubling the clause count: way past the threshold.
        big = cnf.copy()
        for i in range(400):
            big.add_clause([1 + (i % 19), -(2 + (i % 17))])
        selection = session.select(big)
        assert selection.reused is False
        assert selection.distance > DEFAULT_DRIFT_THRESHOLD
        assert model.calls == 2

    def test_drift_reference_is_last_embedded_snapshot(self):
        """Chained sub-threshold deltas cannot creep past the threshold:
        distance is measured against the *embedded* formula."""
        model = _CountingModel()
        session = SelectorSession(model, drift_threshold=0.05)
        base = _features_cnf(num_clauses=200)
        session.select(base)
        drifted = base.copy()
        recomputes = 0
        for i in range(40):
            drifted.add_clause([1 + (i % 19), -(2 + (i % 17))])
            if not session.select(drifted).reused:
                recomputes += 1
        # 40 single-clause steps on 200 clauses is ~20% total drift:
        # chained reuse would never recompute; snapshot-anchored must.
        assert recomputes >= 1
        assert model.calls == 1 + recomputes

    def test_cache_never_shared_across_sessions(self):
        model = _CountingModel()
        cnf = _features_cnf()
        a = SelectorSession(model)
        b = SelectorSession(model)
        a.select(cnf)
        selection = b.select(cnf)
        assert selection.reused is False
        assert model.calls == 2
        assert a.id != b.id

    def test_invalidate_forces_recompute(self):
        model = _CountingModel()
        session = SelectorSession(model)
        cnf = _features_cnf()
        session.select(cnf)
        session.invalidate()
        assert session.select(cnf).reused is False
        assert model.calls == 2

    def test_threshold_zero_always_recomputes_on_any_change(self):
        model = _CountingModel()
        session = SelectorSession(model, drift_threshold=0.0)
        cnf = _features_cnf()
        session.select(cnf)
        changed = cnf.copy()
        changed.add_clause([1, -2])
        assert session.select(changed).reused is False
        # ... but a truly identical formula still reuses (distance 0).
        assert session.select(changed).reused is True

    def test_no_model_defaults_without_caching_model_calls(self):
        session = SelectorSession(None)
        selection = session.select(_features_cnf())
        assert selection.policy == "default"
        assert selection.used_model is False
        assert session.select(_features_cnf()).reused is True

    def test_real_model_end_to_end(self):
        session = SelectorSession(NeuroSelect(hidden_dim=8, seed=0))
        cnf = _features_cnf()
        first = session.select(cnf)
        assert first.used_model is True
        assert first.probability is not None
        assert session.select(cnf).reused is True
        assert session.inference_passes == 1

    def test_feature_distance_basics(self):
        assert feature_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert feature_distance([110.0, 2.0], [100.0, 2.0]) == pytest.approx(
            0.1
        )
        # Sub-unit dimensions are compared absolutely (denominator >= 1).
        assert feature_distance([0.5, 0.0], [0.25, 0.0]) == pytest.approx(
            0.25
        )
        with pytest.raises(ValueError):
            feature_distance([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# the incremental fuzz oracle


#: The chain trap: its derived schedule is known to hit
#: UNSAT-under-assumptions (conflicting endpoints).
CHAIN = CNF([[-1, 2], [-2, 3], [-3, 4], [-4, 5], [-5, 6]], num_vars=6)


class TestIncrementalOracle:
    def test_derived_schedule_is_deterministic_and_well_formed(self):
        cnf = random_ksat(10, 30, seed=4)
        a, b = derive_schedule(cnf), derive_schedule(cnf)
        assert a == b
        assert a[0] == ("solve", [])
        assert a[-1][0] == "solve" and a[-1][1]
        for op, lits in a:
            assert op in ("add", "solve")
            assert all(lit != 0 and abs(lit) <= 10 for lit in lits)

    def test_empty_formula_has_no_schedule(self):
        assert derive_schedule(CNF(clauses=[], num_vars=0)) == []

    def test_clean_on_sound_solver(self):
        oracle = IncrementalOracle()
        for seed in range(3):
            cnf = random_ksat(8, 28, seed=seed)
            assert oracle.check(cnf, OracleContext()) == []
        assert oracle.check(CHAIN, OracleContext()) == []

    def test_detects_core_corruption(self):
        """A session whose failed cores contain junk literals trips the
        core-not-assumptions check."""

        class LyingSession(SolverSession):
            def solve(self, assumptions=None, **kwargs):
                result = super().solve(assumptions=assumptions, **kwargs)
                if result.core is not None:
                    result.core = [999]
                return result

        oracle = IncrementalOracle()
        oracle.session_factory = lambda cnf: LyingSession(cnf.copy())
        found = oracle.check(CHAIN, OracleContext())
        assert any(d.kind == "core-not-assumptions" for d in found)

    def test_detects_insufficient_core(self):
        """A session that drops the load-bearing literals from its cores
        trips the core-insufficient check."""

        class ShrinkingSession(SolverSession):
            def solve(self, assumptions=None, **kwargs):
                result = super().solve(assumptions=assumptions, **kwargs)
                if result.core:
                    result.core = []
                return result

        oracle = IncrementalOracle()
        oracle.session_factory = lambda cnf: ShrinkingSession(cnf.copy())
        found = oracle.check(CHAIN, OracleContext())
        assert any(d.kind == "core-insufficient" for d in found)

    def test_detects_status_flip(self):
        """A session that lies UNSAT→SAT trips the warm-vs-fresh status
        check."""

        class FlippingSession(SolverSession):
            def solve(self, assumptions=None, **kwargs):
                result = super().solve(assumptions=assumptions, **kwargs)
                if result.status is Status.UNSATISFIABLE and result.core:
                    result.status = Status.SATISFIABLE
                    result.core = None
                return result

        oracle = IncrementalOracle()
        oracle.session_factory = lambda cnf: FlippingSession(cnf.copy())
        found = oracle.check(CHAIN, OracleContext())
        assert any(d.kind == "status-mismatch" for d in found)

    def test_large_formulas_skip_the_schedule(self):
        oracle = IncrementalOracle()
        oracle.schedule_max_vars = 5
        fired = []
        oracle.session_factory = lambda cnf: fired.append(cnf) or (
            SolverSession(cnf.copy())
        )
        assert oracle.check(random_ksat(8, 28, seed=1), OracleContext()) == []
        assert fired == []


# ---------------------------------------------------------------------------
# serve sessions: manager semantics


def _manager(model=None, **cfg) -> SessionManager:
    return SessionManager(model, ServeConfig(**cfg))


class TestSessionManager:
    def test_create_solve_close(self):
        manager = _manager()
        session = manager.create(cnf=CNF([[1, 2], [-1, 3]], num_vars=3))

        async def scenario():
            first = await manager.solve(session, assumptions=[-2])
            second = await manager.solve(
                session, add=[[-3]], assumptions=[-2]
            )
            return first, second

        first, second = asyncio.run(scenario())
        assert first["status"] == "SATISFIABLE"
        assert second["status"] == "UNSATISFIABLE"
        assert set(second["failed"]) <= {-2}
        assert manager.close(session.id) is True
        assert manager.get(session.id) is None
        assert manager.stats()["closed"] == 1

    def test_capacity_rejects_with_admission_error(self):
        manager = _manager(max_sessions=2)
        manager.create(num_vars=2)
        manager.create(num_vars=2)
        with pytest.raises(AdmissionError) as err:
            manager.create(num_vars=2)
        assert err.value.reason == "sessions-full"
        assert err.value.retry_after is not None

    def test_ttl_eviction_is_lazy_and_counted(self):
        manager = _manager(session_ttl=30.0)
        session = manager.create(num_vars=2)
        # Backdate the last touch beyond the TTL; the next manager
        # access must evict it.
        session.last_used -= 31.0
        assert manager.get(session.id) is None
        stats = manager.stats()
        assert stats["active"] == 0
        assert stats["evicted"] == 1

    def test_eviction_frees_capacity(self):
        manager = _manager(max_sessions=1, session_ttl=30.0)
        first = manager.create(num_vars=2)
        first.last_used -= 31.0
        second = manager.create(num_vars=2)  # would 429 without eviction
        assert second.id != first.id

    def test_solver_error_does_not_kill_the_session(self):
        manager = _manager()
        session = manager.create(num_vars=2)

        async def scenario():
            with pytest.raises(ValueError):
                await manager.solve(session, add=[[5]])  # unknown variable
            return await manager.solve(session, add=[[1, 2]])

        payload = asyncio.run(scenario())
        assert payload["status"] == "SATISFIABLE"
        assert manager.get(session.id) is session

    def test_selection_drives_the_warm_solver_policy(self):
        manager = _manager(model=_CountingModel(probability=0.9))
        session = manager.create(cnf=random_ksat(20, 60, seed=1))

        async def scenario():
            return await manager.solve(session)

        payload = asyncio.run(scenario())
        assert payload["label"] == 1
        assert payload["policy"] == "frequency"
        assert session.solver.policy_name == "frequency"


# ---------------------------------------------------------------------------
# serve sessions: HTTP surface


async def _http_service(**cfg):
    service = SolveService(
        NeuroSelect(hidden_dim=8, seed=0),
        ServeConfig(**{"max_batch": 4, **cfg}),
    )
    server, _ = await start_service(service, port=0)
    host, port = bound_address(server)
    from repro.serve import ServeClient

    return service, server, ServeClient(host, port)


async def _http_teardown(service, server):
    server.close()
    await server.wait_closed()
    await service.stop()


class TestSessionHttp:
    def test_full_session_lifecycle(self):
        cnf = random_ksat(12, 40, seed=3)

        async def scenario():
            service, server, client = await _http_service()
            try:
                created = await client.session_create(dimacs=to_dimacs(cnf))
                sid = created.json["id"]
                solved = await client.session_solve(sid, max_conflicts=5000)
                again = await client.session_solve(
                    sid, assumptions=[1], max_conflicts=5000
                )
                info = await client.session_info(sid)
                closed = await client.session_close(sid)
                gone = await client.session_info(sid)
            finally:
                await _http_teardown(service, server)
            return created, solved, again, info, closed, gone

        created, solved, again, info, closed, gone = asyncio.run(scenario())
        assert created.code == 201
        assert solved.code == 200
        assert solved.json["status"] in ("SATISFIABLE", "UNSATISFIABLE")
        assert solved.json["reused_embedding"] is False
        assert again.code == 200
        assert again.json["reused_embedding"] is True  # identical formula
        assert info.code == 200
        assert info.json["solves"] == 2
        assert closed.code == 200
        assert gone.code == 404

    def test_session_capacity_http_429(self):
        async def scenario():
            service, server, client = await _http_service(max_sessions=1)
            try:
                first = await client.session_create(num_vars=2)
                second = await client.session_create(num_vars=2)
            finally:
                await _http_teardown(service, server)
            return first, second

        first, second = asyncio.run(scenario())
        assert first.code == 201
        assert second.code == 429
        assert second.retry_after is not None

    def test_malformed_session_requests_400(self):
        async def scenario():
            service, server, client = await _http_service()
            try:
                bad_create = await client._call(
                    "POST", "/sessions", {"dimacs": "p cnf oops"}
                )
                # TTL and drift threshold are the service's, not the body's.
                override = await client._call(
                    "POST", "/sessions", {"num_vars": 2, "ttl": 5.0}
                )
                created = await client.session_create(num_vars=2)
                sid = created.json["id"]
                bad_add = await client._call(
                    "POST", f"/sessions/{sid}/solve", {"add": "nope"}
                )
                bad_var = await client.session_solve(sid, add=[[7]])
                still_alive = await client.session_solve(sid, add=[[1, 2]])
            finally:
                await _http_teardown(service, server)
            return bad_create, override, bad_add, bad_var, still_alive

        bad_create, override, bad_add, bad_var, still_alive = asyncio.run(
            scenario()
        )
        assert bad_create.code == 400
        assert override.code == 400 and "ttl" in override.json["error"]
        assert bad_add.code == 400
        assert bad_var.code == 400  # solver rejected; session survives
        assert still_alive.code == 200

    def test_healthz_reports_sessions(self):
        async def scenario():
            service, server, client = await _http_service()
            try:
                await client.session_create(num_vars=2)
                health = await client.health()
            finally:
                await _http_teardown(service, server)
            return health

        health = asyncio.run(scenario())
        assert health.json["sessions"]["active"] == 1
        assert health.json["sessions"]["created"] == 1
