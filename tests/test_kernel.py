"""The compiled conflict loop against the pure-Python loop.

Every case runs twice, once per engine (switched through the private
``kernel._FORCE_PYTHON`` seam), and the two runs must agree exactly:
status, model, every statistics counter, the DRAT text, the Eq. (2)
per-variable counters, failed-assumption cores, metrics histograms and
the full state a reader finds in the solver's Python objects.  The
build tests drive the loader against temporary directories.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import random
import shutil
from pathlib import Path

import pytest

from repro.cnf import graph_coloring, pigeonhole, random_ksat
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.policies import get_policy
from repro.solver import ProofLog, Solver, SolverSession, kernel
from tests.test_solver_internals_audit import audit_arena
from tests.test_solver_solver import PINNED_INSTANCES, PINNED_SEARCH, _REDUCE_STRESS

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("c", "python")

requires_kernel = pytest.mark.skipif(
    kernel.load() is None, reason="C kernel unavailable (cffi, compiler or build)"
)


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """Run the test once per engine."""
    if request.param == "c" and kernel.load() is None:
        pytest.skip("C kernel unavailable")
    monkeypatch.setattr(kernel, "_FORCE_PYTHON", request.param == "python")
    return request.param


def on_both(monkeypatch, fn):
    """``{engine: fn()}`` with ``fn`` run under each engine."""
    out = {}
    for name in ENGINES:
        monkeypatch.setattr(kernel, "_FORCE_PYTHON", name == "python")
        out[name] = fn()
    return out


def test_kernel_loads_when_toolchain_present():
    """CI must not pass on a silent fallback to the Python loop."""
    has_cffi = importlib.util.find_spec("cffi") is not None
    if not (has_cffi and shutil.which("gcc")):
        pytest.skip("cffi or gcc missing: the fallback is the expected engine")
    assert kernel.load() is not None, kernel._state[1]


def test_seam_selects_python_loop(monkeypatch):
    monkeypatch.setattr(kernel, "_FORCE_PYTHON", True)
    assert Solver(pigeonhole(3))._engine is None
    assert kernel.engine_info() == ("python", "kernel disabled")


# ---------------------------------------------------------------------------
# differential: effort counters, hashes, frequencies, histograms, state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "instance, policy", sorted(PINNED_SEARCH), ids=lambda v: str(v)
)
def test_pinned_search_on_both_engines(engine, instance, policy):
    make_cnf, config = PINNED_INSTANCES[instance]
    result = Solver(make_cnf(), policy=get_policy(policy), config=config).solve(
        max_conflicts=1500
    )
    stats = result.stats
    observed = (
        result.status.name,
        stats.conflicts,
        stats.propagations,
        stats.decisions,
        stats.restarts,
        stats.reductions,
    )
    assert observed == PINNED_SEARCH[instance, policy]


def _assumptions(rng: random.Random, num_vars: int):
    """One to three random literals over distinct variables."""
    variables = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
    return [v if rng.random() < 0.5 else -v for v in variables]


def _cases():
    """At least 200 seeded (formula, config, policy, schedule) cases.

    A schedule is a list of ``("add", lits)`` / ``("solve", lits)``
    steps; one-shot cases are a single solve.
    """
    cases = []
    for seed in range(80):  # uniform 3-SAT near the threshold
        rng = random.Random(seed)
        n = rng.randint(20, 60)
        cnf = random_ksat(n, int(n * 4.26), seed=seed)
        assumed = _assumptions(rng, n) if seed % 2 else []
        cases.append((cnf, None, seed % 3 == 0, [("solve", assumed)], 3000))
    for holes in range(3, 7):  # pigeonhole, both configs
        for stress in (False, True):
            cases.append((pigeonhole(holes), _REDUCE_STRESS if stress else None,
                          stress, [("solve", [])], 600))
    for seed in range(40):  # flat 3-colouring
        rng = random.Random(1000 + seed)
        nodes = rng.randint(10, 25)
        cnf = graph_coloring(nodes, 3, 2.3, seed=seed, mode="flat")
        assumed = _assumptions(rng, cnf.num_vars) if seed % 2 else []
        cases.append((cnf, None, seed % 2 == 0, [("solve", assumed)], 3000))
    for seed in range(40):  # incremental add/solve schedules
        rng = random.Random(2000 + seed)
        n = rng.randint(15, 40)
        cnf = random_ksat(n, int(n * 3.5), seed=100 + seed)
        steps = []
        for _ in range(rng.randint(3, 8)):
            for _ in range(rng.randint(0, 3)):
                width = rng.randint(1, 4)
                steps.append(("add", _assumptions(rng, n)[:width]))
            steps.append(("solve", _assumptions(rng, n) if rng.random() < 0.6 else []))
        cases.append((cnf, _REDUCE_STRESS if seed % 4 == 0 else None,
                      seed % 3 == 0, steps, 500))
    for seed in range(40):  # reduction-heavy runs
        rng = random.Random(3000 + seed)
        n = rng.randint(70, 110)
        cnf = random_ksat(n, int(n * 4.26), seed=200 + seed)
        assumed = _assumptions(rng, n) if seed % 3 == 0 else []
        cases.append((cnf, _REDUCE_STRESS, seed % 2 == 1, [("solve", assumed)], 400))
    return cases


CASES = _cases()


def _fingerprint(case) -> "tuple[str, int]":
    cnf, config, frequency_policy, steps, budget = case
    proof = ProofLog()
    policy = get_policy("frequency" if frequency_policy else "default")
    solver = Solver(cnf, policy=policy, config=config, proof=proof)
    digest = hashlib.sha256()
    for op, lits in steps:
        if op == "add":
            solver.add_clause(lits)
            continue
        result = solver.solve(
            assumptions=lits, max_conflicts=solver.stats.conflicts + budget
        )
        digest.update(
            repr(
                (result.status.name, result.model, result.stats.to_dict(), result.core)
            ).encode()
        )
    digest.update(proof.text().encode())
    digest.update(repr(solver.propagator.lifetime_frequency).encode())
    return digest.hexdigest(), solver.stats.reductions


@requires_kernel
def test_seeded_corpus_hashes_match(monkeypatch):
    assert len(CASES) >= 200
    runs = on_both(monkeypatch, lambda: [_fingerprint(case) for case in CASES])
    mismatched = [
        i for i, (c, p) in enumerate(zip(runs["c"], runs["python"])) if c != p
    ]
    assert not mismatched, f"engines diverge on cases {mismatched[:10]}"
    assert sum(reductions for _, reductions in runs["c"]) > 0


def _bench_workloads():
    path = ROOT / "benchmarks" / "bench_bcp_micro.py"
    spec = importlib.util.spec_from_file_location("bench_bcp_micro", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.workloads()


@requires_kernel
@pytest.mark.parametrize("name", ["3sat", "mixed", "binary", "long"])
def test_frequency_arrays_match_on_bcp_workloads(monkeypatch, name):
    cnf = dict(_bench_workloads())[name]

    def run():
        solver = Solver(cnf, config=_REDUCE_STRESS)
        solver.solve(max_conflicts=200)
        return solver.propagator.lifetime_frequency, solver.stats.to_dict()

    runs = on_both(monkeypatch, run)
    assert runs["c"] == runs["python"], name


@requires_kernel
def test_metrics_histograms_match(monkeypatch):
    def run():
        registry = MetricsRegistry(enabled=True)
        solver = Solver(
            pigeonhole(6), config=_REDUCE_STRESS, observer=Observer(registry=registry)
        )
        solver.solve(max_conflicts=800)
        solver.add_clause([1, 2])
        solver.add_clause([-3])
        solver.solve(assumptions=[4], max_conflicts=1200)
        histograms = registry.snapshot()["histograms"]  # spans: wall time
        return {n: histograms[n] for n in ("bcp.batch_size", "solver.learned_glue")}

    runs = on_both(monkeypatch, run)
    assert runs["c"] == runs["python"]
    assert runs["c"]["bcp.batch_size"]["count"] > 0
    assert runs["c"]["solver.learned_glue"]["count"] > 0


class _EventLog(Observer):
    """An enabled observer that keeps events in memory."""

    def __init__(self):
        super().__init__(registry=MetricsRegistry(enabled=True))
        self.events = []

    def event(self, event, **fields):
        fields.pop("wall_seconds", None)
        self.events.append((event, fields))


@requires_kernel
def test_observer_events_match(monkeypatch):
    def run():
        observer = _EventLog()
        Solver(pigeonhole(6), config=_REDUCE_STRESS, observer=observer).solve(
            max_conflicts=900
        )
        return observer.events

    runs = on_both(monkeypatch, run)
    assert runs["c"] == runs["python"]
    kinds = {kind for kind, _ in runs["c"]}
    assert {"restart", "reduce"} <= kinds


def _state(solver):
    """A copy of everything a reader of the solver's Python objects sees."""
    arena, trail, watches = solver.clause_db, solver.trail, solver.watches
    decider, propagator, restarts = solver.decider, solver.propagator, solver.restarts
    return copy.deepcopy({
        "arena": (arena.data, arena.offset, arena.glue, arena.activity, arena.used,
                  arena.garbage, arena.frequency, arena.learned, arena.clause_inc,
                  arena.num_learned, arena.num_original),
        "trail": (trail.lit_values, trail.levels, trail.reasons, trail.trail,
                  trail.trail_lim, trail.qhead),
        "watches": (watches.binary, watches.ternary, watches.watches,
                    watches.n_binary, watches.n_ternary, watches.n_long),
        "decider": (decider.activity, decider.saved_phase, decider.var_inc,
                    decider._heap),
        "frequency": (propagator.frequency, propagator.lifetime_frequency),
        "restarts": (restarts._index, restarts._limit, restarts._conflicts),
        "reducer": (solver.reducer.limit, solver.reducer.last_deleted),
        "stats": solver.stats.to_dict(),
    })


@requires_kernel
@pytest.mark.parametrize("seed", range(6))
def test_python_objects_match_after_every_step(monkeypatch, seed):
    """Reading the state between solves sees what the Python loop left,
    and reading it (a pull) does not perturb the search that follows."""

    def run():
        rng = random.Random(seed)
        session = SolverSession(
            random_ksat(90, 380, seed=seed),
            policy=get_policy("frequency" if seed % 2 else "default"),
            config=_REDUCE_STRESS,
        )
        states = []
        for step in range(6):
            session.add(*_assumptions(rng, 90))
            result = session.solve(
                assumptions=_assumptions(rng, 90) if step % 2 else [],
                max_conflicts=150,
            )
            if step % 2 == 0:  # read on alternate steps only
                states.append((result.status.name, result.core, _state(session.solver)))
        states.append(_state(session.solver))
        return states

    runs = on_both(monkeypatch, run)
    assert runs["c"] == runs["python"]


@pytest.mark.parametrize(
    "make",
    [lambda: random_ksat(150, 645, seed=2), lambda: pigeonhole(7)],
    ids=["ksat150", "php7"],
)
def test_audit_after_kernel_solves(engine, make):
    solver = Solver(make(), config=_REDUCE_STRESS)
    solver.solve(max_conflicts=1200)
    assert solver.stats.reductions > 0
    audit_arena(solver)
    solver.add_clause([1, -2, 3])
    solver.solve(assumptions=[-1], max_conflicts=1600)
    audit_arena(solver)


# ---------------------------------------------------------------------------
# the build
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader with no cached kernel and ``tmp_path`` build dirs."""
    first, second = tmp_path / "pkg", tmp_path / "cache"
    monkeypatch.setattr(kernel, "_state", None)
    monkeypatch.setattr(kernel, "_FORCE_PYTHON", False)
    monkeypatch.setattr(kernel, "_build_dirs", lambda: [first, second])
    return first, second


def _built(directory: Path):
    return sorted(p.name for p in directory.glob("_cdcl_kernel_*"))


@requires_kernel
def test_stale_build_is_never_loaded(fresh_loader, monkeypatch, tmp_path):
    first, _ = fresh_loader
    first.mkdir()
    suffix = kernel.sysconfig.get_config_var("EXT_SUFFIX")
    stale = first / ("_cdcl_kernel_0000000000000000" + suffix)
    stale.write_bytes(b"not a shared object")
    # The source changes: the module name (and so the file) must too.
    edited = tmp_path / "_kernel.c"
    edited.write_text(kernel._SOURCE.read_text() + "\n/* edited */\n")
    old_name = kernel.module_name()
    monkeypatch.setattr(kernel, "_SOURCE", edited)
    new_name = kernel.module_name()
    assert new_name != old_name
    module = kernel.load()
    assert module is not None
    assert Path(module.__file__).name == new_name + suffix
    assert _built(first) == sorted([stale.name, new_name + suffix])
    assert not list(first.glob(".kernel-build-*")), "temp build dir left behind"


@requires_kernel
def test_read_only_package_dir_falls_back_to_cache(fresh_loader, monkeypatch):
    first, second = fresh_loader
    writable = kernel._writable
    monkeypatch.setattr(kernel, "_writable", lambda d: d != first and writable(d))
    module = kernel.load()
    assert module is not None
    assert Path(module.__file__).parent == second
    assert not first.exists() or not _built(first)


def test_missing_compiler_falls_back_quietly(fresh_loader, monkeypatch, capfd):
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    assert kernel.load() is None
    engine, reason = kernel.engine_info()
    if importlib.util.find_spec("cffi") is None:
        assert (engine, reason) == ("python", "cffi not importable")
    else:
        assert (engine, reason) == ("python", "no C compiler on PATH")
    assert Solver(pigeonhole(4)).solve().is_unsat
    out, err = capfd.readouterr()
    assert out == "" and err == ""


@requires_kernel
def test_failed_build_falls_back_quietly(fresh_loader, monkeypatch, tmp_path, capfd):
    broken = tmp_path / "_kernel.c"
    broken.write_text(kernel._SOURCE.read_text() + "\nthis is not C;\n")
    monkeypatch.setattr(kernel, "_SOURCE", broken)
    assert kernel.load() is None
    engine, reason = kernel.engine_info()
    assert engine == "python" and reason.startswith("compile failed: ")
    out, err = capfd.readouterr()
    assert out == "" and err == ""
