"""BCP micro-benchmark: the arena engine against the seed engine.

Measures raw unit-propagation throughput (props/sec) of two engines:

* ``legacy`` — a faithful in-file copy of the seed engine (plain
  two-watched-literal lists of clause objects, no blocking literals, no
  binary specialization).  It is the fixed reference: its speed moves
  only with the interpreter and the host, never with solver changes;
* ``arena``  — the solver's flat int32 arena engine (contiguous clause
  buffer, watcher-only binaries, fully-watched ternaries,
  offset-addressed long clauses).

Both engines run on fixed-seed workloads:

* ``3sat``    — uniform random 3-SAT at the phase transition;
* ``mixed``   — 55% binary clauses, the shape of a learned-clause
  database mid-search (CDCL learns many short clauses);
* ``binary``  — pure binary clauses (implication-graph-dense shape:
  equivalence chains, at-most-one encodings);
* ``long``    — wide clauses (k in 4..9) where the blocking literal
  skips most clause dereferences.

Both engines replay the *same* fixed-seed decision sequence, so they do
identical logical work; only the propagation machinery differs.  The
aggregate figure is total propagations over total seconds across all
workloads.  A second section times the end-to-end labeling pipeline and
the ParallelRunner (workers=4 vs 1) on a 20-instance dataset.

Results land in ``BENCH_bcp.json`` at the repo root (props/sec per
engine and workload, the arena-vs-legacy speedup, labeling wall-clock).

Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``) keeps the full-size
workloads and the best-of-3 timing but replays 4 passes instead of 60
and shrinks the labeling section, so CI exercises the code path in a
few seconds; smoke results land in ``BENCH_bcp_smoke.json`` so the
committed full-run baseline is never clobbered.  ``--check-regression``
additionally compares the measured arena-vs-legacy speedup ratio
against the committed ``BENCH_bcp.json`` and fails on a >10%
regression (a ratio of same-run measurements, so absolute machine
speed cancels out).

Run standalone with ``PYTHONPATH=src python benchmarks/bench_bcp_micro.py``
or via pytest: ``PYTHONPATH=src python -m pytest benchmarks/bench_bcp_micro.py``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from pathlib import Path
from typing import List, Optional

from repro.cnf.formula import CNF
from repro.cnf.generators import random_ksat
from repro.parallel import ParallelRunner
from repro.selection.labeling import label_instances
from repro.solver.arena import (
    ArenaPropagator,
    ArenaTrail,
    ArenaWatchLists,
    ClauseArena,
)
from repro.solver.statistics import SolverStatistics
from repro.solver.types import TRUE, UNASSIGNED, encode

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_bcp.json"
SMOKE_RESULT_PATH = REPO_ROOT / "BENCH_bcp_smoke.json"

# Replay passes per workload.  Smoke mode keeps the full-size workloads
# and the best-of-REPEATS timing: shrinking either leaves the BCP section
# so short that the gated ratio reads biased low and flaky.
PASSES = 4 if SMOKE else 60
REPEATS = 3
LABEL_INSTANCES = 4 if SMOKE else 20
LABEL_VARS = 30 if SMOKE else 60
LABEL_CONFLICTS = 300 if SMOKE else 3000


# --------------------------------------------------------------------------
# Seed engine (pre-overhaul), copied verbatim in behaviour: one watch
# table of clause objects, per-visit garbage checks, variable-indexed
# truth lookups, tuple-free but allocation-heavy relocation.
# --------------------------------------------------------------------------


class LegacyClause:
    """Seed clause object: literal list (watches at slots 0 and 1)."""

    __slots__ = ("lits", "garbage")

    def __init__(self, lits: List[int]):
        self.lits = lits
        self.garbage = False


class LegacyTrail:
    """Seed trail: variable-indexed values only (no lit_values array)."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        n = num_vars + 1
        self.values = [UNASSIGNED] * n
        self.levels = [0] * n
        self.reasons: List[Optional[LegacyClause]] = [None] * n
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def assign(self, lit: int, reason: Optional[LegacyClause]) -> None:
        var = lit >> 1
        self.values[var] = 0 if (lit & 1) else 1
        self.levels[var] = self.decision_level
        self.reasons[var] = reason
        self.trail.append(lit)

    def backtrack(self, level: int) -> None:
        if level >= self.decision_level:
            return
        boundary = self.trail_lim[level]
        for lit in self.trail[boundary:]:
            var = lit >> 1
            self.values[var] = UNASSIGNED
            self.reasons[var] = None
        del self.trail[boundary:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))


class LegacyWatchLists:
    """Seed watch lists: every clause (binary included) in one table."""

    def __init__(self, num_vars: int):
        self.watches: List[List[LegacyClause]] = [
            [] for _ in range(2 * (num_vars + 1))
        ]

    def attach(self, clause: LegacyClause) -> None:
        self.watches[clause.lits[0]].append(clause)
        self.watches[clause.lits[1]].append(clause)


class LegacyPropagator:
    """Seed propagation loop: no blocking literals, no binary table."""

    def __init__(self, trail: LegacyTrail, watches: LegacyWatchLists,
                 stats: SolverStatistics):
        self.trail = trail
        self.watches = watches
        self.stats = stats
        self.frequency = [0] * (trail.num_vars + 1)
        self.lifetime_frequency = [0] * (trail.num_vars + 1)

    def _record_propagation(self, var: int) -> None:
        self.frequency[var] += 1
        self.lifetime_frequency[var] += 1
        self.stats.propagations += 1

    def propagate(self) -> Optional[LegacyClause]:
        trail = self.trail
        values = trail.values
        watches = self.watches.watches
        while trail.qhead < len(trail.trail):
            lit = trail.trail[trail.qhead]
            trail.qhead += 1
            false_lit = lit ^ 1
            watchers = watches[false_lit]
            i = j = 0
            n = len(watchers)
            conflict = None
            while i < n:
                clause = watchers[i]
                i += 1
                if clause.garbage:
                    continue
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                v0 = values[first >> 1]
                if v0 != UNASSIGNED and (v0 ^ (first & 1)) == TRUE:
                    watchers[j] = clause
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    candidate = lits[k]
                    vk = values[candidate >> 1]
                    if vk == UNASSIGNED or (vk ^ (candidate & 1)) == TRUE:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[candidate].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                watchers[j] = clause
                j += 1
                if v0 == UNASSIGNED:
                    trail.assign(first, clause)
                    self._record_propagation(first >> 1)
                else:
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    conflict = clause
            del watchers[j:]
            if conflict is not None:
                trail.qhead = len(trail.trail)
                return conflict
        return None


# --------------------------------------------------------------------------
# Workloads and the replay harness
# --------------------------------------------------------------------------


def mixed_cnf(num_vars: int, num_clauses: int, frac_binary: float,
              seed: int) -> CNF:
    """Random formula mixing binary and ternary clauses (fixed seed)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = 2 if rng.random() < frac_binary else 3
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CNF(clauses, num_vars=num_vars)


def long_cnf(num_vars: int, num_clauses: int, seed: int) -> CNF:
    """Random formula of wide clauses (k uniform in 4..9)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(4, 9)
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CNF(clauses, num_vars=num_vars)


def workloads():
    """The fixed-seed workload mix (full size in every mode).

    The mixed workload is 55% binary — the shape of a clause database
    mid-search, where learned clauses skew heavily toward binaries.
    The pure-binary workload models implication-graph-dense instances
    (equivalence chains, at-most-one encodings), the case the dedicated
    binary watch lists target directly.
    """
    return [
        ("3sat", random_ksat(400, 1680, seed=11)),
        ("mixed", mixed_cnf(400, 1900, 0.55, 12)),
        ("binary", mixed_cnf(400, 1000, 1.0, 14)),
        ("long", long_cnf(200, 3500, 13)),
    ]


def build_engine(engine: str, cnf: CNF):
    """Instantiate (trail, propagator) with the formula attached."""
    n = cnf.num_vars
    stats = SolverStatistics()
    if engine == "legacy":
        trail = LegacyTrail(n)
        watches = LegacyWatchLists(n)
        prop = LegacyPropagator(trail, watches, stats)
        add = LegacyClause
    else:
        arena = ClauseArena()
        trail = ArenaTrail(n, arena)
        watches = ArenaWatchLists(n, arena)
        prop = ArenaPropagator(trail, watches, stats)
        add = arena.add_original
    for clause in cnf.clauses:
        lits = [encode(lit) for lit in clause.literals]
        if len(lits) >= 2:
            watches.attach(add(lits))
    return trail, prop, stats


def replay(engine: str, cnf: CNF, seed: int, passes: int):
    """Replay a fixed-seed decision sequence; return (props, seconds).

    Each pass walks the same shuffled literal order, assigning every
    still-unassigned variable as a decision and propagating; a conflict
    resets to level 0.  Deterministic, allocation-stable, and BCP
    dominates the profile (~85% of runtime).

    Only propagations from *completed* (conflict-free) waves are
    counted.  Unit propagation is confluent, so a completed wave from a
    given partial assignment implies the same set of literals in every
    engine — making the count exactly engine-invariant (a strong
    differential oracle).  A conflicting wave stops wherever that
    engine's visit order happens to detect the conflict (e.g. the
    arena's fully-watched ternary table sees conflicts earlier than a
    relocating two-watch scheme), so its partial count is
    engine-dependent noise; the work is still *timed*, just not
    counted.
    """
    trail, prop, stats = build_engine(engine, cnf)
    rng = random.Random(seed)
    order = [
        encode(v if rng.random() < 0.5 else -v)
        for v in range(1, cnf.num_vars + 1)
    ]
    rng.shuffle(order)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    counted = 0
    # CPU time, not wall time: the replay is single-threaded pure
    # compute, and process_time is immune to VM steal / descheduling,
    # which otherwise dominates the noise on shared runners.
    # The already-assigned filter reads the truth array each engine
    # actually maintains: the legacy trail only has the per-variable
    # ``values`` array, the arena trail only ``lit_values``.
    legacy_values = trail.values if engine == "legacy" else None
    lit_values = None if engine == "legacy" else trail.lit_values
    start = time.process_time()
    for _ in range(passes):
        for lit in order:
            if (
                legacy_values[lit >> 1]
                if lit_values is None
                else lit_values[lit]
            ) != UNASSIGNED:
                continue
            trail.new_decision_level()
            trail.assign(lit, None)
            before = stats.propagations
            if prop.propagate() is not None:
                trail.backtrack(0)
            else:
                counted += stats.propagations - before
        trail.backtrack(0)
    elapsed = time.process_time() - start
    if gc_was_enabled:
        gc.enable()
    return counted, elapsed


def run_bcp_comparison():
    """Both engines over every workload; per-workload and aggregate.

    Each (engine, workload) cell is timed ``REPEATS`` times and the
    fastest run is kept — the standard defence against scheduler noise,
    which on a busy single-core box easily exceeds the effect size.
    """
    engines = ("legacy", "arena")
    per_workload = {}
    totals = {engine: [0, 0.0] for engine in engines}
    for name, cnf in workloads():
        # Interleave the engines across repeats so slow phases of the
        # host (frequency scaling, steal time) hit all of them evenly.
        best = {}
        for _ in range(REPEATS):
            for engine in engines:
                props, seconds = replay(engine, cnf, seed=99, passes=PASSES)
                if engine not in best:
                    best[engine] = (props, seconds)
                else:
                    assert best[engine][0] == props  # deterministic replay
                    best[engine] = (props, min(best[engine][1], seconds))
        entry = {}
        for engine in engines:
            props, seconds = best[engine]
            entry[engine] = {
                "propagations": props,
                "seconds": round(seconds, 4),
                "props_per_sec": round(props / seconds, 1),
            }
            totals[engine][0] += props
            totals[engine][1] += seconds
        # Same decision replay + confluent unit propagation => counting
        # only completed waves (see replay()) makes the propagation
        # counts *exactly* engine-invariant.  Any difference means an
        # engine implied a different assignment set — a propagation bug,
        # not noise — so this is a hard differential oracle (and far
        # inside the tentpole's ±0.5% acceptance bound).
        legacy_props = entry["legacy"]["propagations"]
        arena_props = entry["arena"]["propagations"]
        assert legacy_props == arena_props, (name, legacy_props, arena_props)
        # With counts pinned equal, a props/sec ratio is exactly a
        # seconds ratio — and the latter stays defined even on a
        # workload where every wave conflicts (zero counted props).
        entry["speedup_arena_vs_legacy"] = round(
            best["legacy"][1] / best["arena"][1], 3
        )
        per_workload[name] = entry
    aggregate = {
        engine: round(props / seconds, 1)
        for engine, (props, seconds) in totals.items()
    }
    aggregate["speedup_arena_vs_legacy"] = round(
        totals["legacy"][1] / totals["arena"][1], 3
    )
    return {"workloads": per_workload, "aggregate": aggregate}


def run_labeling_comparison():
    """End-to-end labeling wall-clock: serial vs 4 workers vs cached."""
    cnfs = [
        random_ksat(LABEL_VARS, int(LABEL_VARS * 4.3), seed=500 + i)
        for i in range(LABEL_INSTANCES)
    ]
    start = time.perf_counter()
    serial = label_instances(
        cnfs, max_conflicts=LABEL_CONFLICTS, runner=ParallelRunner(workers=1)
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = label_instances(
        cnfs, max_conflicts=LABEL_CONFLICTS, runner=ParallelRunner(workers=4)
    )
    parallel_seconds = time.perf_counter() - start
    assert [c.label for c in serial] == [c.label for c in parallel]

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runner = ParallelRunner(workers=4, cache_dir=tmp)
        label_instances(cnfs, max_conflicts=LABEL_CONFLICTS, runner=runner)
        cold_executed = runner.last_stats.executed
        runner = ParallelRunner(workers=4, cache_dir=tmp)
        start = time.perf_counter()
        label_instances(cnfs, max_conflicts=LABEL_CONFLICTS, runner=runner)
        cached_seconds = time.perf_counter() - start
        warm_hits = runner.last_stats.cache_hits
        warm_executed = runner.last_stats.executed

    cpu_count = os.cpu_count() or 1
    return {
        "instances": LABEL_INSTANCES,
        "max_conflicts": LABEL_CONFLICTS,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 3),
        "workers4_seconds": round(parallel_seconds, 3),
        # Process fan-out cannot beat serial on one CPU, so a ratio
        # measured there says nothing about the runner: record n/a.
        "parallel_speedup": (
            round(serial_seconds / parallel_seconds, 3)
            if cpu_count >= 2
            else None
        ),
        "cold_executed": cold_executed,
        "warm_cache_hits": warm_hits,
        "warm_executed": warm_executed,
        "warm_seconds": round(cached_seconds, 3),
    }


def run_all():
    """Full benchmark; returns the BENCH_bcp.json payload."""
    from repro.obs.manifest import git_describe

    bcp = run_bcp_comparison()
    labeling = run_labeling_comparison()
    payload = {
        "smoke": SMOKE,
        "passes": PASSES,
        "git": git_describe(),
        "created_unix": round(time.time(), 3),
        "bcp": bcp,
        "labeling": labeling,
    }
    # Smoke runs must not clobber the committed full-run baseline the
    # regression gate compares against.
    path = SMOKE_RESULT_PATH if SMOKE else RESULT_PATH
    path.write_text(json.dumps(payload, indent=2) + "\n")
    _ingest_into_store(path)
    return payload


def _ingest_into_store(path: Path) -> None:
    """Index the fresh result in ``$REPRO_STORE`` (best effort, opt-in).

    Only an explicit ``REPRO_STORE`` target is honored — the benchmark
    writes results at the repo root, so there is no trace directory to
    default beside.
    """
    if not os.environ.get("REPRO_STORE", "").strip():
        return
    try:
        from repro.store import RunStore, resolve_auto_store

        store_path = resolve_auto_store(None)
        if store_path is None:
            return  # REPRO_STORE held an off-value
        with RunStore(store_path) as store:
            store.ingest_bench(path)
    except Exception as exc:  # the store must never fail the benchmark
        import sys

        print(f"warning: run-store ingest failed ({exc})", file=sys.stderr)


def test_bcp_micro():
    """Pytest entry point; asserts the tentpole targets outside smoke."""
    payload = run_all()
    bcp = payload["bcp"]
    labeling = payload["labeling"]
    for name, entry in bcp["workloads"].items():
        assert entry["legacy"]["seconds"] > 0, name
        assert (
            entry["legacy"]["propagations"] == entry["arena"]["propagations"]
        ), name
    assert labeling["warm_executed"] == 0
    assert labeling["warm_cache_hits"] == 2 * labeling["instances"]
    if not SMOKE:
        # The "2x over the seed engine" target.  Pure CPython boxes
        # every int, so the contiguous layout cannot translate fully
        # into cache wins the way it would compiled (see DESIGN.md).
        assert bcp["aggregate"]["speedup_arena_vs_legacy"] >= 2.0, bcp["aggregate"]
        if labeling["parallel_speedup"] is not None:
            assert labeling["parallel_speedup"] > 1.0, labeling


def check_regression(payload: dict, baseline: dict) -> List[str]:
    """Compare the run against a committed baseline; return failures.

    The guarded quantity is the *ratio* of arena to seed-engine
    throughput measured within the same process — absolute props/sec
    depends on the host, but the ratio is portable.  A measured ratio
    more than 10% below the committed aggregate ratio fails.
    """
    committed = baseline["bcp"]["aggregate"]["speedup_arena_vs_legacy"]
    measured = payload["bcp"]["aggregate"]["speedup_arena_vs_legacy"]
    failures = []
    if measured < 0.9 * committed:
        failures.append(
            f"arena-vs-legacy aggregate speedup regressed: measured "
            f"{measured}x vs committed {committed}x (>10% below)"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    global SMOKE, PASSES, LABEL_INSTANCES, LABEL_VARS, LABEL_CONFLICTS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer replay passes, a smaller labeling section, and no "
        "timing assertions (same as REPRO_BENCH_SMOKE=1)",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="fail (exit 1) if the arena-vs-legacy speedup ratio drops "
        ">10%% below the committed BENCH_bcp.json aggregate",
    )
    args = parser.parse_args(argv)
    if args.smoke and not SMOKE:
        SMOKE = True
        PASSES = 4
        LABEL_INSTANCES, LABEL_VARS, LABEL_CONFLICTS = 4, 30, 300

    # The baseline must be read before run_all() rewrites the file.
    baseline = None
    if args.check_regression:
        baseline = json.loads(RESULT_PATH.read_text())

    payload = run_all()
    print(json.dumps(payload, indent=2))
    agg = payload["bcp"]["aggregate"]
    print(
        f"\naggregate BCP: legacy {agg['legacy']:,.0f} -> arena "
        f"{agg['arena']:,.0f} props/s "
        f"({agg['speedup_arena_vs_legacy']}x legacy)"
    )
    lab = payload["labeling"]
    speedup = lab["parallel_speedup"]
    print(
        f"labeling {lab['instances']} instances: serial {lab['serial_seconds']}s, "
        f"4 workers {lab['workers4_seconds']}s "
        f"({'n/a on 1 CPU' if speedup is None else f'{speedup}x'}), "
        f"warm cache {lab['warm_seconds']}s"
    )
    if baseline is not None:
        failures = check_regression(payload, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
        print(
            f"regression check ok: {agg['speedup_arena_vs_legacy']}x vs "
            f"committed "
            f"{baseline['bcp']['aggregate']['speedup_arena_vs_legacy']}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
