#!/usr/bin/env python
"""Incremental-session smoke check: warm-vs-fresh fuzz + amortized selection.

The CI ``session-smoke`` job (and ``make session-smoke``) runs this
script.  It asserts the two load-bearing claims of the incremental
session layer, with the evidence read back from a traced run rather
than the components' own say-so:

1. **Warm-vs-fresh differential fuzz** — a seeded 200-step
   add-clause/assumption schedule driven through a warm
   :class:`SolverSession` produces, at every solve step, a status
   bit-identical to a fresh re-solve of the accumulated formula, and
   failed-assumption cores that are consistent (subset of the
   assumptions, still UNSAT alone).

2. **Drift-gated amortization** — selecting policies for a family of
   50 closely related formula deltas through one
   :class:`SelectorSession` costs *strictly fewer* HGT forward passes
   than instances, proven by counting ``session-select`` trace events
   with ``reused: true`` — and the emitted trace passes the event
   schema.

Exit code 0 on success; any failed assertion prints the evidence and
exits 1.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

from repro.cnf import CNF, random_ksat
from repro.models import NeuroSelect
from repro.obs import read_trace, start_run, validate_traces
from repro.selection import SelectorSession
from repro.solver import Solver, Status
from repro.solver.session import SolverSession

FUZZ_STEPS = 200
FUZZ_SEED = 20260809
FAMILY_DELTAS = 50


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def fuzz_schedule(rng: random.Random, num_vars: int, steps: int):
    """A seeded mixed add/solve schedule over ``num_vars`` variables."""
    schedule = [("solve", [])]
    variables = list(range(1, num_vars + 1))
    for _ in range(steps - 1):
        if rng.random() < 0.35:
            size = rng.randint(1, 3)
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(variables, size)]
            schedule.append(("add", lits))
        else:
            count = rng.randint(0, 3)
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(variables, count)]
            schedule.append(("solve", lits))
    return schedule


def fresh_status(cnf: CNF, assumptions) -> Status:
    return Solver(cnf.copy()).solve(assumptions=assumptions).status


def run_fuzz(observer) -> dict:
    """Part 1: the seeded 200-step warm-vs-fresh differential fuzz."""
    rng = random.Random(FUZZ_SEED)
    seed_cnf = random_ksat(12, 30, seed=FUZZ_SEED)
    schedule = fuzz_schedule(rng, seed_cnf.num_vars, FUZZ_STEPS)
    session = SolverSession(
        seed_cnf.copy(), observer=observer, session_id="smoke"
    )
    accumulated = seed_cnf.copy()
    solves = adds = cores_seen = 0
    for index, (op, lits) in enumerate(schedule):
        if op == "add":
            accumulated.add_clause(lits)
            session.add(*lits)
            adds += 1
            continue
        solves += 1
        result = session.solve(assumptions=lits)
        reference = fresh_status(accumulated, lits)
        if result.status is not reference:
            fail(f"step {index}: warm session returned "
                 f"{result.status.value}, fresh re-solve says "
                 f"{reference.value} (assumptions={lits})")
        if result.core is not None:
            cores_seen += 1
            if not set(result.core) <= set(lits):
                fail(f"step {index}: failed core {result.core} not a "
                     f"subset of assumptions {lits}")
            if fresh_status(
                accumulated, list(result.core)
            ) is not Status.UNSATISFIABLE:
                fail(f"step {index}: failed core {result.core} does not "
                     f"keep the formula UNSAT")
    if cores_seen == 0:
        fail("the fuzz schedule never produced a failed-assumption "
             "core — the schedule is not exercising analyzeFinal")
    print(f"fuzz: {solves} solves / {adds} adds over {FUZZ_STEPS} steps, "
          f"bit-identical to fresh re-solves "
          f"({cores_seen} failed cores checked)")
    return {"solves": solves, "adds": adds, "failed_cores": cores_seen}


def run_family(observer) -> dict:
    """Part 2: 50 deltas through one drift-gated selector session."""
    rng = random.Random(FUZZ_SEED + 1)
    base = random_ksat(20, 400, seed=FUZZ_SEED)
    selector = SelectorSession(
        NeuroSelect(hidden_dim=8, seed=0),
        observer=observer,
        session_id="smoke-family",
    )
    drifted = base.copy()
    for _ in range(FAMILY_DELTAS):
        # One extra 3-clause per delta: ~0.25% relative drift per step.
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, base.num_vars + 1), 3)]
        drifted.add_clause(lits)
        selector.select(drifted)
    stats = selector.stats()
    print(f"family: {stats['selections']} selections, "
          f"{stats['inference_passes']} forward pass(es), "
          f"{stats['embedding_reuses']} reuse(s)")
    return stats


def main() -> None:
    trace_dir = Path(tempfile.mkdtemp(prefix="session-smoke-"))
    observer = start_run(
        str(trace_dir), "session-smoke", argv=sys.argv[1:],
        config={"fuzz_steps": FUZZ_STEPS, "deltas": FAMILY_DELTAS},
        metrics=True,
    )
    fuzz = run_fuzz(observer)
    family = run_family(observer)
    observer.finish(exit_code=0)

    # The amortization claim, from the trace — not the selector object.
    traces = sorted(trace_dir.glob("session-smoke-*.jsonl"))
    if not traces:
        fail(f"no trace written in {trace_dir}")
    errors = validate_traces(traces)
    if errors:
        fail("trace schema violations: " + "; ".join(errors))
    events, _ = read_trace(traces[0])
    selects = [e for e in events if e["event"] == "session-select"]
    solve_events = [e for e in events if e["event"] == "session-solve"]
    if len(selects) != FAMILY_DELTAS:
        fail(f"expected {FAMILY_DELTAS} session-select events, "
             f"traced {len(selects)}")
    if not solve_events:
        fail("no session-solve events traced from the fuzz schedule")
    passes = max(e["passes"] for e in selects)
    reused = sum(1 for e in selects if e["reused"])
    if passes >= FAMILY_DELTAS:
        fail(f"no amortization: {passes} forward passes for "
             f"{FAMILY_DELTAS} instances")
    if passes != family["inference_passes"]:
        fail(f"trace disagrees with the selector: {passes} traced "
             f"passes vs {family['inference_passes']} reported")
    if reused == 0:
        fail("no session-select event recorded an embedding reuse")
    print(f"trace: {len(selects)} session-select events, "
          f"{passes} forward pass(es) < {FAMILY_DELTAS} instances, "
          f"{len(solve_events)} session-solve events, schema clean")

    print("session smoke: OK")
    print(json.dumps({
        "fuzz": fuzz,
        "family": {"instances": FAMILY_DELTAS, "passes": passes,
                   "reuses": reused},
    }))


if __name__ == "__main__":
    main()
