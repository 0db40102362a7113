"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's workflow:

* ``solve``      — solve a DIMACS file (policy, proof, assumptions, budgets)
* ``generate``   — write instances from any generator family
* ``features``   — print static features of a formula
* ``label``      — run both deletion policies and print the Sec. 5.1 label
* ``dataset``    — build and save a labelled dataset
* ``train``      — train NeuroSelect (fresh or saved dataset), save weights
* ``select``     — load weights, pick a policy for a formula, solve it
* ``trim``       — solve UNSAT, emit a conflict-cone-trimmed DRAT proof
* ``bench``      — run a synthetic benchmark suite under one policy
* ``fuzz``       — differential fuzz campaign against the oracle bank
  (``--shrink`` minimizes failures into a replayable corpus; ``--replay``
  re-checks stored corpus entries)
* ``report``     — render trace reports (``repro report out/*.jsonl``),
  resolve store run ids (``repro report r-1f2e3d4c5b6a`` or
  ``--latest kind=bench``), or rebuild EXPERIMENTS.md when called bare
* ``query``      — interrogate the run store: ``runs`` / ``metrics`` /
  ``traces`` with kind/status/commit/time filters and table, csv, or
  json output (see ``docs/run_store.md``)
* ``trend``      — ingest ``BENCH_*.json`` files across commits into
  the store, print rolling-baseline deltas of the arena/legacy BCP
  ratio, and (with ``--check-regression``) exit nonzero when the newest
  aggregate ratio regressed more than 10% — the CI BCP gate
* ``serve``      — long-lived solve service (JSON over HTTP, localhost):
  admission control, batched policy inference, supervised solve fan-out,
  opt-in resilience (circuit breaker, deadline propagation — see
  ``docs/serving.md``)
* ``chaos``      — scripted fault-injection scenarios against a live
  service instance, judged against the resilience invariants
  (``--list`` names them; ``--check-determinism`` demands identical
  fingerprints across two runs)

Each subcommand is a thin shell over public library calls, so anything
the CLI does is equally scriptable from Python.

Observability: ``solve`` / ``dataset`` / ``train`` / ``bench`` /
``serve`` accept
``--trace DIR`` (default: the ``REPRO_TRACE_DIR`` environment variable)
to write a structured JSONL event trace plus a run manifest, and
``--no-metrics`` to skip in-process metric collection while tracing.
Every traced run is also auto-indexed in the run store
(``$REPRO_STORE``, or ``<trace_dir>/runstore.sqlite``) for ``repro
query``; ``REPRO_STORE=off`` disables that.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from repro.cnf import (
    GENERATOR_FAMILIES,
    extract_features,
    parse_dimacs_file,
    write_dimacs_file,
)
from repro.cnf.dimacs import DimacsError
from repro.cnf.formula import MAX_VAR
from repro.policies import get_policy, policy_names
from repro.solver import (
    ProofLog,
    Solver,
    SolverSession,
    Status,
)


def _add_obs_args(p) -> None:
    """Shared observability flags (solve / dataset / train / bench)."""
    p.add_argument("--trace", metavar="DIR",
                   help="write a JSONL event trace and run manifest into "
                        "this directory (default: $REPRO_TRACE_DIR)")
    p.add_argument("--no-metrics", action="store_true",
                   help="while tracing, skip in-process counters and "
                        "histograms (events and manifest still written)")


def _observer_from_args(args, command: str, policy: str = ""):
    """Build the run observer: live when tracing was asked for, else null."""
    import os

    from repro.obs import start_run

    trace_dir = args.trace or os.environ.get("REPRO_TRACE_DIR") or None
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "trace")
        and isinstance(value, (str, int, float, bool, list, type(None)))
    }
    return start_run(
        trace_dir,
        command,
        argv=sys.argv[1:],
        config=config,
        policy=policy,
        metrics=not args.no_metrics,
    )


def _finish_observer(obs, exit_code: int) -> None:
    """Print the trace location and emit ``run-end`` (no-op untraced)."""
    if obs.tracing:
        print(f"c trace {obs.sink.path}")
    obs.finish(exit_code=exit_code)


def _add_solve(subparsers) -> None:
    p = subparsers.add_parser("solve", help="solve a DIMACS CNF file")
    p.add_argument("file")
    p.add_argument("--policy", default="default", choices=policy_names())
    p.add_argument("--proof", help="write a DRAT proof to this path")
    p.add_argument("--max-conflicts", type=int)
    p.add_argument("--max-propagations", type=int)
    p.add_argument("--assume", type=int, nargs="*", default=[])
    p.add_argument("--incremental", action="store_true",
                   help="treat the input as an incremental (iCNF-style) "
                        "stream: clause lines accumulate into one warm "
                        "solver session, each 'a <lits> 0' line triggers "
                        "a solve under those assumptions (budgets apply "
                        "per call), and UNSAT-under-assumptions answers "
                        "print their failed-assumption core as an "
                        "'f <lits> 0' line")
    _add_obs_args(p)
    p.set_defaults(func=cmd_solve)


def _parse_icnf(text: str):
    """Parse an iCNF-style stream into (num_vars, steps).

    Steps are ``("add", lits)`` / ``("solve", assumptions)`` in file
    order.  Accepts plain DIMACS too (no ``a`` lines): the whole file
    becomes add steps and one final unassumed solve.  ``p inccnf`` and
    ``p cnf V C`` headers are both honored; without one, ``num_vars``
    is the largest variable mentioned.  Malformed input raises
    :class:`DimacsError` naming the line, as ``parse_dimacs`` does.
    """
    steps = []
    num_vars = 0
    group: List[int] = []
    assuming = False
    saw_solve = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) >= 3 and fields[1] == "cnf":
                try:
                    declared = int(fields[2])
                except ValueError as exc:
                    raise DimacsError(
                        f"line {line_no}: non-integer header field"
                    ) from exc
                if declared > MAX_VAR:
                    raise DimacsError(
                        f"line {line_no}: variable count {declared} "
                        f"out of range (max {MAX_VAR})"
                    )
                num_vars = max(num_vars, declared)
            continue  # "p inccnf" carries no counts
        tokens = line.split()
        if tokens[0] == "a":
            if group:
                raise DimacsError(
                    f"line {line_no}: assumption line inside an "
                    f"unterminated clause"
                )
            assuming = True
            tokens = tokens[1:]
        for token in tokens:
            try:
                lit = int(token)
            except ValueError as exc:
                raise DimacsError(
                    f"line {line_no}: bad token {token!r}"
                ) from exc
            if abs(lit) > MAX_VAR:
                raise DimacsError(
                    f"line {line_no}: variable {abs(lit)} "
                    f"out of range (max {MAX_VAR})"
                )
            if lit == 0:
                if assuming:
                    steps.append(("solve", group))
                    saw_solve = True
                else:
                    steps.append(("add", group))
                group = []
                assuming = False
            else:
                num_vars = max(num_vars, abs(lit))
                group.append(lit)
    if group:
        steps.append(("solve" if assuming else "add", group))
        saw_solve = saw_solve or assuming
    if not saw_solve:
        steps.append(("solve", []))
    return num_vars, steps


def _solve_incremental(args) -> int:
    """Handle ``repro solve --incremental``: one warm session, many calls."""
    from pathlib import Path

    num_vars, steps = _parse_icnf(Path(args.file).read_text(encoding="utf-8"))
    obs = _observer_from_args(args, "solve", policy=args.policy)
    session = SolverSession(
        num_vars,
        policy=get_policy(args.policy),
        observer=obs,
        session_id="cli",
    )
    code = 0
    for op, lits in steps:
        if op == "add":
            session.add(*lits)
            continue
        result = session.solve(
            assumptions=lits,
            max_conflicts=args.max_conflicts,
            max_propagations=args.max_propagations,
        )
        print(f"c call {session.solves} assumptions {len(lits)}")
        print(f"s {result.status.value}")
        if result.status is Status.SATISFIABLE:
            literals = [
                v if result.model[v] else -v for v in range(1, num_vars + 1)
            ]
            print("v " + " ".join(map(str, literals)) + " 0")
        if result.core is not None:
            print("f " + " ".join(map(str, result.core)) + " 0")
        code = {Status.SATISFIABLE: 10, Status.UNSATISFIABLE: 20}.get(
            result.status, 0
        )
    for key, value in session.solver.stats.to_dict().items():
        print(f"c {key} {value}")
    _finish_observer(obs, code)
    return code


def _check_budgets(**budgets) -> None:
    """Reject a negative solver budget in one line (``max_conflicts=-1``
    reports as ``--max-conflicts``)."""
    for name, budget in budgets.items():
        if budget is not None and budget < 0:
            flag = "--" + name.replace("_", "-")
            raise SystemExit(f"{flag} must be >= 0, got {budget}")


def cmd_solve(args) -> int:
    """Handle ``repro solve``: solve a DIMACS file, print s/v lines."""
    _check_budgets(
        max_conflicts=args.max_conflicts, max_propagations=args.max_propagations
    )
    if args.incremental:
        if args.assume:
            raise SystemExit(
                "--incremental takes assumptions from 'a' lines, not --assume"
            )
        if args.proof:
            raise SystemExit("--incremental does not support --proof")
        return _solve_incremental(args)
    cnf = parse_dimacs_file(args.file)
    for lit in args.assume:
        if lit == 0 or abs(lit) > cnf.num_vars:
            raise SystemExit(
                f"--assume {lit} is not a literal of this formula "
                f"(variables 1..{cnf.num_vars})"
            )
    obs = _observer_from_args(args, "solve", policy=args.policy)
    proof = ProofLog(args.proof) if args.proof else None
    solver = Solver(
        cnf, policy=get_policy(args.policy), proof=proof, observer=obs,
    )
    result = solver.solve(
        assumptions=args.assume,
        max_conflicts=args.max_conflicts,
        max_propagations=args.max_propagations,
    )
    if proof is not None:
        proof.close()

    print(f"s {result.status.value}")
    if result.status is Status.SATISFIABLE:
        literals = [v if result.model[v] else -v for v in range(1, cnf.num_vars + 1)]
        print("v " + " ".join(map(str, literals)) + " 0")
    if result.core is not None:
        print("f " + " ".join(map(str, result.core)) + " 0")
    for key, value in result.stats.to_dict().items():
        print(f"c {key} {value}")
    code = {Status.SATISFIABLE: 10, Status.UNSATISFIABLE: 20}.get(result.status, 0)
    _finish_observer(obs, code)
    return code


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser("generate", help="generate a CNF instance")
    p.add_argument("family", choices=sorted(GENERATOR_FAMILIES))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="generator keyword argument (repeatable)")
    p.set_defaults(func=cmd_generate)


def _parse_params(raw: List[str]) -> dict:
    params = {}
    for item in raw:
        if "=" not in item:
            raise SystemExit(f"--param needs NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        try:
            params[name] = json.loads(value)
        except json.JSONDecodeError:
            params[name] = value
    return params


def cmd_generate(args) -> int:
    """Handle ``repro generate``: write one generator-family instance."""
    factory = GENERATOR_FAMILIES[args.family]
    params = _parse_params(args.param)
    if args.family != "pigeonhole":
        params.setdefault("seed", args.seed)
    cnf = factory(**params)
    write_dimacs_file(cnf, args.out)
    print(f"wrote {args.out}: {cnf.num_vars} variables, {cnf.num_clauses} clauses")
    return 0


def _add_features(subparsers) -> None:
    p = subparsers.add_parser("features", help="print static formula features")
    p.add_argument("file")
    p.set_defaults(func=cmd_features)


def cmd_features(args) -> int:
    """Handle ``repro features``: print static formula features."""
    cnf = parse_dimacs_file(args.file)
    for key, value in extract_features(cnf).to_dict().items():
        print(f"{key:28s} {value}")
    return 0


def _add_label(subparsers) -> None:
    p = subparsers.add_parser(
        "label", help="compare both deletion policies on a formula (Sec. 5.1)"
    )
    p.add_argument("file")
    p.add_argument("--max-conflicts", type=int, default=20_000)
    p.set_defaults(func=cmd_label)


def cmd_label(args) -> int:
    """Handle ``repro label``: run both policies, print the Sec. 5.1 label."""
    from repro.selection import label_instances

    _check_budgets(max_conflicts=args.max_conflicts)
    cnf = parse_dimacs_file(args.file)
    comparison = label_instances([cnf], max_conflicts=args.max_conflicts)[0]
    print(f"default:   {comparison.default_result_status.value} "
          f"({comparison.default_propagations} propagations)")
    print(f"frequency: {comparison.frequency_result_status.value} "
          f"({comparison.frequency_propagations} propagations)")
    print(f"reduction: {100 * comparison.reduction:+.2f}%")
    print(f"label:     {comparison.label} "
          f"({'frequency' if comparison.label else 'default'} policy preferred)")
    return 0


def _add_supervision_args(p) -> None:
    """Shared fault-tolerant sweep options (dataset / train)."""
    p.add_argument("--workers", type=int, default=1,
                   help="solve instances across this many processes")
    p.add_argument("--cache-dir",
                   help="on-disk result cache: never re-solve a task")
    p.add_argument("--task-timeout", type=float,
                   help="wall-clock seconds per solve attempt; a task "
                        "past it is killed and labelled TIMEOUT")
    p.add_argument("--memory-limit-mb", type=float,
                   help="per-worker address-space cap in MiB; a breach "
                        "becomes a MEMOUT outcome")
    p.add_argument("--retries", type=int, default=0,
                   help="retry transient worker errors this many times "
                        "(capped exponential backoff)")
    p.add_argument("--resume", metavar="JOURNAL",
                   help="append-only run journal (JSONL); re-running "
                        "with the same path skips finished tasks")


def _runner_from_args(args, observer=None):
    """Build the supervised ParallelRunner a sweep subcommand asked for."""
    from repro.parallel import ParallelRunner

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {args.retries}")
    return ParallelRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        task_timeout=args.task_timeout,
        memory_limit_mb=args.memory_limit_mb,
        retries=args.retries,
        journal=args.resume,
        observer=observer,
    )


def _print_sweep_stats(stats) -> None:
    """One summary line of executed / cached / resumed / failed counts."""
    line = (
        f"sweep: {stats.total} tasks, {stats.executed} executed, "
        f"{stats.cache_hits} cache hits, {stats.journal_hits} resumed"
    )
    if stats.failed:
        taxonomy = ", ".join(
            f"{count} {name}" for name, count in sorted(stats.failures.items())
        )
        line += f", {stats.failed} failed ({taxonomy})"
    if stats.retried:
        line += f", {stats.retried} recovered by retry"
    print(line)


def _add_dataset(subparsers) -> None:
    p = subparsers.add_parser(
        "dataset", help="build and save a labelled dataset (Sec. 5.1)"
    )
    p.add_argument("--out", required=True, help="dataset file (.json)")
    p.add_argument("--per-year", type=int, default=6)
    p.add_argument("--label-budget", type=int, default=8000)
    _add_supervision_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_dataset)


def cmd_dataset(args) -> int:
    """Handle ``repro dataset``: build + save a labelled dataset."""
    from repro.selection import build_dataset, save_dataset

    _check_budgets(label_budget=args.label_budget)
    obs = _observer_from_args(args, "dataset")
    runner = _runner_from_args(args, observer=obs)
    dataset = build_dataset(
        instances_per_year=args.per_year, max_conflicts=args.label_budget,
        runner=runner, observer=obs,
    )
    save_dataset(dataset, args.out)
    _print_sweep_stats(runner.last_stats)
    balance = dataset.label_balance()
    print(
        f"wrote {args.out}: {len(dataset.train)} train / {len(dataset.test)} test "
        f"instances ({100 * balance['train']:.1f}% / {100 * balance['test']:.1f}% "
        f"positive)"
    )
    _finish_observer(obs, 0)
    return 0


def _add_train(subparsers) -> None:
    p = subparsers.add_parser("train", help="train NeuroSelect on synthetic data")
    p.add_argument("--out", required=True, help="weights file (.npz)")
    p.add_argument("--dataset", help="reuse a dataset saved by `dataset`")
    p.add_argument("--per-year", type=int, default=6)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--label-budget", type=int, default=8000)
    p.add_argument("--calibrate", default="balanced",
                   choices=["balanced", "f1", "effort"],
                   help="decision-threshold calibration mode")
    p.add_argument("--augment", type=int, default=0,
                   help="symmetry-augmentation copies of the training split")
    _add_supervision_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_train)


def cmd_train(args) -> int:
    """Handle ``repro train``: fit NeuroSelect and save calibrated weights."""
    from repro.models import NeuroSelect
    from repro.nn import save_module
    from repro.selection import Trainer, build_dataset, load_dataset

    _check_budgets(label_budget=args.label_budget)
    obs = _observer_from_args(args, "train")
    if args.dataset:
        dataset = load_dataset(args.dataset)
    else:
        runner = _runner_from_args(args, observer=obs)
        dataset = build_dataset(
            instances_per_year=args.per_year, max_conflicts=args.label_budget,
            runner=runner, observer=obs,
        )
        _print_sweep_stats(runner.last_stats)
    train_split = dataset.train
    if args.augment:
        from repro.selection import augment_dataset

        train_split = augment_dataset(train_split, copies=args.augment)
    model = NeuroSelect(hidden_dim=args.hidden_dim, seed=0)
    trainer = Trainer(
        model, learning_rate=args.lr, epochs=args.epochs, observer=obs
    )
    trainer.fit(train_split)
    trainer.calibrate_threshold(train_split, mode=args.calibrate)
    metrics = trainer.evaluate(dataset.test)
    save_module(model, args.out)
    print(f"saved weights to {args.out} (threshold {trainer.threshold:.3f})")
    for key, value in metrics.as_row().items():
        print(f"{key:10s} {value:6.2f}%")
    _finish_observer(obs, 0)
    return 0


def _add_trim(subparsers) -> None:
    p = subparsers.add_parser(
        "trim", help="solve an UNSAT formula and write a trimmed DRAT proof"
    )
    p.add_argument("file")
    p.add_argument("--out", required=True, help="trimmed proof path")
    p.add_argument("--max-conflicts", type=int)
    p.set_defaults(func=cmd_trim)


def cmd_trim(args) -> int:
    """Handle ``repro trim``: emit a conflict-cone-trimmed DRAT proof."""
    from pathlib import Path

    from repro.solver import check_drat
    from repro.solver.drat import trim_proof

    cnf = parse_dimacs_file(args.file)
    proof = ProofLog()
    result = Solver(cnf, proof=proof).solve(max_conflicts=args.max_conflicts)
    if result.status is not Status.UNSATISFIABLE:
        print(f"s {result.status.value} (no proof to trim)")
        return 0
    original = proof.text()
    trimmed = trim_proof(cnf, original)
    assert check_drat(cnf, trimmed)
    Path(args.out).write_text(trimmed)
    n_before = sum(1 for l in original.splitlines() if l and not l.startswith("d"))
    n_after = len(trimmed.splitlines())
    print(f"s UNSATISFIABLE")
    print(f"wrote {args.out}: {n_before} -> {n_after} proof additions (checked)")
    return 20


def _add_bench(subparsers) -> None:
    p = subparsers.add_parser(
        "bench", help="run a synthetic benchmark suite under one policy"
    )
    p.add_argument("--policy", default="default", choices=policy_names())
    p.add_argument("--instances", type=int, default=6,
                   help="number of synthetic instances in the suite")
    p.add_argument("--year", type=int, default=2022,
                   help="seed block for the synthetic instance mix")
    p.add_argument("--max-propagations", type=int, default=200_000)
    _add_supervision_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_bench)


def cmd_bench(args) -> int:
    """Handle ``repro bench``: run a suite, print one record per line."""
    from repro.bench.runner import run_suite
    from repro.selection.dataset import _instance_pool

    _check_budgets(max_propagations=args.max_propagations)
    obs = _observer_from_args(args, "bench", policy=args.policy)
    runner = _runner_from_args(args, observer=obs)
    pool = _instance_pool(args.year, args.instances, scale=1.0)
    records = run_suite(
        [cnf for _, cnf in pool],
        args.policy,
        args.max_propagations,
        runner=runner,
        observer=obs,
    )
    for record, (family, _) in zip(records, pool):
        print(
            f"{record.name}  {family:20s} {record.status.value:14s} "
            f"props={record.propagations:<9d} wall={record.wall_seconds:.3f}s"
        )
    solved = sum(1 for record in records if record.solved)
    print(f"solved {solved}/{len(records)} under policy {args.policy}")
    _print_sweep_stats(runner.last_stats)
    _finish_observer(obs, 0)
    return 0


def _add_fuzz(subparsers) -> None:
    p = subparsers.add_parser(
        "fuzz",
        help="differential fuzz campaign: cross-check the solver against "
             "the oracle bank, shrink failures into a replayable corpus",
    )
    p.add_argument("--seeds", type=int, default=50,
                   help="number of fuzz cases (one generator draw each)")
    p.add_argument("--budget", type=int, default=2000,
                   help="max conflicts per solve (deterministic budget)")
    p.add_argument("--workers", type=int, default=1,
                   help="solve subjects across this many processes")
    p.add_argument("--base-seed", type=int, default=0,
                   help="campaign root seed; same seed, same report")
    p.add_argument("--families", nargs="*",
                   choices=sorted(GENERATOR_FAMILIES), metavar="FAMILY",
                   help="generator families to draw from (default: all)")
    p.add_argument("--mutants", type=int, default=2,
                   help="metamorphic mutants derived per case")
    p.add_argument("--shrink", action="store_true",
                   help="ddmin-minimize every failure and write it to the "
                        "corpus as a DIMACS + manifest repro pair")
    p.add_argument("--corpus", default="fuzz-corpus", metavar="DIR",
                   help="failure corpus directory (with --shrink)")
    p.add_argument("--task-timeout", type=float,
                   help="wall-clock seconds per solve attempt (supervised)")
    p.add_argument("--cache-dir",
                   help="on-disk result cache for the solve fan-out")
    p.add_argument("--replay", nargs="+", metavar="MANIFEST",
                   help="replay corpus entries (.json manifests) through "
                        "the full oracle bank instead of running a campaign")
    _add_obs_args(p)
    p.set_defaults(func=cmd_fuzz)


def cmd_fuzz(args) -> int:
    """Handle ``repro fuzz``: run a campaign, or replay corpus entries."""
    from repro.fuzz import (
        CampaignConfig,
        render_report,
        replay_entry,
        run_campaign,
    )

    if args.replay:
        failures = 0
        for manifest in args.replay:
            found = replay_entry(manifest)
            verdict = "clean" if not found else f"{len(found)} discrepancies"
            print(f"{manifest}: {verdict}")
            for discrepancy in found:
                print(f"  {discrepancy.summary()}")
            failures += len(found)
        return 1 if failures else 0

    obs = _observer_from_args(args, "fuzz")
    config = CampaignConfig(
        seeds=args.seeds,
        base_seed=args.base_seed,
        budget=args.budget,
        workers=args.workers,
        families=args.families or (),
        mutants=args.mutants,
        shrink=args.shrink,
        corpus_dir=args.corpus if args.shrink else None,
        task_timeout=args.task_timeout,
        cache_dir=args.cache_dir,
    )
    report = run_campaign(config, observer=obs)
    print(render_report(report))
    code = 0 if report.clean else 1
    _finish_observer(obs, code)
    return code


def _add_report(subparsers) -> None:
    p = subparsers.add_parser(
        "report",
        help="summarize trace files, or rebuild EXPERIMENTS.md with no args",
    )
    p.add_argument("traces", nargs="*",
                   help="trace .jsonl files written by --trace, or run ids "
                        "resolved through the run store; with none, "
                        "EXPERIMENTS.md is rebuilt from benchmarks/results/")
    p.add_argument("--validate", action="store_true",
                   help="check every trace line against the event schema "
                        "and exit 1 on any violation")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable summary instead of text")
    p.add_argument("--store", metavar="PATH",
                   help="run store used to resolve run ids and --latest "
                        "(default: $REPRO_STORE, else "
                        "$REPRO_TRACE_DIR/runstore.sqlite)")
    p.add_argument("--latest", metavar="kind=KIND",
                   help="report the most recent stored run of one kind "
                        "(e.g. --latest kind=bench)")
    p.set_defaults(func=cmd_report)


def _resolve_report_traces(args) -> List[str]:
    """Map run ids and ``--latest`` selectors onto stored trace paths.

    Arguments naming existing files pass through untouched; anything
    else is treated as a run id and resolved via the store's ``trace``
    artifact, so ``repro report r-1f2e3d4c5b6a`` works anywhere the
    run was ingested.
    """
    from pathlib import Path

    literal = [item for item in args.traces if Path(item).exists()]
    unresolved = [item for item in args.traces if not Path(item).exists()]
    if not unresolved and not args.latest:
        return literal
    traces: List[str] = []
    with _store_from_args(args) as store:
        if args.latest:
            selector = args.latest
            kind = selector.split("=", 1)[1] if "=" in selector else selector
            run = store.latest_run(kind)
            if run is None:
                raise SystemExit(f"no runs of kind {kind!r} in the store")
            path = store.trace_path(run["run_id"])
            if path is None:
                raise SystemExit(
                    f"run {run['run_id']} has no trace artifact"
                )
            traces.append(str(path))
        for item in args.traces:
            if Path(item).exists():
                traces.append(item)
                continue
            path = store.trace_path(item)
            if path is None:
                raise SystemExit(
                    f"{item}: not a trace file and not a stored run id"
                )
            traces.append(str(path))
    return traces


def cmd_report(args) -> int:
    """Handle ``repro report``: trace summary, or EXPERIMENTS.md rebuild."""
    if not args.traces and not args.latest:
        from repro.bench.reporting import build_experiments_md

        build_experiments_md()
        print("EXPERIMENTS.md rebuilt from benchmarks/results/")
        return 0

    from repro.obs import render_report, summarize_traces, validate_traces

    traces = _resolve_report_traces(args)
    if args.validate:
        errors = validate_traces(traces)
        if errors:
            for error in errors:
                print(f"invalid: {error}", file=sys.stderr)
            return 1
    summary = summarize_traces(traces)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    else:
        print(render_report(summary), end="")
    return 0


def _store_from_args(args):
    """Open the run store a query subcommand should read.

    ``--store`` wins, then ``$REPRO_STORE``, then the auto-store beside
    ``$REPRO_TRACE_DIR``.  Exits with guidance when nothing resolves —
    query surfaces need an explicit target, unlike the silently
    best-effort registration hooks.
    """
    import os

    from repro.store import RunStore, resolve_auto_store

    path = getattr(args, "store", None) or resolve_auto_store(
        os.environ.get("REPRO_TRACE_DIR") or None
    )
    if path is None:
        raise SystemExit(
            "no run store: pass --store PATH, or set REPRO_STORE (or "
            "REPRO_TRACE_DIR, whose runstore.sqlite is the default)"
        )
    return RunStore(path)


def _parse_when(text: Optional[str]) -> Optional[float]:
    """A ``--since``/``--until`` value as unix seconds.

    Accepts raw unix seconds, ``YYYY-MM-DD`` (with optional time), or a
    relative age like ``7d`` / ``12h`` / ``30m`` meaning that long ago.
    """
    if text is None:
        return None
    import time as _time

    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    unit = {"d": 86400.0, "h": 3600.0, "m": 60.0, "s": 1.0}.get(text[-1:])
    if unit is not None:
        try:
            return _time.time() - float(text[:-1]) * unit
        except ValueError:
            pass
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S",
                "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            return _time.mktime(_time.strptime(text, fmt))
        except ValueError:
            continue
    raise SystemExit(
        f"unrecognized time {text!r} (expected unix seconds, YYYY-MM-DD, "
        f"or a relative age like 7d / 12h / 30m)"
    )


def _add_query_common(p) -> None:
    """Flags every ``repro query`` subcommand shares."""
    p.add_argument("--store", metavar="PATH",
                   help="run store path (default: $REPRO_STORE, else "
                        "$REPRO_TRACE_DIR/runstore.sqlite)")
    p.add_argument("--format", default="table",
                   choices=("table", "csv", "json"),
                   help="output format (default: table)")
    p.add_argument("--json", action="store_const", const="json",
                   dest="format", help="shorthand for --format json")
    p.add_argument("--limit", type=int,
                   help="return at most this many rows")


def _add_query(subparsers) -> None:
    p = subparsers.add_parser(
        "query",
        help="interrogate the run store (runs / metrics / traces); "
             "see docs/run_store.md for a cookbook",
    )
    sub = p.add_subparsers(dest="query_command", required=True)

    runs = sub.add_parser("runs", help="list indexed runs, newest first")
    runs.add_argument("--kind",
                      help="only runs of this kind (solve, dataset, bench, "
                           "fuzz, serve, chaos, bench-file, ...)")
    runs.add_argument("--status",
                      help="only runs with this status "
                           "(ok, failed, running, incomplete)")
    runs.add_argument("--commit", help="only runs from this source commit")
    runs.add_argument("--since", metavar="WHEN",
                      help="only runs created at/after WHEN "
                           "(unix seconds, YYYY-MM-DD, or 7d/12h ago)")
    runs.add_argument("--until", metavar="WHEN",
                      help="only runs created at/before WHEN")
    _add_query_common(runs)

    metrics = sub.add_parser(
        "metrics", help="flattened metric rows across runs"
    )
    metrics.add_argument("--run", metavar="RUN_ID",
                         help="only metrics from this run")
    metrics.add_argument("--name",
                         help="metric name; * wildcards select families "
                              "(e.g. --name 'serve.*')")
    metrics.add_argument("--kind", dest="metric_kind",
                         choices=("counter", "gauge", "histogram", "event"),
                         help="only metrics of this kind")
    _add_query_common(metrics)

    traces = sub.add_parser(
        "traces", help="artifact references (trace files by default)"
    )
    traces.add_argument("--run", metavar="RUN_ID",
                        help="only artifacts of this run")
    traces.add_argument("--role", default="trace",
                        help="artifact role: trace (default), manifest, "
                             "bench-json, fuzz-repro, ... or 'all'")
    traces.add_argument("--kind", help="only artifacts of runs of this kind")
    _add_query_common(traces)

    p.set_defaults(func=cmd_query)


def cmd_query(args) -> int:
    """Handle ``repro query``: render one store query as table/csv/json."""
    from repro.store import (
        ARTIFACT_COLUMNS,
        METRIC_COLUMNS,
        RUN_COLUMNS,
        format_rows,
        humanize_unix,
    )

    with _store_from_args(args) as store:
        if args.query_command == "runs":
            rows = store.runs(
                kind=args.kind,
                status=args.status,
                commit=args.commit,
                since=_parse_when(args.since),
                until=_parse_when(args.until),
                limit=args.limit,
            )
            columns = list(RUN_COLUMNS)
            if args.format == "table":
                columns[columns.index("created_unix")] = "created"
                for row in rows:
                    row["created"] = humanize_unix(row["created_unix"])
        elif args.query_command == "metrics":
            rows = store.metrics(
                run_id=args.run,
                name=args.name,
                metric_kind=args.metric_kind,
                limit=args.limit,
            )
            columns = list(METRIC_COLUMNS)
        else:  # traces
            role = None if args.role in ("all", "any", "*") else args.role
            rows = store.artifacts(
                run_id=args.run, role=role, kind=args.kind, limit=args.limit
            )
            columns = list(ARTIFACT_COLUMNS)
        print(format_rows(rows, columns, args.format))
    return 0


def _add_trend(subparsers) -> None:
    p = subparsers.add_parser(
        "trend",
        help="ingest BENCH_*.json files into the store, print "
             "rolling-baseline deltas, optionally gate regressions",
    )
    p.add_argument("bench", nargs="*", metavar="BENCH_JSON",
                   help="benchmark result files to ingest before querying "
                        "(idempotent: re-ingesting a file replaces its rows)")
    p.add_argument("--store", metavar="PATH",
                   help="run store path (default: $REPRO_STORE, else "
                        "$REPRO_TRACE_DIR/runstore.sqlite)")
    p.add_argument("--commit",
                   help="commit ref stamped on ingested files that carry "
                        "none (older BENCH files predate the git stamp)")
    p.add_argument("--check-regression", action="store_true",
                   help="exit 1 when the newest aggregate arena/legacy "
                        "ratio is more than 10%% below its rolling "
                        "baseline (the CI BCP gate)")
    p.add_argument("--format", default="table",
                   choices=("table", "csv", "json"),
                   help="trend row output format (default: table)")
    p.add_argument("--json", action="store_const", const="json",
                   dest="format", help="shorthand for --format json")
    p.set_defaults(func=cmd_trend)


def cmd_trend(args) -> int:
    """Handle ``repro trend``: ingest + trend + optional regression gate."""
    from repro.store import (
        REGRESSION_THRESHOLD,
        TREND_COLUMNS,
        StoreIngestError,
        bench_trend,
        check_regression,
        format_rows,
    )

    with _store_from_args(args) as store:
        for path in args.bench:
            try:
                count = store.ingest_bench(path, commit=args.commit)
            except StoreIngestError as exc:
                raise SystemExit(f"cannot ingest {path}: {exc}")
            print(f"c ingested {path}: {count} series rows", file=sys.stderr)
        print(format_rows(bench_trend(store), list(TREND_COLUMNS), args.format))
        if args.check_regression:
            check = check_regression(store)
            if not check.ok:
                for failure in check.failures:
                    print(f"REGRESSION: {failure}", file=sys.stderr)
                return 1
            print(
                f"c trend gate: {check.checked} series within "
                f"{100 * REGRESSION_THRESHOLD:.0f}% of their rolling baseline",
                file=sys.stderr,
            )
    return 0


def _add_select(subparsers) -> None:
    p = subparsers.add_parser(
        "select", help="pick a deletion policy with a trained model, then solve"
    )
    p.add_argument("file")
    p.add_argument("--weights", required=True)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--max-conflicts", type=int)
    p.add_argument("--max-propagations", type=int)
    p.set_defaults(func=cmd_select)


def cmd_select(args) -> int:
    """Handle ``repro select``: model-guided policy choice, then solve."""
    from repro.models import NeuroSelect
    from repro.nn import load_module
    from repro.selection import NeuroSelectSolver

    cnf = parse_dimacs_file(args.file)
    model = NeuroSelect(hidden_dim=args.hidden_dim, seed=0)
    load_module(model, args.weights)
    outcome = NeuroSelectSolver(model).solve(
        cnf,
        max_conflicts=args.max_conflicts,
        max_propagations=args.max_propagations,
    )
    print(f"policy:    {outcome.policy_name} (label {outcome.predicted_label}, "
          f"inference {outcome.inference_seconds * 1000:.1f} ms)")
    print(f"s {outcome.result.status.value}")
    stats = outcome.result.stats
    print(f"c conflicts {stats.conflicts}")
    print(f"c propagations {stats.propagations}")
    return {Status.SATISFIABLE: 10, Status.UNSATISFIABLE: 20}.get(
        outcome.result.status, 0
    )


class _ServeHelpFormatter(argparse.HelpFormatter):
    """Appends a config-backed flag's default, read from
    :class:`ServeConfig` / :class:`BreakerConfig` (imported only when
    help is printed: ``repro.serve`` pulls in numpy)."""

    def _get_help_string(self, action):
        from repro.serve import BreakerConfig, ServeConfig

        if action.default is argparse.SUPPRESS and action.help:
            for config in (ServeConfig(), BreakerConfig()):
                if hasattr(config, action.dest):
                    default = getattr(config, action.dest)
                    return f"{action.help} (default: {default})"
        return action.help


def _add_serve(subparsers) -> None:
    p = subparsers.add_parser(
        "serve",
        help="run the async solve service (JSON over HTTP on localhost)",
        formatter_class=_ServeHelpFormatter,
    )
    # Each config-backed flag's dest is its ServeConfig / BreakerConfig
    # field and it takes no parser default: an absent flag leaves the
    # config's own default in force.
    setting = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123,
                   help="listen port; 0 picks a free one (printed at start)")
    p.add_argument("--weights",
                   help="trained NeuroSelect weights (.npz); without them "
                        "a fresh seeded model is used — untrained but "
                        "deterministic, so batching is still exercised")
    p.add_argument("--hidden-dim", type=int, default=32)
    setting("--max-batch", type=int,
            help="most queued requests coalesced into one inference "
                 "pass")
    setting("--max-queue", dest="max_queue_depth", type=int,
            help="admission cap on in-flight requests; beyond it "
                 "submissions are rejected with 429")
    setting("--default-max-conflicts", type=int,
            help="conflict budget for requests that name none")
    setting("--max-conflicts-cap", type=int,
            help="hard ceiling every request budget is clamped to")
    setting("--workers", type=int,
            help="solver processes per solve group")
    setting("--task-timeout", type=float,
            help="per-request wall-clock budget, seconds "
                 "(breach answers 504 TIMEOUT)")
    setting("--memory-limit-mb", type=float,
            help="per-request worker memory cap "
                 "(breach answers 507 MEMOUT)")
    setting("--cache-dir",
            help="on-disk result cache shared across requests")
    setting("--journal",
            help="append-only journal; a restarted service answers "
                 "already-solved requests from it without re-solving")
    p.add_argument("--breaker", action="store_true",
                   help="guard the inference path with a circuit breaker: "
                        "while it is open, requests are served by the "
                        "default policy and tagged degraded")
    setting("--breaker-window", dest="window", type=int,
            help="rolling sample window the failure rate is "
                 "computed over (with --breaker)")
    setting("--breaker-threshold", dest="failure_threshold", type=float,
            help="failure rate in (0,1] that opens the breaker")
    setting("--breaker-cooldown", dest="cooldown_seconds", type=float,
            help="seconds an open breaker waits before sending "
                 "half-open probes")
    setting("--breaker-slow-seconds", dest="slow_seconds", type=float,
            help="forward passes slower than this count as "
                 "failures (latency breaker)")
    setting("--inference-timeout", type=float,
            help="hard cap on one batched forward pass, seconds; "
                 "a breach degrades the batch to the default policy")
    setting("--conflicts-per-second", type=float,
            help="calibration rate converting a request's remaining "
                 "deadline into an affordable conflict budget")
    setting("--session-ttl", type=float,
            help="idle seconds before a sticky incremental session "
                 "(POST /sessions) is evicted")
    setting("--max-sessions", type=int,
            help="concurrent live session cap; beyond it session "
                 "creation is rejected with 429")
    setting("--session-drift-threshold", type=float,
            help="expert-feature drift past which a session re-runs "
                 "HGT policy inference instead of reusing its "
                 "cached embedding")
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)


def cmd_serve(args) -> int:
    """Handle ``repro serve``: run the solve service until SIGINT/SIGTERM.

    An out-of-range setting exits 2 with a one-line error."""
    import asyncio
    import signal
    from dataclasses import asdict, fields

    from repro.serve import BreakerConfig, ServeConfig, SolveService
    from repro.serve.http import bound_address, start_service

    def given(config_class) -> dict:
        return {
            f.name: getattr(args, f.name)
            for f in fields(config_class)
            if hasattr(args, f.name)
        }

    try:
        breaker = BreakerConfig(**given(BreakerConfig)) if args.breaker else None
        config = ServeConfig(**{**given(ServeConfig), "breaker": breaker})
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    # The run manifest records every setting in force, defaults included.
    settings = asdict(config)
    settings.update(settings.pop("breaker") or {}, breaker=args.breaker)
    vars(args).update(settings)

    from repro.models import NeuroSelect

    obs = _observer_from_args(args, "serve")
    model = NeuroSelect(hidden_dim=args.hidden_dim, seed=0)
    if args.weights:
        from repro.nn import load_module

        load_module(model, args.weights)

    async def _serve() -> None:
        service = SolveService(model, config, observer=obs)
        server, _ = await start_service(service, args.host, args.port)
        host, port = bound_address(server)
        obs.event(
            "serve-start",
            host=host,
            port=port,
            max_batch=config.max_batch,
            max_queue_depth=config.max_queue_depth,
            workers=config.workers,
            weights=bool(args.weights),
        )
        print(f"c serve listening on http://{host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("c serve draining", flush=True)
        server.close()
        await server.wait_closed()
        await service.stop(drain=True)
        # One more turn of the loop so held `wait=true` responses land
        # on their (still-open) connections before the loop shuts down.
        await asyncio.sleep(0.1)
        stats = service.stats()
        print(
            f"c serve stopped: {stats['requests']} requests, "
            f"{stats['responses']} responses, "
            f"{stats['rejected']} rejected, "
            f"{stats['inference_passes']} inference passes",
            flush=True,
        )

    asyncio.run(_serve())
    _finish_observer(obs, 0)
    return 0


def _add_chaos(subparsers) -> None:
    p = subparsers.add_parser(
        "chaos",
        help="run a scripted fault-injection scenario against a live "
             "service instance and judge the resilience invariants",
    )
    p.add_argument("--scenario", default="mixed",
                   help="scenario name (see --list; default: mixed)")
    p.add_argument("--seed", type=int, default=0,
                   help="formula seed; same seed, same fingerprint")
    p.add_argument("--list", action="store_true",
                   help="list available scenarios and exit")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable report instead of text")
    p.add_argument("--check-determinism", action="store_true",
                   help="run the scenario twice in fresh workdirs and "
                        "fail unless the fingerprints are identical")
    p.add_argument("--workdir",
                   help="directory for the scenario journal (default: a "
                        "fresh temporary directory)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_chaos)


def cmd_chaos(args) -> int:
    """Handle ``repro chaos``: run one scenario, exit 1 on any violation."""
    from repro.chaos import (
        get_scenario,
        render_report,
        run_scenario,
        scenario_names,
    )

    if args.list:
        for name in scenario_names():
            scenario = get_scenario(name)
            print(f"{name:16s} {scenario.description}")
        return 0
    scenario = get_scenario(args.scenario)
    obs = _observer_from_args(args, "chaos")
    report = run_scenario(
        scenario, seed=args.seed, workdir=args.workdir, observer=obs
    )
    reports = [report]
    if args.check_determinism:
        again = run_scenario(scenario, seed=args.seed, observer=obs)
        reports.append(again)
    if args.json:
        print(json.dumps(
            [r.as_json() for r in reports], indent=2, sort_keys=True
        ))
    else:
        for r in reports:
            print(render_report(r))
    code = 0 if all(r.ok for r in reports) else 1
    if args.check_determinism:
        fingerprints = {r.fingerprint for r in reports}
        if len(fingerprints) > 1:
            print(f"NON-DETERMINISTIC: fingerprints differ: "
                  f"{sorted(fingerprints)}")
            code = 1
        else:
            print(f"deterministic: {report.fingerprint[:16]} across "
                  f"{len(reports)} runs")
    _finish_observer(obs, code)
    return code


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeuroSelect reproduction: CDCL solving with learned "
        "clause-deletion policy selection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_solve(subparsers)
    _add_generate(subparsers)
    _add_features(subparsers)
    _add_label(subparsers)
    _add_dataset(subparsers)
    _add_train(subparsers)
    _add_select(subparsers)
    _add_trim(subparsers)
    _add_bench(subparsers)
    _add_fuzz(subparsers)
    _add_report(subparsers)
    _add_query(subparsers)
    _add_trend(subparsers)
    _add_serve(subparsers)
    _add_chaos(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimacsError as exc:
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, the
        # standard CLI convention.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os.close(2)
        return 0


if __name__ == "__main__":
    sys.exit(main())
