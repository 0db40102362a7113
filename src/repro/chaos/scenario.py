"""Scripted chaos scenarios against a real, live solve service.

A :class:`ChaosScenario` describes a deterministic failure storm —
which forward passes crash or stall, which workers are killed, which
journal writes fail, which clients vanish mid-wait — and
:func:`run_scenario` drives it against a real :class:`SolveService`
(with its HTTP front door bound, so client disconnects are genuine
socket closes) and then judges the wreckage against the service's
resilience contract:

* **terminal** — every request reaches a terminal state; nothing hangs;
* **correct** — every non-failure response matches a direct in-process
  solve of the same (formula, policy, budget) *and* passes the fuzz
  oracle bank's independent checks (model validity, brute force, DPLL);
* **degraded-honest** — every ``degraded`` response used the default
  policy and equals a direct default-policy solve: degraded mode costs
  selection quality, never answers;
* **fault-delivery** — every scheduled fault demonstrably fired and
  produced its expected failure shape (kill→ERROR, memout→MEMOUT);
* **breaker** — where configured, the breaker opened under sustained
  inference failure and recovered through a half-open probe;
* **replay** — after a mid-scenario restart on the same journal,
  re-submitted requests resume from disk with their original results.

Determinism: requests are submitted in *waves* of exactly
``max_batch`` members, so batch membership — and therefore which
requests a failed forward pass degrades — is schedule-independent.
Faults key on ordinals (forward-pass number, request number, journal
write number), never on timestamps.  The per-request facts that cannot
depend on timing are folded into a SHA-256 **fingerprint**; running a
scenario twice with the same seed must produce the same fingerprint
(the ``repro chaos --check-determinism`` gate).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.chaos.faults import (
    ChaoticModel,
    InferenceFault,
    attach_worker_faults,
    journal_for,
)
from repro.cnf.dimacs import to_dimacs
from repro.cnf.formula import CNF
from repro.cnf.generators import random_ksat
from repro.fuzz.oracles import (
    BruteForceOracle,
    DPLLOracle,
    ModelCheckOracle,
    OracleContext,
    formula_key,
)
from repro.models.neuroselect import NeuroSelect
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.parallel.supervisor import Fault
from repro.policies.registry import get_policy
from repro.serve.http import bound_address, start_service
from repro.serve.resilience import BreakerConfig
from repro.serve.service import ServeConfig, SolveService
from repro.solver.solver import Solver
from repro.solver.types import Status

#: Hard per-wave guard: a wave not terminal within this long IS a hang.
WAVE_GUARD_SECONDS = 120.0


@dataclass(frozen=True)
class ChaosScenario:
    """One scripted failure storm (see module docs for semantics)."""

    name: str
    description: str
    waves: int = 2
    #: Requests per wave; also the service's ``max_batch``, so one wave
    #: is exactly one (size-triggered) inference batch.
    wave_size: int = 3
    #: Conflict budget per request (deterministic effort bound).
    budget: int = 2000
    #: Forward-pass ordinal (1-based) -> injected inference fault.
    inference_faults: Mapping[int, InferenceFault] = field(
        default_factory=dict
    )
    #: Request ordinal (0-based, submission order) -> worker fault.
    worker_faults: Mapping[int, Fault] = field(default_factory=dict)
    #: Journal ``record`` ordinals (1-based) that fail with ``OSError``.
    journal_fail_writes: Tuple[int, ...] = ()
    #: Request ordinals submitted over HTTP and disconnected mid-wait.
    disconnect_ordinals: Tuple[int, ...] = ()
    #: Stop the service after this wave (1-based) and restart it on the
    #: same journal; before continuing, every prior non-disconnected
    #: formula is re-submitted and checked for replay consistency.
    restart_after_wave: Optional[int] = None
    #: Breaker guarding inference (None: unguarded).
    breaker: Optional[BreakerConfig] = None
    #: Batcher forward-pass timeout, seconds (None: uncapped).
    inference_timeout: Optional[float] = None
    #: Pause between waves, seconds (lets a breaker cooldown elapse).
    wave_pause: float = 0.0
    #: Assert the breaker opened *and* recovered via half-open probe.
    expect_breaker_recovery: bool = False

    @property
    def total_requests(self) -> int:
        return self.waves * self.wave_size


@dataclass
class RequestRecord:
    """Deterministic per-request facts, as served."""

    ordinal: int
    wave: int
    phase: str                    # "main" | "replay"
    dimacs_sha: str
    num_vars: int
    status: str = ""
    policy: str = ""
    degraded: bool = False
    resumed: bool = False
    cached: bool = False
    code: Optional[int] = None
    error: str = ""
    terminal: bool = False
    disconnected: bool = False
    wall_seconds: float = 0.0
    model: Optional[List[Optional[bool]]] = None
    cnf: Optional[CNF] = None     # kept for invariant checks, not JSON

    def facts(self) -> Dict[str, Any]:
        """The timing-independent slice that feeds the fingerprint."""
        return {
            "ordinal": self.ordinal,
            "phase": self.phase,
            "sha": self.dimacs_sha[:16],
            "status": "DISCONNECTED" if self.disconnected else self.status,
            "policy": "" if self.disconnected else self.policy,
            "degraded": self.degraded,
            "resumed": self.resumed,
            "code": None if self.disconnected else self.code,
        }

    def as_json(self) -> Dict[str, Any]:
        record = self.facts()
        record.update(
            wave=self.wave,
            num_vars=self.num_vars,
            terminal=self.terminal,
            error=self.error,
            wall_seconds=round(self.wall_seconds, 6),
        )
        return record


@dataclass
class InvariantResult:
    """Verdict of one resilience invariant."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything one scenario run produced, judged."""

    scenario: str
    seed: int
    records: List[RequestRecord]
    invariants: List[InvariantResult]
    breaker_transitions: List[Tuple[str, str, str]]
    service_stats: Dict[str, Any]
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def as_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "fingerprint": self.fingerprint,
            "invariants": [
                {"name": i.name, "ok": i.ok, "detail": i.detail}
                for i in self.invariants
            ],
            "breaker_transitions": [list(t) for t in self.breaker_transitions],
            "records": [r.as_json() for r in self.records],
            "service": self.service_stats,
        }


def scenario_fingerprint(records: List[RequestRecord]) -> str:
    """SHA-256 over the canonical JSON of every record's stable facts."""
    blob = json.dumps(
        [record.facts() for record in records],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Scenario registry

#: Breaker sized for the harness: trips after two bad passes, probes
#: after 0.2 s, closes on the first clean probe.
_FAST_BREAKER = BreakerConfig(
    window=4,
    min_samples=2,
    failure_threshold=0.5,
    cooldown_seconds=0.2,
    half_open_probes=1,
    recovery_successes=1,
)

SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="inference-crash",
            description=(
                "The first two forward passes raise; the breaker opens "
                "after the second, then recovers via a half-open probe "
                "on wave three.  Crashed waves degrade to the default "
                "policy; answers stay correct throughout."
            ),
            waves=3,
            inference_faults={
                1: InferenceFault("raise"),
                2: InferenceFault("raise"),
            },
            breaker=_FAST_BREAKER,
            wave_pause=0.3,
            expect_breaker_recovery=True,
        ),
        ChaosScenario(
            name="inference-hang",
            description=(
                "The first forward pass stalls past the batcher's "
                "inference timeout; its wave degrades, the orphaned "
                "model thread finishes into the void, and the next "
                "wave uses the model again."
            ),
            waves=2,
            inference_faults={1: InferenceFault("hang", seconds=1.0)},
            inference_timeout=0.2,
        ),
        ChaosScenario(
            name="worker-kill",
            description=(
                "One worker is SIGKILLed mid-solve and another OOMs; "
                "both surface as structured failures (ERROR / MEMOUT) "
                "while every sibling request completes normally."
            ),
            waves=2,
            worker_faults={
                1: Fault("kill"),
                4: Fault("memout", message="chaos: injected memout"),
            },
        ),
        ChaosScenario(
            name="journal-flake",
            description=(
                "One journal append fails with OSError mid-run; the "
                "affected response is still served (the journal is an "
                "optimization, not a dependency) and the error is "
                "counted, not raised."
            ),
            waves=2,
            journal_fail_writes=(2,),
        ),
        ChaosScenario(
            name="restart",
            description=(
                "Clean run, then a drain-restart on the same journal; "
                "replayed requests must resume from disk with their "
                "original results instead of re-solving."
            ),
            waves=2,
            restart_after_wave=2,
        ),
        ChaosScenario(
            name="disconnect",
            description=(
                "A client submits over HTTP and tears the connection "
                "mid-wait; its request reaches a terminal state and "
                "sibling requests are untouched."
            ),
            waves=1,
            disconnect_ordinals=(0,),
        ),
        ChaosScenario(
            name="mixed",
            description=(
                "The CI storm: an inference crash trips the breaker, a "
                "worker is killed, a journal append fails, and the "
                "service is restarted mid-scenario — every response "
                "must still be terminal, correct, and replay-"
                "consistent."
            ),
            waves=3,
            inference_faults={1: InferenceFault("raise")},
            worker_faults={4: Fault("kill")},
            journal_fail_writes=(2,),
            restart_after_wave=2,
            breaker=BreakerConfig(
                window=4,
                min_samples=1,
                failure_threshold=1.0,
                cooldown_seconds=0.2,
                half_open_probes=1,
                recovery_successes=1,
            ),
            wave_pause=0.3,
            expect_breaker_recovery=True,
        ),
    )
}


def scenario_names() -> List[str]:
    """Names of every registered chaos scenario, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ChaosScenario:
    """Look up a registered scenario; ``KeyError`` lists the known names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None


# ---------------------------------------------------------------------------
# The harness


def _formula_for(seed: int, ordinal: int) -> CNF:
    """Deterministic per-ordinal instance near the phase transition."""
    num_vars = 8 + (ordinal % 5)
    return random_ksat(
        num_vars, 4 * num_vars, seed=seed * 1000 + ordinal
    )


class _Harness:
    """One scenario execution: drives the service, collects records."""

    def __init__(
        self,
        scenario: ChaosScenario,
        seed: int,
        workdir: Path,
        observer: Observer,
    ):
        self.scenario = scenario
        self.seed = seed
        self.workdir = workdir
        self.observer = observer
        self.journal_path = workdir / "chaos-journal.jsonl"
        self.base_model = NeuroSelect(hidden_dim=8, seed=0)
        self.model: Optional[ChaoticModel] = None
        self.service: Optional[SolveService] = None
        self.server = None
        self.address: Tuple[str, int] = ("", 0)
        #: Request tag -> worker fault, consulted live by the wrapper.
        self.worker_schedule: Dict[str, Fault] = {}
        self.records: List[RequestRecord] = []
        self.breaker_transitions: List[Tuple[str, str, str]] = []
        self.journal_errors = 0
        self.journal_injected = 0
        self.inference_triggered: List[Tuple[int, str]] = []
        self.hangs: List[int] = []

    # -- service lifecycle -------------------------------------------------

    def _config(self) -> ServeConfig:
        scenario = self.scenario
        return ServeConfig(
            max_batch=scenario.wave_size,
            max_queue_depth=max(64, 4 * scenario.wave_size),
            default_max_conflicts=scenario.budget,
            workers=1,
            breaker=scenario.breaker,
            inference_timeout=scenario.inference_timeout,
        )

    async def _start_service(self, with_faults: bool) -> None:
        scenario = self.scenario
        self.model = ChaoticModel(
            self.base_model,
            faults=dict(scenario.inference_faults) if with_faults else {},
            observer=self.observer,
        )
        self.service = SolveService(
            self.model, self._config(), observer=self.observer
        )
        # The journal is installed directly (not via config) so the
        # flaky variant can be injected; the restarted service gets a
        # clean one on the same path.
        self.service.runner.journal = journal_for(
            self.journal_path,
            scenario.journal_fail_writes if with_faults else (),
            observer=self.observer,
        )
        attach_worker_faults(
            self.service.runner, self.worker_schedule, self.observer
        )
        self.server, _ = await start_service(self.service)
        self.address = bound_address(self.server)

    async def _stop_service(self, drain: bool = True) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        if self.service is not None:
            await self.service.stop(drain=drain)
            self._harvest_service()
            self.service = None

    def _harvest_service(self) -> None:
        """Fold one service incarnation's tallies into the run totals."""
        assert self.service is not None and self.model is not None
        if self.service.breaker is not None:
            self.breaker_transitions.extend(
                self.service.breaker.transitions
            )
        self.journal_errors += self.service.runner.journal_errors
        journal = self.service.runner.journal
        self.journal_injected += getattr(journal, "injected", 0)
        self.inference_triggered.extend(self.model.triggered)

    # -- request driving ---------------------------------------------------

    async def _submit_wave(
        self, wave: int, ordinals: List[int], phase: str
    ) -> List[RequestRecord]:
        assert self.service is not None
        scenario = self.scenario
        records: List[RequestRecord] = []
        waiters: List[Tuple[RequestRecord, Any]] = []
        for ordinal in ordinals:
            cnf = _formula_for(self.seed, ordinal)
            record = RequestRecord(
                ordinal=ordinal,
                wave=wave,
                phase=phase,
                dimacs_sha=formula_key(cnf),
                num_vars=cnf.num_vars,
                cnf=cnf,
            )
            records.append(record)
            if (
                phase == "main"
                and ordinal in scenario.disconnect_ordinals
            ):
                record.disconnected = True
                request = await self._disconnect_submit(cnf)
            else:
                request = self.service.submit(
                    cnf, max_conflicts=scenario.budget
                )
                if phase == "main" and ordinal in scenario.worker_faults:
                    self.worker_schedule[request.id] = (
                        scenario.worker_faults[ordinal]
                    )
            waiters.append((record, request))
        self.observer.event(
            "chaos-wave",
            wave=wave,
            phase=phase,
            size=len(ordinals),
            ordinals=ordinals,
        )
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *[
                        request.done.wait()
                        for _, request in waiters
                        if request is not None
                    ]
                ),
                timeout=WAVE_GUARD_SECONDS,
            )
        except asyncio.TimeoutError:
            self.hangs.append(wave)
        for record, request in waiters:
            if request is None:
                continue  # disconnect raced admission; nothing to read
            record.terminal = request.state.terminal
            record.wall_seconds = request.wall_seconds
            if request.state.value == "CANCELLED":
                record.status = "CANCELLED"
                continue
            record.policy = request.policy
            record.degraded = request.degraded
            record.code = request.http_code()
            if request.outcome is not None:
                outcome = request.outcome
                record.status = outcome.status.value
                record.resumed = outcome.resumed
                record.cached = outcome.cached
                record.error = outcome.error
                record.model = outcome.model
        return records

    async def _disconnect_submit(self, cnf: CNF):
        """POST /solve over a raw socket, then tear the connection.

        Returns the admitted :class:`ServeRequest` (found by diffing
        the service's request table), or None if the teardown raced
        admission itself.
        """
        assert self.service is not None
        known = set(self.service.requests)
        host, port = self.address
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps(
            {
                "dimacs": to_dimacs(cnf),
                "max_conflicts": self.scenario.budget,
                "wait": True,
            }
        ).encode("utf-8")
        head = (
            f"POST /solve HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        request = None
        for _ in range(400):  # ~4 s: admission is local and fast
            fresh = [
                r
                for rid, r in self.service.requests.items()
                if rid not in known
            ]
            if fresh:
                request = fresh[0]
                break
            await asyncio.sleep(0.01)
        self.observer.event(
            "chaos-fault",
            point="client",
            kind="disconnect",
            id=getattr(request, "id", None),
        )
        writer.transport.abort()  # RST mid-wait: the chaos, delivered
        return request

    # -- the run -----------------------------------------------------------

    async def run(self) -> ChaosReport:
        scenario = self.scenario
        self.observer.event(
            "chaos-start",
            scenario=scenario.name,
            seed=self.seed,
            waves=scenario.waves,
            wave_size=scenario.wave_size,
        )
        await self._start_service(with_faults=True)
        try:
            next_ordinal = 0
            completed_ordinals: List[int] = []
            for wave in range(1, scenario.waves + 1):
                if wave > 1 and scenario.wave_pause > 0:
                    await asyncio.sleep(scenario.wave_pause)
                ordinals = list(
                    range(next_ordinal, next_ordinal + scenario.wave_size)
                )
                next_ordinal += scenario.wave_size
                self.records.extend(
                    await self._submit_wave(wave, ordinals, "main")
                )
                completed_ordinals.extend(
                    o
                    for o in ordinals
                    if o not in scenario.disconnect_ordinals
                )
                if scenario.restart_after_wave == wave:
                    await self._restart(wave, completed_ordinals)
        finally:
            await self._stop_service(drain=True)
        stats = self._final_stats()
        report = ChaosReport(
            scenario=scenario.name,
            seed=self.seed,
            records=self.records,
            invariants=self._judge(stats),
            breaker_transitions=self.breaker_transitions,
            service_stats=stats,
        )
        report.fingerprint = scenario_fingerprint(self.records)
        self.observer.event(
            "chaos-end",
            scenario=scenario.name,
            ok=report.ok,
            fingerprint=report.fingerprint,
            requests=len(self.records),
        )
        return report

    async def _restart(
        self, wave: int, completed_ordinals: List[int]
    ) -> None:
        """Drain-stop, restart on the same journal, replay everything."""
        await self._stop_service(drain=True)
        self.observer.event("chaos-restart", after_wave=wave)
        # The restarted incarnation runs clean: remaining faults died
        # with the old process, the journal is the survivor under test.
        await self._start_service(with_faults=False)
        self.records.extend(
            await self._submit_wave(wave, list(completed_ordinals), "replay")
        )

    def _final_stats(self) -> Dict[str, Any]:
        return {
            "journal_errors": self.journal_errors,
            "journal_injected": self.journal_injected,
            "inference_faults_fired": len(self.inference_triggered),
            "hanging_waves": list(self.hangs),
        }

    # -- invariants --------------------------------------------------------

    def _judge(self, stats: Dict[str, Any]) -> List[InvariantResult]:
        scenario = self.scenario
        results: List[InvariantResult] = []

        def add(name: str, ok: bool, detail: str = "") -> None:
            results.append(InvariantResult(name, ok, detail))

        # 1. Every request reached a terminal state; no wave hung.
        stuck = [r.ordinal for r in self.records if not r.terminal]
        add(
            "terminal",
            not stuck and not self.hangs,
            f"non-terminal ordinals {stuck}, hung waves {self.hangs}"
            if stuck or self.hangs
            else f"{len(self.records)} requests terminal",
        )

        # 2. Every non-failure response is a correct solve: equal to a
        #    direct in-process solve and clean under the oracle bank.
        mismatches: List[str] = []
        for record in self.records:
            problem = self._verify_correct(record)
            if problem:
                mismatches.append(f"#{record.ordinal}({record.phase}): {problem}")
        add(
            "correct",
            not mismatches,
            "; ".join(mismatches) if mismatches else "all responses verified",
        )

        # 3. Degraded answers are exactly default-policy answers.
        dishonest = [
            f"#{r.ordinal}: degraded but policy={r.policy!r}"
            for r in self.records
            if r.degraded and r.policy != "default"
        ]
        degraded_count = sum(1 for r in self.records if r.degraded)
        expects_degraded = bool(scenario.inference_faults)
        if expects_degraded and degraded_count == 0:
            dishonest.append("inference faults scheduled but nothing degraded")
        add(
            "degraded-honest",
            not dishonest,
            "; ".join(dishonest)
            if dishonest
            else f"{degraded_count} degraded responses, all default-policy",
        )

        # 4. Scheduled faults demonstrably fired with the right shape.
        problems: List[str] = []
        expected_kinds = {"kill": "ERROR", "raise": "ERROR", "memout": "MEMOUT"}
        for ordinal, fault in scenario.worker_faults.items():
            record = next(
                (
                    r
                    for r in self.records
                    if r.ordinal == ordinal and r.phase == "main"
                ),
                None,
            )
            expected = expected_kinds.get(fault.kind)
            if record is None:
                problems.append(f"worker fault #{ordinal}: no record")
            elif expected is not None and record.status != expected:
                problems.append(
                    f"worker fault #{ordinal}: wanted {expected}, "
                    f"got {record.status}"
                )
        fired = len(self.inference_triggered)
        if fired < len(scenario.inference_faults):
            problems.append(
                f"only {fired}/{len(scenario.inference_faults)} "
                "inference faults fired"
            )
        if stats["journal_injected"] != len(scenario.journal_fail_writes):
            problems.append(
                f"journal faults fired {stats['journal_injected']}, "
                f"scheduled {len(scenario.journal_fail_writes)}"
            )
        if stats["journal_errors"] != stats["journal_injected"]:
            problems.append(
                "runner tolerated "
                f"{stats['journal_errors']} journal errors but "
                f"{stats['journal_injected']} were injected"
            )
        add(
            "fault-delivery",
            not problems,
            "; ".join(problems) if problems else "all scheduled faults fired",
        )

        # 5. Breaker opened and recovered, where the scenario says so.
        if scenario.expect_breaker_recovery:
            pairs = [(t[0], t[1]) for t in self.breaker_transitions]
            opened = ("CLOSED", "OPEN") in pairs
            probed = ("OPEN", "HALF_OPEN") in pairs
            closed = ("HALF_OPEN", "CLOSED") in pairs
            add(
                "breaker",
                opened and probed and closed,
                f"transitions: {pairs}",
            )

        # 6. Replay after restart resumes from the journal.
        if scenario.restart_after_wave is not None:
            replayed = [r for r in self.records if r.phase == "replay"]
            originals = {
                r.ordinal: r for r in self.records if r.phase == "main"
            }
            issues: List[str] = []
            resumed = 0
            for record in replayed:
                original = originals.get(record.ordinal)
                if original is None:
                    issues.append(f"replay #{record.ordinal}: no original")
                    continue
                if record.resumed:
                    resumed += 1
                    if record.status != original.status:
                        issues.append(
                            f"replay #{record.ordinal}: resumed "
                            f"{record.status} != original {original.status}"
                        )
                elif record.policy == original.policy and not (
                    original.status in ("CANCELLED",)
                ):
                    # Same key, no resume: only legitimate when that
                    # journal write was one the scenario made fail.
                    if not scenario.journal_fail_writes:
                        issues.append(
                            f"replay #{record.ordinal}: same policy but "
                            "not resumed"
                        )
            if replayed and resumed == 0:
                issues.append("nothing resumed from the journal")
            add(
                "replay",
                not issues,
                "; ".join(issues)
                if issues
                else f"{resumed}/{len(replayed)} replays resumed",
            )

        return results

    def _verify_correct(self, record: RequestRecord) -> str:
        """Cross-check one response; empty string when clean."""
        if record.disconnected or record.status == "CANCELLED":
            return ""
        if record.status in ("TIMEOUT", "MEMOUT", "ERROR"):
            return ""  # failure shapes are judged by fault-delivery
        if record.cnf is None or not record.status:
            return "no outcome recorded"
        status = Status(record.status)
        direct = Solver(
            record.cnf,
            policy=get_policy(record.policy),
        ).solve(max_conflicts=self.scenario.budget)
        if direct.status is not status:
            return (
                f"served {status.value}, direct {record.policy} solve "
                f"says {direct.status.value}"
            )
        # Independent ground truth: the fuzz oracle bank, fed the
        # served (status, model) through the context memo.
        ctx = OracleContext(
            case=f"chaos-{record.ordinal}",
            budget=self.scenario.budget,
            prefill={
                (formula_key(record.cnf), "default"): (
                    status,
                    record.model,
                )
            },
        )
        for oracle in (ModelCheckOracle(), BruteForceOracle(), DPLLOracle()):
            for discrepancy in oracle.check(record.cnf, ctx):
                return f"oracle {oracle.name}: {discrepancy.summary()}"
        return ""


def run_scenario(
    scenario: Union[str, ChaosScenario],
    seed: int = 0,
    workdir: Union[str, Path, None] = None,
    observer: Observer = NULL_OBSERVER,
) -> ChaosReport:
    """Run one scenario to a judged :class:`ChaosReport` (sync wrapper)."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix=f"chaos-{scenario.name}-")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    harness = _Harness(scenario, seed, workdir, observer)
    return asyncio.run(harness.run())


def render_report(report: ChaosReport) -> str:
    """Human-readable scenario verdict."""
    lines = [
        f"chaos scenario {report.scenario!r} (seed {report.seed}): "
        + ("OK" if report.ok else "FAILED"),
        f"  requests: {len(report.records)}  "
        f"fingerprint: {report.fingerprint[:16]}",
    ]
    for inv in report.invariants:
        mark = "ok " if inv.ok else "FAIL"
        lines.append(f"  [{mark}] {inv.name}: {inv.detail}")
    if report.breaker_transitions:
        lines.append("  breaker:")
        for from_state, to_state, reason in report.breaker_transitions:
            lines.append(f"    {from_state} -> {to_state}: {reason}")
    return "\n".join(lines)
