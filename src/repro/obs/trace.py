"""Structured trace events: buffered JSONL sink, reader, and schema.

One trace file is one *run* (a ``repro solve`` invocation, a labelling
sweep, a training job).  Every line is a self-describing JSON object::

    {"event": "restart", "ts": 0.1042, "run_id": "r-1f2e3d4c5b6a",
     "seq": 17, ...event fields...}

* ``event``   — one of :data:`EVENT_TYPES` (schema-checked by
  ``repro report --validate`` and the CI pipeline job);
* ``ts``      — seconds since the run started, from a **monotonic**
  clock, so event intervals survive wall-clock adjustments;
* ``run_id``  — random per-run identifier, shared with the run's
  :class:`~repro.obs.manifest.RunManifest`;
* ``seq``     — per-run line number, so sorting and gap detection need
  no timestamps.

Writes are buffered (``buffer_lines`` at a time) to keep tracing off
the syscall path of tight loops, and the reader mirrors the
torn-final-line tolerance of :mod:`repro.parallel.journal`: a process
killed mid-write costs at most the final line.
"""

from __future__ import annotations

import io
import json
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Trace schema version, embedded in ``run-start`` events.
TRACE_FORMAT_VERSION = 1

#: Every legal value of the ``event`` field.  ``repro report --validate``
#: (and the CI observability job) fails on anything outside this set, so
#: new event kinds must be registered here.
EVENT_TYPES = frozenset({
    # run lifecycle
    "run-start", "run-end",
    # solver (repro.solver)
    "solve-start", "solve-end", "restart", "reduce",
    # parallel execution (repro.parallel)
    "task-start", "task-retry", "task-finish", "journal-error",
    # labelling (repro.selection.labeling)
    "label",
    # training (repro.selection.trainer)
    "train-start", "train-end", "epoch-end",
    # benchmark suites (repro.bench.runner)
    "suite-start", "suite-end",
    # differential fuzzing (repro.fuzz)
    "fuzz-start", "fuzz-case", "fuzz-discrepancy", "fuzz-shrink", "fuzz-end",
    # solve service (repro.serve)
    "serve-start", "serve-request", "serve-batch", "serve-response",
    "serve-stop",
    # incremental sessions (repro.solver.session / repro.selection.session
    # / repro.serve.sessions)
    "session-start", "session-select", "session-solve", "session-evict",
    "session-end",
    # resilience (repro.serve.resilience)
    "breaker-transition",
    # chaos harness (repro.chaos)
    "chaos-start", "chaos-wave", "chaos-fault", "chaos-restart", "chaos-end",
    # generic timing span
    "span",
})

#: Keys every event line must carry, with their required types.
REQUIRED_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("event", str),
    ("ts", (int, float)),
    ("run_id", str),
    ("seq", int),
)


def new_run_id() -> str:
    """A fresh random run identifier (``r-`` + 12 hex chars)."""
    return "r-" + uuid.uuid4().hex[:12]


class TraceSink:
    """Buffered JSONL writer for one run's event stream.

    Lines are serialized eagerly (so a mutated field dict cannot
    retroactively change a buffered event) but written in batches of
    ``buffer_lines``.  ``flush`` forces the buffer out; ``close``
    flushes and releases the handle.  The sink never raises into the
    instrumented code path once open: serialization falls back to
    ``str`` for exotic values.

    Emission is thread-safe: the solve service writes ``serve-*``
    events from the event-loop thread while its runner (driven from an
    executor thread) writes ``task-*`` events to the same sink, so the
    buffer, sequence counter, and handle are guarded by one lock.
    """

    def __init__(
        self,
        path: Union[str, Path],
        run_id: Optional[str] = None,
        buffer_lines: int = 64,
    ):
        if buffer_lines < 1:
            raise ValueError("buffer_lines must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or new_run_id()
        self.buffer_lines = buffer_lines
        self.events_written = 0
        self._seq = 0
        self._start = time.monotonic()
        self._buffer: List[str] = []
        self._handle: Optional[io.TextIOWrapper] = None
        self._closed = False
        self._lock = threading.Lock()

    def emit(self, event: str, fields: Optional[Dict[str, Any]] = None) -> None:
        """Append one event line (buffered; see :meth:`flush`)."""
        with self._lock:
            if self._closed:
                return
            record: Dict[str, Any] = {
                "event": event,
                "ts": round(time.monotonic() - self._start, 6),
                "run_id": self.run_id,
                "seq": self._seq,
            }
            if fields:
                for key, value in fields.items():
                    if key not in record:
                        record[key] = value
            self._seq += 1
            self._buffer.append(
                json.dumps(record, separators=(",", ":"), default=str)
            )
            if len(self._buffer) >= self.buffer_lines:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer or self._closed:
            return
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write("\n".join(self._buffer) + "\n")
        self._handle.flush()
        self.events_written += len(self._buffer)
        self._buffer.clear()

    def flush(self) -> None:
        """Write all buffered lines to disk."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def validate_event(record: Any) -> Optional[str]:
    """Schema-check one parsed trace line; returns an error or ``None``."""
    if not isinstance(record, dict):
        return f"line is not a JSON object: {type(record).__name__}"
    for key, expected in REQUIRED_FIELDS:
        if key not in record:
            return f"missing required field {key!r}"
        if not isinstance(record[key], expected) or isinstance(
            record[key], bool
        ):
            return f"field {key!r} has wrong type {type(record[key]).__name__}"
    if record["event"] not in EVENT_TYPES:
        return f"unknown event type {record['event']!r}"
    if record["ts"] < 0:
        return f"negative timestamp {record['ts']!r}"
    if record["seq"] < 0:
        return f"negative sequence number {record['seq']!r}"
    return None


class TraceRead(tuple):
    """Result of :func:`read_trace`: a ``(events, errors)`` pair that
    also carries structured ``warnings``.

    Unpacks exactly like the historical two-tuple —
    ``events, errors = read_trace(path)`` keeps working — while
    :attr:`warnings` surfaces the lines that were *tolerated* rather
    than rejected (a torn final line from a killed writer, interior
    blank lines), each as ``{"line": N, "reason": ..., "detail": ...}``.
    Tolerated-but-dropped lines used to vanish silently; the run store
    and ``repro report`` now count them per run.
    """

    def __new__(
        cls,
        events: List[Dict[str, Any]],
        errors: List[str],
        warnings: List[Dict[str, Any]],
    ) -> "TraceRead":
        self = super().__new__(cls, (events, errors))
        self.warnings = warnings
        return self

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Schema-valid event records, in file order."""
        return self[0]

    @property
    def errors(self) -> List[str]:
        """Rejected lines (``"line N: why"``), empty when clean."""
        return self[1]

    @property
    def warning_count(self) -> int:
        """Number of tolerated (torn/skipped) lines."""
        return len(self.warnings)


def read_trace(path: Union[str, Path], strict: bool = False) -> TraceRead:
    """Load a trace file; returns a :class:`TraceRead`.

    A torn *final* line (the signature of a killed writer, mirroring
    :class:`~repro.parallel.journal.RunJournal`) is tolerated but
    recorded as a structured warning — it no longer disappears
    silently.  Any other malformed or schema-invalid line produces an
    error entry ``"line N: <why>"``; with ``strict`` the first one
    raises :class:`ValueError` instead.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    events: List[Dict[str, Any]] = []
    errors: List[str] = []
    warnings: List[Dict[str, Any]] = []

    def problem(number: int, why: str) -> None:
        message = f"line {number}: {why}"
        if strict:
            raise ValueError(f"{path}: {message}")
        errors.append(message)

    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            warnings.append({
                "line": number,
                "reason": "blank-line",
                "detail": "interior blank line skipped",
            })
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if number == len(lines):
                warnings.append({
                    "line": number,
                    "reason": "torn-final-line",
                    "detail": f"killed writer signature: {exc}",
                })
                continue
            problem(number, "unparseable JSON")
            continue
        why = validate_event(record)
        if why is not None:
            problem(number, why)
            continue
        events.append(record)
    return TraceRead(events, errors, warnings)
