"""Run manifests: the reproducibility record emitted beside every trace.

A :class:`RunManifest` captures everything needed to re-run (or audit)
a labelling sweep, benchmark suite, or training job: the command and
argv, the effective configuration, seeds, the selected policy, the
source revision (``git describe``), the execution environment
(Python, platform, CPU count, ``REPRO_*`` variables), and the solver
engine the run's solves use (the compiled conflict loop ``"c"``, or
``"python"`` with the reason it is unavailable).  It is written as
``<command>-<run_id>-p<pid>.manifest.json`` next to the trace file
*and* embedded in the trace's ``run-start`` event, so a single
``.jsonl`` file is a complete, self-describing run record.

:func:`start_run` is the one-call entry point the CLI uses: it builds
the observer (sink + registry), writes the manifest, and emits
``run-start``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import TRACE_FORMAT_VERSION, TraceSink, new_run_id


def git_describe() -> str:
    """``git describe --always --dirty`` of the source tree, or ``""``.

    Best-effort by design: traces must work from an sdist or a
    container without git installed.
    """
    repo_dir = Path(__file__).resolve().parent
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    if completed.returncode != 0:
        return ""
    return completed.stdout.strip()


@dataclass
class RunManifest:
    """Reproducibility record for one observed run."""

    run_id: str
    command: str
    argv: List[str] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    seeds: Dict[str, int] = field(default_factory=dict)
    policy: str = ""
    git: str = ""
    python: str = ""
    platform: str = ""
    cpu_count: int = 0
    env: Dict[str, str] = field(default_factory=dict)
    created_unix: float = 0.0
    trace_format_version: int = TRACE_FORMAT_VERSION
    solver_engine: str = ""
    solver_engine_reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (field order is stable for diffing)."""
        return {
            "run_id": self.run_id,
            "command": self.command,
            "argv": list(self.argv),
            "config": dict(self.config),
            "seeds": dict(self.seeds),
            "policy": self.policy,
            "git": self.git,
            "python": self.python,
            "platform": self.platform,
            "cpu_count": self.cpu_count,
            "env": dict(self.env),
            "created_unix": self.created_unix,
            "trace_format_version": self.trace_format_version,
            "solver_engine": self.solver_engine,
            "solver_engine_reason": self.solver_engine_reason,
        }

    def write(self, path: Union[str, Path]) -> None:
        """Write the manifest as pretty-printed JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, default=str) + "\n",
            encoding="utf-8",
        )


def collect_manifest(
    run_id: str,
    command: str,
    argv: Optional[Sequence[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    seeds: Optional[Dict[str, int]] = None,
    policy: str = "",
) -> RunManifest:
    """Assemble a :class:`RunManifest` from the current process state."""
    from repro.solver import kernel  # deferred: the solver imports repro.obs

    engine, engine_reason = kernel.engine_info()
    return RunManifest(
        run_id=run_id,
        command=command,
        argv=list(argv or []),
        config=dict(config or {}),
        seeds=dict(seeds or {}),
        policy=policy,
        git=git_describe(),
        python=sys.version.split()[0],
        platform=platform.platform(),
        cpu_count=os.cpu_count() or 0,
        env={
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        created_unix=time.time(),
        solver_engine=engine,
        solver_engine_reason=engine_reason,
    )


def start_run(
    trace_dir: Optional[Union[str, Path]],
    command: str,
    argv: Optional[Sequence[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    seeds: Optional[Dict[str, int]] = None,
    policy: str = "",
    metrics: bool = True,
) -> Observer:
    """Build the observer for one CLI run (or return the null observer).

    With ``trace_dir`` set, creates
    ``<dir>/<command>-<run_id>-p<pid>.jsonl`` and the matching
    ``....manifest.json``, emits ``run-start`` (manifest embedded), and
    returns a live observer whose registry is enabled unless
    ``metrics`` is False.  The filename embeds both the random run id
    and the writer's pid, so concurrent writers sharing one trace
    directory (a sharded sweep, a forking service) can never collide
    on a name.  Without a trace directory the shared
    :data:`~repro.obs.observer.NULL_OBSERVER` is returned —
    observability stays strictly opt-in.

    The run is also auto-registered (status ``running``) in the run
    store resolved by :func:`repro.store.resolve_auto_store` —
    ``$REPRO_STORE``, or ``<trace_dir>/runstore.sqlite`` — and
    ``observer.finish(...)`` ingests the finished trace, so every
    traced run is queryable via ``repro query`` with no caller
    changes.  Store failures never break the run: they degrade to a
    stderr warning.

    Callers should end the run with ``observer.finish(...)`` so the
    ``run-end`` event (phase totals + metrics snapshot) lands in the
    trace and the store row flips from ``running`` to its final
    status.
    """
    if trace_dir is None:
        return NULL_OBSERVER
    run_id = new_run_id()
    trace_dir = Path(trace_dir)
    stem = f"{command}-{run_id}-p{os.getpid()}"
    sink = TraceSink(trace_dir / f"{stem}.jsonl", run_id=run_id)
    manifest = collect_manifest(
        run_id, command, argv=argv, config=config, seeds=seeds, policy=policy
    )
    manifest_path = trace_dir / f"{stem}.manifest.json"
    manifest.write(manifest_path)
    observer = Observer(
        sink=sink, registry=MetricsRegistry(enabled=metrics), run_id=run_id
    )
    observer.event(
        "run-start",
        command=command,
        manifest=manifest.to_dict(),
        format_version=TRACE_FORMAT_VERSION,
    )
    observer.manifest_path = manifest_path
    _register_in_store(observer, trace_dir, manifest)
    return observer


def _register_in_store(
    observer: Observer, trace_dir: Path, manifest: RunManifest
) -> None:
    """Best-effort run-store registration; never raises into the run."""
    try:
        from repro.store import RunStore, resolve_auto_store

        store_path = resolve_auto_store(trace_dir)
        if store_path is None:
            return
        with RunStore(store_path) as store:
            store.register_run(
                run_id=manifest.run_id,
                kind=manifest.command,
                commit=manifest.git,
                policy=manifest.policy,
                created_unix=manifest.created_unix,
                config=manifest.config,
                trace_path=observer.sink.path,
                manifest_path=observer.manifest_path,
            )
        observer.store_path = store_path
    except Exception as exc:  # the store must never take a run down
        print(
            f"warning: run-store registration failed ({exc})",
            file=sys.stderr,
        )
