"""Asyncio client for the solve service (stdlib only).

A thin raw-HTTP counterpart to :mod:`repro.serve.http` — one
connection per call, JSON in and out.  Used by
``examples/serve_client.py``, the service tests, and the CI smoke job;
anything that speaks HTTP (``curl``, ``urllib``) works equally well.

::

    client = ServeClient("127.0.0.1", 8123)
    reply = await client.solve("p cnf 2 2\\n1 2 0\\n-1 2 0\\n")
    assert reply.json["status"] in ("SATISFIABLE", "UNSATISFIABLE")

``solve(wait=True)`` holds the connection until the result is ready;
the HTTP status carries the failure taxonomy (200 decided/UNKNOWN,
504 TIMEOUT, 507 MEMOUT, 500 ERROR, 429 queue full / deadline shed,
503 draining).  ``wait=False`` returns the 202 ticket immediately —
poll with :meth:`status` or follow the lifecycle with :meth:`stream`.

Retry: :meth:`solve` retries 429 responses and connection resets with
capped exponential backoff plus deterministic seeded jitter, honoring
the server's ``Retry-After`` hint when it exceeds the computed delay.
Retrying a solve is idempotent by construction — the service's journal
answers a repeated (formula, policy, budget) triple from disk, so a
retried request costs a lookup, not a re-solve.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, Optional, Sequence


@dataclass
class ServeReply:
    """One HTTP exchange: taxonomy code, decoded body, response headers."""

    code: int
    json: Any
    #: Response headers, lower-cased keys (``retry-after`` et al.).
    headers: Dict[str, str] = field(default_factory=dict)
    #: Raw body text for non-JSON responses (Prometheus ``/metrics``).
    text: Optional[str] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.code < 300

    @property
    def retry_after(self) -> Optional[float]:
        """Parsed ``Retry-After`` header, seconds (None when absent)."""
        value = self.headers.get("retry-after")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            return None


async def _read_response(reader: asyncio.StreamReader) -> ServeReply:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    code = int(lines[0].split()[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    else:
        body = await reader.read()  # Connection: close delimits the body
    if body and headers.get("content-type", "").startswith("text/plain"):
        return ServeReply(
            code=code, json=None, headers=headers,
            text=body.decode("utf-8"),
        )
    return ServeReply(
        code=code,
        json=json.loads(body) if body else None,
        headers=headers,
    )


#: Exceptions treated as a retryable transport failure.
_RETRYABLE_ERRORS = (
    ConnectionError,
    asyncio.IncompleteReadError,
    OSError,
)


class ServeClient:
    """Talks to one ``repro serve`` instance at ``host:port``.

    ``max_retries=0`` (the default) keeps the pre-retry behaviour: one
    attempt, errors propagate.  With retries enabled, the backoff for
    failure ``k`` (1-based) is
    ``min(backoff_seconds * multiplier**(k-1), max_backoff_seconds)``,
    raised to the server's ``Retry-After`` when larger, then jittered
    by ``±jitter`` (relative) from a seeded RNG — deterministic per
    client instance, so tests never sleep on randomness.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        *,
        max_retries: int = 0,
        backoff_seconds: float = 0.25,
        multiplier: float = 2.0,
        max_backoff_seconds: float = 5.0,
        jitter: float = 0.1,
        retry_seed: int = 0,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.multiplier = multiplier
        self.max_backoff_seconds = max_backoff_seconds
        self.jitter = jitter
        self._rng = random.Random(retry_seed)
        #: Retries actually performed (introspection for tests/metrics).
        self.retries = 0

    # -- plumbing ----------------------------------------------------------

    async def _open(self):
        return await asyncio.open_connection(self.host, self.port)

    def _request_bytes(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> bytes:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("ascii") + body

    async def _call(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> ServeReply:
        reader, writer = await self._open()
        try:
            writer.write(self._request_bytes(method, path, payload))
            await writer.drain()
            return await _read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- endpoints ---------------------------------------------------------

    def _retry_delay(
        self, failures: int, retry_after: Optional[float]
    ) -> float:
        """Backoff before the next attempt, after ``failures`` failures."""
        raw = self.backoff_seconds * (
            self.multiplier ** max(failures - 1, 0)
        )
        delay = min(raw, self.max_backoff_seconds)
        if retry_after is not None:
            delay = max(delay, retry_after)
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return delay

    async def solve(
        self,
        dimacs: str,
        max_conflicts: Optional[int] = None,
        wait: bool = True,
        deadline: Optional[float] = None,
    ) -> ServeReply:
        """Submit one DIMACS formula; see the module docs for ``wait``.

        ``deadline`` (seconds) is forwarded to the service's admission
        control and budget clamping.  With ``max_retries > 0``, 429
        responses and connection failures are retried (see the class
        docs); the final attempt's response or error surfaces as-is.
        """
        payload: Dict[str, Any] = {"dimacs": dimacs, "wait": wait}
        if max_conflicts is not None:
            payload["max_conflicts"] = max_conflicts
        if deadline is not None:
            payload["deadline"] = deadline
        failures = 0
        while True:
            retry_after: Optional[float] = None
            try:
                reply = await self._call("POST", "/solve", payload)
            except _RETRYABLE_ERRORS:
                if failures >= self.max_retries:
                    raise
            else:
                if reply.code != 429 or failures >= self.max_retries:
                    return reply
                retry_after = reply.retry_after
            failures += 1
            self.retries += 1
            await asyncio.sleep(self._retry_delay(failures, retry_after))

    async def status(self, job_id: str) -> ServeReply:
        """Snapshot of one job (404 when it aged out of the history)."""
        return await self._call("GET", f"/jobs/{job_id}")

    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield lifecycle snapshots until the job reaches a terminal state.

        The first snapshot is the job's current state, so a stream
        opened late still sees (at least) the terminal record.
        """
        reader, writer = await self._open()
        try:
            writer.write(
                self._request_bytes("GET", f"/jobs/{job_id}/events")
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            code = int(head.decode("latin-1").split("\r\n")[0].split()[1])
            if code != 200:
                body = await reader.read()
                raise LookupError(
                    f"stream for {job_id!r} failed: "
                    f"{code} {body.decode('utf-8', 'replace')}"
                )
            while True:
                line = await reader.readline()
                if not line:
                    break
                yield json.loads(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- sticky sessions ---------------------------------------------------

    async def session_create(
        self, dimacs: Optional[str] = None, num_vars: Optional[int] = None
    ) -> ServeReply:
        """Open a sticky incremental session (``POST /sessions``)."""
        payload: Dict[str, Any] = {}
        if dimacs is not None:
            payload["dimacs"] = dimacs
        if num_vars is not None:
            payload["num_vars"] = num_vars
        return await self._call("POST", "/sessions", payload)

    async def session_solve(
        self,
        session_id: str,
        add: Optional[Sequence[Sequence[int]]] = None,
        assumptions: Optional[Sequence[int]] = None,
        max_conflicts: Optional[int] = None,
    ) -> ServeReply:
        """One incremental solve call against a session."""
        payload: Dict[str, Any] = {}
        if add is not None:
            payload["add"] = [list(clause) for clause in add]
        if assumptions is not None:
            payload["assume"] = [int(lit) for lit in assumptions]
        if max_conflicts is not None:
            payload["max_conflicts"] = max_conflicts
        return await self._call(
            "POST", f"/sessions/{session_id}/solve", payload
        )

    async def session_info(self, session_id: str) -> ServeReply:
        """Session snapshot (``GET /sessions/<id>``)."""
        return await self._call("GET", f"/sessions/{session_id}")

    async def session_close(self, session_id: str) -> ServeReply:
        """End a session (``DELETE /sessions/<id>``)."""
        return await self._call("DELETE", f"/sessions/{session_id}")

    async def health(self) -> ServeReply:
        """Service counters (``GET /healthz``)."""
        return await self._call("GET", "/healthz")

    async def metrics_text(self) -> ServeReply:
        """Prometheus text exposition (``reply.text``) from ``/metrics``."""
        return await self._call("GET", "/metrics")

    async def wait_ready(self, timeout: float = 10.0) -> None:
        """Poll ``/healthz`` until the service answers (startup helper)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            try:
                reply = await self.health()
                if reply.ok:
                    return
            except OSError:
                pass
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"service at {self.host}:{self.port} not ready "
                    f"after {timeout:.1f}s"
                )
            await asyncio.sleep(0.05)
