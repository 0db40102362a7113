"""Asyncio HTTP front door for the solve service (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no web framework, one connection per request (``Connection: close``),
JSON bodies.  Endpoints:

``POST /solve``
    Body ``{"dimacs": "...", "max_conflicts": N?, "deadline": S?,
    "wait": true?}``.  With ``wait`` (the default) the connection is
    held until the solve finishes and the response carries the full
    result under the failure-taxonomy status code (200 / 504 / 507 /
    500 — see :mod:`repro.serve.protocol`).  With ``"wait": false``
    the request is accepted and ``202 {"id": ...}`` returns
    immediately.  ``deadline`` (seconds) is the client's end-to-end
    budget: an infeasible one is shed at admission.  A full queue or a
    shed deadline is ``429``, a draining service ``503`` — both with a
    ``Retry-After`` hint.  Closing the connection while waiting
    cancels the request — it is dropped from its inference batch and
    never reaches a solver.

``GET /jobs/<id>``
    Current request snapshot (``200``), or ``404``.

``GET /jobs/<id>/events``
    NDJSON stream: the current snapshot, then one line per lifecycle
    transition, closing after the terminal state.

``POST /sessions``
    Open a sticky incremental session.  Body ``{"num_vars": N}`` or
    ``{"dimacs": "..."}`` (the seed formula); any other field is
    ``400``.  The idle TTL and drift threshold are the service's
    (``ServeConfig``).  Responds ``201 {"id": ...}``; at capacity ``429``.

``POST /sessions/<id>/solve``
    One incremental call on a session: body ``{"add": [[...], ...]?,
    "assume": [...]?, "max_conflicts": N?}``.  Clauses in ``add`` are
    added first, then the solver runs under the ``assume`` literals.
    The response carries the status, a model (SAT) or the
    failed-assumption core (UNSAT under assumptions), the policy the
    drift-aware selector picked, and whether the cached embedding was
    reused.  ``404`` for an unknown or TTL-evicted session.

``GET /sessions/<id>`` / ``DELETE /sessions/<id>``
    Session snapshot / explicit close.

``GET /healthz``
    Service counters: queue depth, totals, inference passes, sessions,
    and the solver engine (``solver_engine``: ``"c"`` or ``"python"``,
    with ``solver_engine_reason`` when the compiled loop is unavailable).

``GET /metrics``
    Prometheus text exposition format (version 0.0.4): the service
    observer's metrics registry plus the ``/healthz`` counts as
    ``serve_*`` gauges, ready for a scrape target.  Each family appears
    exactly once.

The server binds localhost by default; it is a trusted-network service,
not an internet-facing one (no TLS, no auth — put a real proxy in
front for anything beyond the local machine).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNF
from repro.obs.metrics import render_prometheus
from repro.serve.protocol import AdmissionError, ServeRequest
from repro.serve.service import SolveService

#: Largest accepted request body (a DIMACS formula), in bytes.
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    507: "Insufficient Storage",
}


def _head(
    code: int,
    content_type: str,
    length: Optional[int],
    extra: Optional[Dict[str, str]] = None,
) -> bytes:
    lines = [
        f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    for key, value in (extra or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":"), default=str).encode(
        "utf-8"
    )


async def _send_json(
    writer: asyncio.StreamWriter,
    code: int,
    payload: Any,
    extra: Optional[Dict[str, str]] = None,
) -> None:
    body = _json_bytes(payload)
    writer.write(
        _head(code, "application/json", len(body), extra) + body
    )
    await writer.drain()


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP request: (method, path, headers, body)."""
    raw = await asyncio.wait_for(
        reader.readuntil(b"\r\n\r\n"), timeout=30.0
    )
    head_lines = raw.decode("latin-1").split("\r\n")
    parts = head_lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {head_lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in head_lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise _BodyTooLarge(length)
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class _BodyTooLarge(Exception):
    def __init__(self, length: int):
        super().__init__(f"request body of {length} bytes exceeds cap")
        self.length = length


class HttpFrontDoor:
    """Routes HTTP connections onto one :class:`SolveService`."""

    def __init__(self, service: SolveService):
        self.service = service

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Bind and start serving; ``port=0`` picks a free port."""
        return await asyncio.start_server(self.handle, host, port)

    # -- connection handler ------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
            except _BodyTooLarge as exc:
                await _send_json(writer, 413, {"error": str(exc)})
                return
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ValueError,
            ):
                return  # torn or abandoned connection: nothing to answer
            await self._route(method, path, body, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.partition("?")[0]
        if path == "/solve":
            if method != "POST":
                await _send_json(writer, 405, {"error": "POST /solve"})
                return
            await self._solve(body, reader, writer)
        elif path == "/healthz" and method == "GET":
            await _send_json(writer, 200, self.service.stats())
        elif path == "/metrics" and method == "GET":
            await self._metrics_text(writer)
        elif path == "/sessions":
            if method != "POST":
                await _send_json(writer, 405, {"error": "POST /sessions"})
                return
            await self._session_create(body, writer)
        elif path.startswith("/sessions/"):
            await self._session_route(method, path, body, writer)
        elif path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._stream(rest[: -len("/events")].rstrip("/"), writer)
            else:
                request = self.service.get(rest)
                if request is None:
                    await _send_json(writer, 404, {"error": "no such job"})
                else:
                    await _send_json(writer, 200, request.snapshot())
        else:
            await _send_json(writer, 404, {"error": f"no route {path}"})

    async def _metrics_text(self, writer: asyncio.StreamWriter) -> None:
        """Prometheus text exposition: registry + ``/healthz`` counts."""
        extra: Dict[str, Any] = {}
        for key, value in self.service.stats().items():
            if isinstance(value, dict):  # the nested breaker block
                extra.update(
                    {f"serve.{key}.{k}": v for k, v in value.items()}
                )
            else:
                extra[f"serve.{key}"] = value
        body = render_prometheus(
            self.service.observer.registry.snapshot(), extra_gauges=extra
        ).encode("utf-8")
        writer.write(
            _head(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                len(body),
            )
            + body
        )
        await writer.drain()

    # -- POST /solve -------------------------------------------------------

    async def _solve(
        self,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            cnf = parse_dimacs(payload["dimacs"])
            max_conflicts = payload.get("max_conflicts")
            if max_conflicts is not None:
                max_conflicts = int(max_conflicts)
            deadline = payload.get("deadline")
            if deadline is not None:
                deadline = float(deadline)
            wait = bool(payload.get("wait", True))
        except KeyError as exc:
            await _send_json(
                writer, 400, {"error": f"missing field {exc.args[0]!r}"}
            )
            return
        except Exception as exc:  # malformed JSON or DIMACS
            await _send_json(
                writer, 400, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        try:
            request = self.service.submit(
                cnf, max_conflicts=max_conflicts, deadline_seconds=deadline
            )
        except AdmissionError as exc:
            retry_after = getattr(exc, "retry_after", 1.0)
            await _send_json(
                writer,
                exc.http_code,
                {"error": str(exc), "reason": getattr(exc, "reason", "")},
                extra={"Retry-After": f"{retry_after:g}"},
            )
            return
        if not wait:
            await _send_json(writer, 202, request.snapshot())
            return
        await self._wait_and_respond(request, reader, writer)

    async def _wait_and_respond(
        self,
        request: ServeRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Hold the connection until done; a disconnect cancels the job.

        The client sends nothing after its request, so any read
        completing early (EOF, stray bytes, reset) means the client is
        gone — the request is cancelled before it costs inference or
        solver time.
        """
        done = asyncio.ensure_future(request.done.wait())
        gone = asyncio.ensure_future(reader.read(1))
        try:
            await asyncio.wait(
                {done, gone}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for waiter in (done, gone):
                if not waiter.done():
                    waiter.cancel()
            await asyncio.gather(done, gone, return_exceptions=True)
        if not request.done.is_set():
            self.service.cancel(request.id)
            await request.done.wait()
            return  # nobody is listening for the response
        await _send_json(writer, request.http_code(), request.snapshot())

    # -- /sessions ---------------------------------------------------------

    async def _session_create(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """POST /sessions: open one sticky incremental session."""
        if not self.service.accepting:
            await _send_json(
                writer,
                503,
                {"error": "service is not accepting requests"},
                extra={"Retry-After": "5"},
            )
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            unknown = sorted(set(payload) - {"dimacs", "num_vars"})
            if unknown:
                raise ValueError(f"unknown field(s) {unknown}")
            cnf = None
            if "dimacs" in payload:
                cnf = parse_dimacs(payload["dimacs"])
            num_vars = int(payload.get("num_vars", 0))
            if cnf is None:
                if num_vars <= 0:
                    raise ValueError("provide 'dimacs' or a positive 'num_vars'")
                cnf = CNF(num_vars=num_vars)
        except Exception as exc:  # malformed JSON, DIMACS, or fields
            await _send_json(
                writer, 400, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        try:
            session = self.service.sessions.create(cnf=cnf)
        except AdmissionError as exc:
            await _send_json(
                writer,
                exc.http_code,
                {"error": str(exc), "reason": getattr(exc, "reason", "")},
                extra={"Retry-After": f"{getattr(exc, 'retry_after', 1.0):g}"},
            )
            return
        await _send_json(writer, 201, session.snapshot())

    async def _session_route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Dispatch /sessions/<id>[...] paths."""
        rest = path[len("/sessions/"):]
        if rest.endswith("/solve"):
            session_id = rest[: -len("/solve")].rstrip("/")
            if method != "POST":
                await _send_json(
                    writer, 405, {"error": "POST /sessions/<id>/solve"}
                )
                return
            await self._session_solve(session_id, body, writer)
            return
        session_id = rest.rstrip("/")
        session = self.service.sessions.get(session_id)
        if method == "GET":
            if session is None:
                await _send_json(writer, 404, {"error": "no such session"})
            else:
                await _send_json(writer, 200, session.snapshot())
        elif method == "DELETE":
            if not self.service.sessions.close(session_id):
                await _send_json(writer, 404, {"error": "no such session"})
            else:
                await _send_json(writer, 200, {"id": session_id, "closed": True})
        else:
            await _send_json(
                writer, 405, {"error": "GET or DELETE /sessions/<id>"}
            )

    async def _session_solve(
        self, session_id: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """POST /sessions/<id>/solve: one incremental call."""
        session = self.service.sessions.get(session_id)
        if session is None:
            await _send_json(writer, 404, {"error": "no such session"})
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            add = payload.get("add", [])
            if not isinstance(add, list) or not all(
                isinstance(c, list) for c in add
            ):
                raise ValueError("'add' must be a list of clauses")
            assume = payload.get("assume", [])
            if not isinstance(assume, list):
                raise ValueError("'assume' must be a list of literals")
            max_conflicts = payload.get("max_conflicts")
            if max_conflicts is not None:
                max_conflicts = int(max_conflicts)
        except Exception as exc:
            await _send_json(
                writer, 400, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        try:
            result = await self.service.sessions.solve(
                session,
                add=add,
                assumptions=assume,
                max_conflicts=max_conflicts,
            )
        except ValueError as exc:
            # Out-of-range variables, zero literals: the session stays
            # usable; the bad call is the client's to fix.
            await _send_json(
                writer, 400, {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        await _send_json(writer, 200, result)

    # -- GET /jobs/<id>/events ---------------------------------------------

    async def _stream(
        self, request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON lifecycle stream: snapshot now, then every transition."""
        request = self.service.get(request_id)
        if request is None:
            await _send_json(writer, 404, {"error": "no such job"})
            return
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        request.watchers.append(queue)
        try:
            writer.write(_head(200, "application/x-ndjson", None))
            snapshot = request.snapshot()
            writer.write(_json_bytes(snapshot) + b"\n")
            await writer.drain()
            state = snapshot["state"]
            while state not in ("DONE", "CANCELLED"):
                snapshot = await queue.get()
                writer.write(_json_bytes(snapshot) + b"\n")
                await writer.drain()
                state = snapshot["state"]
        finally:
            if queue in request.watchers:
                request.watchers.remove(queue)


async def start_service(
    service: SolveService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[asyncio.AbstractServer, HttpFrontDoor]:
    """Start the service pipeline and its HTTP listener in one call."""
    await service.start()
    door = HttpFrontDoor(service)
    server = await door.serve(host, port)
    return server, door


def bound_address(server: asyncio.AbstractServer) -> Tuple[str, int]:
    """(host, port) the server actually bound (resolves ``port=0``)."""
    sock = server.sockets[0]
    host, port = sock.getsockname()[:2]
    return host, port
