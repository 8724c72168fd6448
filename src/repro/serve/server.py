"""The asyncio session server: coupling as a service.

One :class:`SessionServer` process hosts many concurrent coupled
sessions.  The event loop owns the control plane — an HTTP/JSONL wire
surface built on plain :mod:`asyncio` streams (no web framework) — and
a :class:`~concurrent.futures.ProcessPoolExecutor` owns execution:
CPU-bound DES runs never touch the loop, so hundreds of sessions can
be in flight while list/attach/cancel requests stay responsive.
Results come back as futures; telemetry flows back over a shared
manager queue that a pump task fans out to per-session subscriber
queues (see :mod:`repro.serve.registry` for the backpressure rules).

Wire surface (one request per connection, ``Connection: close``)::

    POST   /sessions                submit a SessionSpec, returns info
    GET    /sessions                list sessions + server stats
    GET    /sessions/{id}           one session's info
    GET    /sessions/{id}/report    the repro.report/v1 payload
    GET    /sessions/{id}/provenance the repro.prov/v1 log text
    GET    /sessions/{id}/telemetry stream repro.telemetry/v1 JSONL
    DELETE /sessions/{id}           cancel (optional {"reason": ...})
    GET    /stats                   server-wide counters
    GET    /metrics                 OpenMetrics text exposition (scrapeable)
    GET    /fleet                   repro.fleet/v1 rollup payload
    GET    /healthz                 liveness probe
    POST   /shutdown                request graceful drain

``GET /metrics`` is the Prometheus-style scrape surface: per-scenario
fleet rollups (session counts, error rates, T_ub / resolution-latency
/ duration quantiles, buddy savings, telemetry drops — see
:mod:`repro.obs.fleet`) plus server internals (pool size, active
sessions, subscriber queue depths, drop counters) in one exposition,
rendered through the shared :class:`~repro.obs.stream.ExpositionBuilder`
and accepted by :func:`repro.obs.stream.validate_openmetrics`.

Shutdown is a *drain*: the listener closes, queued-but-unstarted
sessions are cancelled with a recorded reason, running ones get
``drain_timeout`` seconds to finish, and the pool is joined before the
process exits — no orphaned workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.registry import ServerFull, SessionRecord, SessionRegistry
from repro.serve.scenarios import build_scenario
from repro.serve.spec import SERVE_SCHEMA, SessionSpec
from repro.serve.worker import init_worker, run_session

__all__ = ["ServeConfig", "SessionServer"]

#: Maximum accepted request-body size (a spec is tiny).
_MAX_BODY = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server process.

    ``port=0`` binds an ephemeral port (the bound one is exposed as
    :attr:`SessionServer.port` after :meth:`SessionServer.start`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    max_sessions: int = 256
    #: Per-subscriber telemetry queue bound (drop-oldest beyond it).
    queue_size: int = 64
    #: Per-session replay ring buffer size.
    buffer_records: int = 512
    #: Seconds in-flight sessions get to finish during drain.
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


class _HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class SessionServer:
    """A long-running server multiplexing coupled sessions."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.registry = SessionRegistry(
            max_sessions=self.config.max_sessions,
            buffer_records=self.config.buffer_records,
            queue_size=self.config.queue_size,
        )
        self.port: int | None = None
        self.draining = False
        #: Set by ``POST /shutdown`` (and by signal handlers in the
        #: CLI); :meth:`serve_until` waits on it.
        self.shutdown_requested: asyncio.Event = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._manager: Any = None
        self._queue: Any = None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._pump_task: asyncio.Task[None] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and spin up the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._manager = multiprocessing.Manager()
        self._queue = self._manager.Queue()
        self._make_pool()
        self._pump_task = asyncio.create_task(self._pump())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port

    def _make_pool(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=init_worker,
            initargs=(self._queue,),
        )
        self._pool_broken = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool; replaced transparently after a hard crash."""
        if self._pool is None:
            raise _HttpError(503, "server not started")
        if self._pool_broken:
            old = self._pool
            self._make_pool()
            old.shutdown(wait=False)
        assert self._pool is not None
        return self._pool

    async def _pump(self) -> None:
        """Move (session_id, record) items from workers into the loop."""
        assert self._loop is not None and self._queue is not None
        while True:
            item = await self._loop.run_in_executor(None, self._queue.get)
            if item is None:
                return
            session_id, record = item
            self.registry.publish(session_id, record)

    async def shutdown(self, drain: bool = True) -> dict[str, Any]:
        """Stop accepting work, drain or cancel sessions, join the pool.

        Returns a summary: how many sessions finished during drain and
        how many were cancelled with what reason.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        active = self.registry.active()
        drained = 0
        if drain and active:
            deadline = asyncio.get_running_loop().time() + self.config.drain_timeout
            for session in active:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(session.done_event.wait(), remaining)
            drained = sum(1 for s in active if s.terminal)
        cancelled = []
        for session in self.registry.active():
            self.registry.request_cancel(session.id, "server shutdown")
            cancelled.append(session.id)
        # Join the pool: queued futures are gone (cancelled above or by
        # cancel_futures), running ones finish their current session.
        # Joined off-loop so completion callbacks and the pump keep
        # landing while the last workers wind down.
        if self._pool is not None:
            pool = self._pool
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True, cancel_futures=True)
            )
        # Give the pump a chance to deliver every queued record, then
        # stop it with the sentinel and let straggler finishes land.
        if self._queue is not None:
            self._queue.put(None)
        if self._pump_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
        for session in self.registry.active():  # futures that never ran
            self.registry.finish(
                session.id, "cancelled", cancel_reason="server shutdown"
            )
        if self._manager is not None:
            self._manager.shutdown()
        return {
            "schema": SERVE_SCHEMA,
            "drained": drained,
            "cancelled": cancelled,
        }

    async def serve_until(self, stop: asyncio.Event | None = None) -> dict[str, Any]:
        """Serve until *stop* (or a shutdown request) fires, then drain."""
        waiters = [asyncio.create_task(self.shutdown_requested.wait())]
        if stop is not None:
            waiters.append(asyncio.create_task(stop.wait()))
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for w in waiters:
                w.cancel()
        return await self.shutdown(drain=True)

    # -- session control ---------------------------------------------------
    def submit(self, spec: SessionSpec) -> SessionRecord:
        """Register *spec* and hand it to the worker pool."""
        if self.draining:
            raise _HttpError(503, "server is draining; not accepting sessions")
        try:
            session = self.registry.create(spec)
        except ServerFull as exc:
            raise _HttpError(429, str(exc)) from exc
        pool = self._ensure_pool()
        try:
            future = pool.submit(run_session, session.id, spec.to_dict())
        except BrokenProcessPool:
            self._pool_broken = True
            future = self._ensure_pool().submit(
                run_session, session.id, spec.to_dict()
            )
        session.future = future
        assert self._loop is not None
        loop = self._loop
        future.add_done_callback(
            lambda fut: loop.call_soon_threadsafe(self._session_done, session.id, fut)
        )
        return session

    def _session_done(self, session_id: str, future: Future[dict[str, Any]]) -> None:
        """Map a finished worker future onto the session's final state."""
        session = self.registry.get(session_id)
        if session is None or session.terminal:
            return
        if future.cancelled():
            self.registry.finish(
                session_id,
                "cancelled",
                cancel_reason=session.cancel_reason or "cancelled before start",
            )
            return
        exc = future.exception()
        if exc is not None:
            if isinstance(exc, BrokenProcessPool):
                self._pool_broken = True
                error = "worker pool broken (worker process died mid-session)"
            else:  # pragma: no cover - run_session catches run errors
                error = f"{type(exc).__name__}: {exc}"
            self.registry.finish(session_id, "failed", error=error)
            return
        # Normal completion: the worker queued an ``outcome`` control
        # record *behind* its final telemetry snapshot, so the pump
        # finishes the session only after every record was fanned out —
        # an attached stream never loses the final line to this
        # callback racing the queue.  The future's result stays as a
        # timed fallback in case the queue path ever goes quiet.
        assert self._loop is not None
        self._loop.call_later(
            2.0, self.registry.apply_outcome, session_id, future.result()
        )

    # -- HTTP plumbing -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body = await self._read_request(reader)
                await self._route(method, target, body, writer)
            except _HttpError as exc:
                await self._respond(
                    writer, exc.status, {"schema": SERVE_SCHEMA, "error": exc.message}
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                pass
            except Exception as exc:  # noqa: BLE001 - wire must answer
                await self._respond(
                    writer,
                    500,
                    {"schema": SERVE_SCHEMA, "error": f"{type(exc).__name__}: {exc}"},
                )
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, Any] | None]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HttpError(400, f"request body too large ({length} bytes)")
        body: dict[str, Any] | None = None
        if length:
            raw = await reader.readexactly(length)
            try:
                parsed = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"request body is not JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise _HttpError(400, "request body must be a JSON object")
            body = parsed
        return method, target, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
    ) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()

    async def _respond_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        data = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()

    def render_metrics(self) -> str:
        """The ``GET /metrics`` exposition: fleet rollups + internals."""
        from repro.obs.stream import ExpositionBuilder

        out = ExpositionBuilder()
        registry = self.registry
        registry.rollup.add_to_exposition(out)
        out.family("repro_server_workers", "gauge", "Worker pool size")
        out.sample("repro_server_workers", "gauge", {}, self.config.workers)
        out.family("repro_server_draining", "gauge", "1 while draining")
        out.sample("repro_server_draining", "gauge", {}, 1 if self.draining else 0)
        out.family("repro_server_sessions", "gauge", "Sessions by lifecycle state")
        by_state: dict[str, int] = {}
        for session in registry.list():
            by_state[session.state] = by_state.get(session.state, 0) + 1
        for state in sorted(by_state):
            out.sample("repro_server_sessions", "gauge",
                       {"state": state}, by_state[state])
        out.family("repro_server_sessions_active", "gauge",
                   "Sessions not yet terminal")
        out.sample("repro_server_sessions_active", "gauge", {},
                   len(registry.active()))
        out.family("repro_server_telemetry_published", "counter",
                   "Telemetry records fanned out")
        out.sample("repro_server_telemetry_published", "counter", {},
                   registry.published)
        out.family("repro_server_telemetry_dropped", "counter",
                   "Telemetry records dropped across all subscribers")
        out.sample("repro_server_telemetry_dropped", "counter", {},
                   registry.dropped_total)
        out.family("repro_server_subscribers", "gauge",
                   "Attached telemetry subscribers per session")
        out.family("repro_server_subscriber_queue_depth", "gauge",
                   "Queued telemetry records per session, summed over "
                   "its subscribers")
        for session in registry.active():
            if not session.subscribers:
                continue
            labels = {"session": session.id}
            out.sample("repro_server_subscribers", "gauge", labels,
                       len(session.subscribers))
            out.sample("repro_server_subscriber_queue_depth", "gauge", labels,
                       sum(q.qsize() for q in session.subscribers))
        return out.render()

    async def _route(
        self,
        method: str,
        target: str,
        body: dict[str, Any] | None,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        segments = [s for s in url.path.split("/") if s]
        query = parse_qs(url.query)
        if segments == ["healthz"] and method == "GET":
            await self._respond(writer, 200, {"schema": SERVE_SCHEMA, "ok": True})
            return
        if segments == ["stats"] and method == "GET":
            stats = self.registry.stats()
            stats["draining"] = self.draining
            stats["workers"] = self.config.workers
            await self._respond(writer, 200, stats)
            return
        if segments == ["metrics"] and method == "GET":
            await self._respond_text(
                writer, 200, self.render_metrics(),
                content_type="application/openmetrics-text; "
                "version=1.0.0; charset=utf-8",
            )
            return
        if segments == ["fleet"] and method == "GET":
            payload = self.registry.rollup.as_dict()
            payload["draining"] = self.draining
            await self._respond(writer, 200, payload)
            return
        if segments == ["shutdown"] and method == "POST":
            self.shutdown_requested.set()
            await self._respond(
                writer, 200, {"schema": SERVE_SCHEMA, "ok": True, "draining": True}
            )
            return
        if not segments or segments[0] != "sessions":
            raise _HttpError(404, f"no such resource: {url.path}")
        if len(segments) == 1:
            if method == "POST":
                try:
                    spec = SessionSpec.from_dict(body or {})
                    # Pure closures, nothing runs: a spec the worker
                    # could not build is refused here, not queued.
                    build_scenario(spec)
                except (ValueError, TypeError) as exc:
                    raise _HttpError(400, str(exc)) from exc
                session = self.submit(spec)
                await self._respond(writer, 201, session.info())
                return
            if method == "GET":
                await self._respond(
                    writer,
                    200,
                    {
                        "schema": SERVE_SCHEMA,
                        "sessions": [s.info() for s in self.registry.list()],
                        "stats": self.registry.stats(),
                    },
                )
                return
            raise _HttpError(405, f"{method} not allowed on /sessions")
        session = self.registry.get(segments[1])
        if session is None:
            raise _HttpError(404, f"no such session: {segments[1]}")
        if len(segments) == 2:
            if method == "GET":
                await self._respond(writer, 200, session.info())
                return
            if method == "DELETE":
                reason = str((body or {}).get("reason") or "cancelled by client")
                self.registry.request_cancel(session.id, reason)
                await self._respond(writer, 200, session.info())
                return
            raise _HttpError(405, f"{method} not allowed on a session")
        if segments[2:] == ["report"] and method == "GET":
            if session.report is None:
                raise _HttpError(
                    409,
                    f"session {session.id} has no report (state {session.state!r})",
                )
            await self._respond(writer, 200, session.report)
            return
        if segments[2:] == ["provenance"] and method == "GET":
            if session.provenance is None:
                raise _HttpError(
                    409,
                    f"session {session.id} has no provenance log "
                    f"(state {session.state!r}; submit with provenance=true)",
                )
            await self._respond(
                writer,
                200,
                {
                    "schema": SERVE_SCHEMA,
                    "id": session.id,
                    "provenance": session.provenance,
                },
            )
            return
        if segments[2:] == ["telemetry"] and method == "GET":
            replay = query.get("replay", ["1"])[-1] not in ("0", "false", "no")
            await self._stream_telemetry(writer, session, replay=replay)
            return
        raise _HttpError(404, f"no such resource: {url.path}")

    async def _stream_telemetry(
        self,
        writer: asyncio.StreamWriter,
        session: SessionRecord,
        replay: bool = True,
    ) -> None:
        """Serve one session's live ``repro.telemetry/v1`` JSONL stream."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        backlog, queue = self.registry.attach(session.id)
        try:
            if replay:
                for record in backlog:
                    writer.write(
                        (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
                    )
                await writer.drain()
            if queue is None:
                return
            while True:
                record = await queue.get()
                if record is None:
                    return
                writer.write(
                    (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # consumer went away; detach below
        finally:
            if queue is not None:
                self.registry.detach(session.id, queue)
