"""The asyncio session server: coupling as a service.

One :class:`SessionServer` process hosts many concurrent coupled
sessions.  The event loop owns the control plane — an HTTP/JSONL wire
surface built on plain :mod:`asyncio` streams (no web framework) — and
``workers`` pre-forked processes own execution: CPU-bound DES runs
never touch the loop, so hundreds of sessions can be in flight while
list/attach/cancel requests stay responsive.  Each worker sits on one
duplex pipe the loop reads with ``add_reader``: specs go down it from
the registry's FIFO, frames (``started``, telemetry batches, the
outcome last) come back and are fanned out to per-session subscriber
queues (see :mod:`repro.serve.registry` for the backpressure rules).
End-of-file on a pipe fails the one session that worker was running
and respawns that one worker.

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
    GET    /fleet                   repro.report/v1 fleet aggregate block
    GET    /healthz                 liveness probe
    POST   /shutdown                request graceful drain

``GET /metrics`` is the Prometheus-style scrape surface: the
per-scenario fleet aggregate (session counts, error rates, T_ub /
resolution-latency / duration quantiles, buddy savings, telemetry
drops — see :mod:`repro.obs.fleet`) plus server internals (pool size,
active sessions, subscriber queue depths, drop counters) in one
exposition, rendered through the shared
:class:`~repro.obs.stream.ExpositionBuilder` and accepted by
:func:`repro.obs.stream.validate_openmetrics`.

Shutdown is a *drain*: the listener closes, queued-but-unstarted
sessions are cancelled with a recorded reason, running ones get
``drain_timeout`` seconds to finish, and every worker is joined before
the process exits — no orphaned workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.registry import ServerFull, SessionRecord, SessionRegistry
from repro.serve.scenarios import build_scenario
from repro.serve.spec import SERVE_SCHEMA, SessionSpec
from repro.serve.worker import worker_main

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


@dataclass(eq=False)
class _Worker:
    """One pre-forked process and the server's end of its pipe."""

    process: Any
    conn: Any
    #: The session it is running (None while idle).
    session: SessionRecord | None = None


class _HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


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
        self._workers: list[_Worker] = []
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Fork the workers and bind the listener."""
        self._loop = asyncio.get_running_loop()
        for _ in range(self.config.workers):
            self._workers.append(self._spawn())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port

    def _spawn(self) -> _Worker:
        """Fork one worker on a fresh pipe and watch the pipe."""
        assert self._loop is not None
        ours, theirs = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=worker_main, args=(theirs,), daemon=True
        )
        process.start()
        theirs.close()
        worker = _Worker(process, ours)
        self._loop.add_reader(ours.fileno(), self._on_readable, worker)
        return worker

    def _on_readable(self, worker: _Worker) -> None:
        """Apply the next frame on *worker*'s pipe.

        One frame per call: readiness is level-triggered, so the loop
        calls again while more wait.
        """
        try:
            kind, payload = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        session = worker.session
        assert session is not None, f"{kind} frame from an idle worker"
        if kind == "telemetry":
            self.registry.publish(session.id, payload)
        elif kind == "started":
            self.registry.mark_started(session.id, payload)
        else:  # the outcome: the session's last frame
            worker.session = None
            self.registry.apply_outcome(session.id, payload)
            self._dispatch()

    def _worker_died(self, worker: _Worker) -> None:
        """End-of-file on one pipe: fail its session, replace the worker."""
        self._retire(worker)
        if worker.session is not None:
            self.registry.finish(
                worker.session.id,
                "failed",
                error="worker pool broken (worker process died mid-session)",
            )
        if worker in self._workers:  # not so once shutdown retired it
            self._workers[self._workers.index(worker)] = self._spawn()
            self._dispatch()

    def _retire(self, worker: _Worker) -> None:
        """Stop watching *worker* and reap it (it has exited or will now)."""
        assert self._loop is not None
        self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        worker.process.join(5.0)
        if worker.process.is_alive():  # pragma: no cover - wedged worker
            worker.process.kill()
            worker.process.join()

    def _dispatch(self) -> None:
        """Hand queued sessions, oldest first, to idle workers."""
        queued = self.registry.queued
        for worker in list(self._workers):
            if not queued:
                return
            if worker.session is not None:
                continue
            session = queued.popleft()
            try:
                worker.conn.send((session.id, session.spec.to_dict()))
            except OSError:  # died idle; its end-of-file is still unread
                queued.appendleft(session)
                self._worker_died(worker)
                return
            worker.session = session

    async def shutdown(self, drain: bool = True) -> dict[str, Any]:
        """Stop accepting work, drain or cancel sessions, join the workers.

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
        # Queued sessions leave the FIFO and die here; a running one is
        # marked, finishes its run (workers are not preemptible) and has
        # its outcome discarded — frames keep landing while we wait.
        cancelled = []
        for session in self.registry.active():
            self.registry.request_cancel(session.id, "server shutdown")
            cancelled.append(session.id)
        for session in self.registry.active():
            await session.done_event.wait()
        workers, self._workers = self._workers, []
        for worker in workers:
            with contextlib.suppress(OSError):
                worker.conn.send(None)
        for worker in workers:
            self._retire(worker)
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
        """Register *spec* and hand it to a worker (or the FIFO)."""
        if self.draining:
            raise _HttpError(503, "server is draining; not accepting sessions")
        if not self._workers:
            raise _HttpError(503, "server not started")
        try:
            session = self.registry.create(spec)
        except ServerFull as exc:
            raise _HttpError(429, str(exc)) from exc
        self._dispatch()
        return session

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
                # A worker respawned while this connection was open holds a
                # forked copy of its socket: shut it down, not just close it.
                writer.write_eof()
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
        raw_length = headers.get("content-length") or "0"
        if not raw_length.isdecimal():
            raise _HttpError(400, f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
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
        self, writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
    ) -> None:
        await self._respond_text(
            writer, status, json.dumps(payload, sort_keys=True) + "\n", "application/json"
        )

    async def _respond_text(
        self, writer: asyncio.StreamWriter, status: int, text: str, content_type: str
    ) -> None:
        data = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()

    def render_metrics(self) -> str:
        """The ``GET /metrics`` exposition: fleet aggregate + internals."""
        from repro.obs.stream import ExpositionBuilder

        out = ExpositionBuilder()
        registry = self.registry
        registry.aggregate.add_to_exposition(out)
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
                   registry.active_count)
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
            payload = self.registry.aggregate.as_dict()
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
                writer.write(b"".join(backlog))
                await writer.drain()
            if queue is None:
                return
            while True:
                # One write per wake-up: everything the last frame queued,
                # up to end-of-stream (nothing is ever offered behind it).
                line = await queue.get()
                chunk = []
                while line is not None:
                    chunk.append(line)
                    if queue.empty():
                        break
                    line = queue.get_nowait()
                writer.write(b"".join(chunk))
                await writer.drain()
                if line is None:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass  # consumer went away; detach below
        finally:
            if queue is not None:
                self.registry.detach(session.id, queue)
