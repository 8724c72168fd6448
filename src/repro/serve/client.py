"""Blocking client for the coupling service (stdlib only).

:class:`ServeClient` speaks the server's one-request-per-connection
HTTP surface through :class:`http.client.HTTPConnection`.  It is the
thin layer the CLI uses (``repro sessions ...``, ``repro monitor
--attach``) and what tests drive; being synchronous it composes with
scripts and notebooks without touching asyncio.

    client = ServeClient("http://127.0.0.1:8642")
    info = client.submit(SessionSpec(scenario="demo"))
    for record in client.telemetry(info["id"]):
        ...                       # repro.telemetry/v1 dicts, live
    report = client.report(info["id"])   # repro.report/v1
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPResponse
from typing import Any, Iterator, Mapping
from urllib.parse import urlsplit

from repro.serve.spec import TERMINAL_STATES, SessionSpec

__all__ = ["ServeError", "ServeClient", "split_attach_url"]


class ServeError(RuntimeError):
    """An HTTP-level error answer from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def split_attach_url(url: str) -> tuple[str, str | None]:
    """Split an attach URL into ``(base_url, session_id-or-None)``.

    Accepts a bare server URL (``http://host:port``), a session URL
    (``.../sessions/<id>``) or a telemetry URL
    (``.../sessions/<id>/telemetry``).
    """
    parts = urlsplit(url if "//" in url else f"http://{url}")
    base = f"{parts.scheme or 'http'}://{parts.netloc}"
    segments = [s for s in parts.path.split("/") if s]
    if len(segments) >= 2 and segments[0] == "sessions":
        return base, segments[1]
    return base, None


class ServeClient:
    """Synchronous client over the server's wire surface."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if not parts.hostname:
            raise ValueError(f"cannot parse server URL {url!r}")
        self.host: str = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------
    def _open(
        self, method: str, path: str, body: Mapping[str, Any] | None, timeout: float
    ) -> tuple[HTTPConnection, HTTPResponse]:
        conn = HTTPConnection(self.host, self.port, timeout=timeout)
        payload = None if body is None else json.dumps(dict(body)).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        return conn, conn.getresponse()

    def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        conn, resp = self._open(
            method, path, body, self.timeout if timeout is None else timeout
        )
        try:
            raw = resp.read()
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(resp.status, f"unparseable response body: {exc}") from exc
        if resp.status >= 400:
            message = (
                payload.get("error", raw.decode("utf-8", "replace"))
                if isinstance(payload, dict)
                else str(payload)
            )
            raise ServeError(resp.status, str(message))
        if not isinstance(payload, dict):
            raise ServeError(resp.status, f"expected a JSON object, got {payload!r}")
        return payload

    def _request_text(self, method: str, path: str) -> str:
        """A request whose success body is plain text, not JSON."""
        conn, resp = self._open(method, path, None, self.timeout)
        try:
            raw = resp.read()
        finally:
            conn.close()
        if resp.status >= 400:
            try:
                payload = json.loads(raw.decode("utf-8"))
                message = str(payload.get("error", raw))
            except (ValueError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServeError(resp.status, message)
        return raw.decode("utf-8")

    # -- control surface ---------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        """Liveness probe."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        """Server-wide counters."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The ``GET /metrics`` OpenMetrics text exposition."""
        return self._request_text("GET", "/metrics")

    def fleet(self) -> dict[str, Any]:
        """The server's fleet aggregate (a ``repro.report/v1`` payload)."""
        return self._request("GET", "/fleet")

    def submit(self, spec: SessionSpec | Mapping[str, Any]) -> dict[str, Any]:
        """Submit a session; returns its info (``id``, ``state``, ...)."""
        body = spec.to_dict() if isinstance(spec, SessionSpec) else dict(spec)
        return self._request("POST", "/sessions", body)

    def sessions(self) -> list[dict[str, Any]]:
        """Info dicts of every session on the server."""
        listing = self._request("GET", "/sessions")
        sessions = listing.get("sessions", [])
        return list(sessions) if isinstance(sessions, list) else []

    def session(self, session_id: str) -> dict[str, Any]:
        """One session's info."""
        return self._request("GET", f"/sessions/{session_id}")

    def report(self, session_id: str) -> dict[str, Any]:
        """The ``repro.report/v1`` payload of a finished session."""
        return self._request("GET", f"/sessions/{session_id}/report")

    def provenance(self, session_id: str) -> str:
        """The ``repro.prov/v1`` log text of a finished session.

        Only available when the session was submitted with
        ``provenance=true``; the text is a complete provenance log,
        writable to disk and replayable with ``repro replay``.
        """
        payload = self._request("GET", f"/sessions/{session_id}/provenance")
        return str(payload.get("provenance", ""))

    def cancel(self, session_id: str, reason: str | None = None) -> dict[str, Any]:
        """Cancel a session (optionally recording *reason*)."""
        body = {"reason": reason} if reason else None
        return self._request("DELETE", f"/sessions/{session_id}", body)

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and exit."""
        return self._request("POST", "/shutdown")

    def wait(
        self, session_id: str, timeout: float = 60.0, poll: float = 0.05
    ) -> dict[str, Any]:
        """Poll until the session reaches a terminal state.

        Raises :class:`TimeoutError` when *timeout* elapses first.
        """
        deadline = time.monotonic() + timeout
        while True:
            info = self.session(session_id)
            if info.get("state") in TERMINAL_STATES:
                return info
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"session {session_id} still {info.get('state')!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll)

    # -- telemetry ---------------------------------------------------------
    def telemetry(
        self,
        session_id: str,
        replay: bool = True,
        timeout: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream a session's ``repro.telemetry/v1`` records, live.

        Yields each record as a dict; the stream ends when the server
        closes it (session finished or cancelled).  *timeout* bounds
        the silence between records (``socket.timeout`` / ``OSError``
        surfaces past it).
        """
        path = f"/sessions/{session_id}/telemetry"
        if not replay:
            path += "?replay=0"
        conn, resp = self._open(
            "GET", path, None, self.timeout if timeout is None else timeout
        )
        try:
            if resp.status >= 400:
                raw = resp.read()
                try:
                    payload = json.loads(raw.decode("utf-8"))
                    message = str(payload.get("error", raw))
                except (ValueError, AttributeError):
                    message = raw.decode("utf-8", "replace")
                raise ServeError(resp.status, message)
            while True:
                line = resp.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line.decode("utf-8"))
                if isinstance(record, dict):
                    yield record
        finally:
            conn.close()
