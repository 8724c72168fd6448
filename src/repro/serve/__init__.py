"""Coupling as a service: a session server for many concurrent runs.

The third runtime beside the DES and live couplers: one long-running
:class:`~repro.serve.server.SessionServer` process multiplexes
hundreds of independent coupled sessions over an asyncio control plane
and a process-pool data plane, exposed through an HTTP/JSONL wire
surface (``repro serve`` / ``repro sessions`` / ``repro monitor
--attach``).  See ``docs/serving.md`` for the architecture, the wire
protocol and the session lifecycle.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import ServeClient, ServeError, split_attach_url
    from repro.serve.registry import ServerFull, SessionRecord, SessionRegistry
    from repro.serve.server import ServeConfig, SessionServer
    from repro.serve.spec import SERVE_SCHEMA, SESSION_STATES, TERMINAL_STATES, SessionSpec

__all__ = [
    "SERVE_SCHEMA",
    "SESSION_STATES",
    "TERMINAL_STATES",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerFull",
    "SessionRecord",
    "SessionRegistry",
    "SessionServer",
    "SessionSpec",
    "split_attach_url",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.serve.client": ("ServeClient", "ServeError", "split_attach_url"),
        "repro.serve.registry": ("ServerFull", "SessionRecord", "SessionRegistry"),
        "repro.serve.server": ("ServeConfig", "SessionServer"),
        "repro.serve.spec": (
            "SERVE_SCHEMA",
            "SESSION_STATES",
            "TERMINAL_STATES",
            "SessionSpec",
        ),
    },
)
