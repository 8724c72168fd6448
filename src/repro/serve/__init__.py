"""Coupling as a service: a session server for many concurrent runs.

The third runtime beside the DES and live couplers: one long-running
:class:`~repro.serve.server.SessionServer` process multiplexes
hundreds of independent coupled sessions over an asyncio control plane
and a process-pool data plane, exposed through an HTTP/JSONL wire
surface (``repro serve`` / ``repro sessions`` / ``repro monitor
--attach``).  See ``docs/serving.md`` for the architecture, the wire
protocol and the session lifecycle.
"""

from repro.scenarios import ScenarioBuild, register_scenario, scenario_names
from repro.serve.client import ServeClient, ServeError, split_attach_url
from repro.serve.registry import ServerFull, SessionRecord, SessionRegistry
from repro.serve.scenarios import build_scenario
from repro.serve.server import ServeConfig, SessionServer
from repro.serve.spec import (
    SERVE_SCHEMA,
    SESSION_STATES,
    TERMINAL_STATES,
    SessionSpec,
)

__all__ = [
    "SERVE_SCHEMA",
    "SESSION_STATES",
    "TERMINAL_STATES",
    "ScenarioBuild",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerFull",
    "SessionRecord",
    "SessionRegistry",
    "SessionServer",
    "SessionSpec",
    "build_scenario",
    "register_scenario",
    "scenario_names",
    "split_attach_url",
]
