"""Frozen run configuration for the :mod:`repro.api` facade.

One immutable :class:`RunOptions` value captures everything
configurable about a run.  It is the only way to configure
:class:`~repro.core.coupler.CoupledSimulation` and
:class:`~repro.core.live.LiveCoupledSimulation`
(``options=RunOptions(...)``).

Being frozen, options values are safe to share between runs, stash in
benchmark specs, and derive with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.exceptions import ConfigError
from repro.costs import FAST_TEST, ClusterPreset
from repro.faults import FaultPlan
from repro.match.backend import DEFAULT_MATCH_BACKEND, MATCH_BACKENDS
from repro.util.tracing import Tracer
from repro.util.validation import require

#: Runtimes :func:`repro.api.run` can drive.
RUNTIMES = ("des", "live")


@dataclass(frozen=True)
class RunOptions:
    """Everything configurable about one coupled-simulation run.

    Attributes
    ----------
    runtime:
        ``"des"`` (deterministic discrete-event runtime, the default)
        or ``"live"`` (OS threads and wall-clock time).
    preset:
        Cost-model bundle for the DES runtime (ignored by ``"live"``).
    buddy_help:
        Enable the paper's buddy-help optimization.
    seed:
        Root RNG seed for compute jitter etc. (DES runtime).
    tracer:
        A :class:`~repro.util.tracing.Tracer` receiving protocol
        events; ``None`` records nothing.
    buffer_capacity_bytes:
        Optional bound on each process's framework buffer.
    buffer_policy:
        ``"error"`` (raise when an export would exceed the capacity)
        or ``"block"`` (backpressure until eviction frees space).
    record_operations:
        Record every export/import into an operation log so Property-1
        conformance can be checked after the run (either runtime).
    sanitize:
        Online protocol sanitizer mode (either runtime):
        ``True``/``"strict"`` raises at the first invariant violation,
        ``"report"`` only accumulates findings, ``None`` consults the
        ``REPRO_SANITIZE`` environment variable, ``False`` disables.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; the DES network or
        the live runtime's mailbox hook
        (:class:`~repro.faults.injectors.LiveFaultInjector`) then
        executes it and the protocol switches to resilient mode.
    retransmit_timeout:
        Base request-retransmission timeout; ``None`` derives a bound
        from the network model (DES, when a fault plan is given) or the
        runtime default (live, when a fault plan is given).
    max_retransmits:
        Retransmission attempts per request before giving up; ``None``
        uses the runtime default (12 on DES, 8 on live).
    time_scale:
        Live runtime: multiplier on ``ctx.compute`` sleeps.
    default_timeout:
        Live runtime: blocking-receive timeout in wall seconds.
    causal_trace:
        Record a happens-before DAG of every control-plane message
        (request → match → aggregate → answer, buddy notifications,
        retransmissions).  The DAG is available as ``sim.causal`` /
        :attr:`repro.RunResult.causal` and exportable as Chrome
        trace flow events.  Off by default: the no-op path costs one
        attribute check per send.
    telemetry_sinks:
        Streaming telemetry sinks (objects with ``emit(record)`` and
        ``close()``, e.g. :class:`repro.obs.stream.JsonlSink` or
        :class:`repro.obs.stream.OpenMetricsSink`).  Empty (default)
        disables streaming entirely.
    telemetry_interval:
        Period between telemetry snapshots — virtual seconds on the
        DES runtime, wall seconds on the live runtime; finite and > 0.
    race_monitor:
        Live runtime: a :class:`repro.analysis.races.RaceMonitor`
        receiving shared-state accesses and synchronization events
        (lock acquire/release, message send/receive) from every
        thread of the run, for happens-before race detection.
        ``None`` (default) disables instrumentation entirely.
    match_backend:
        Which match engine the exporter processes use: ``"sorted"``
        (the default, :data:`repro.match.DEFAULT_MATCH_BACKEND`: one
        bisection per request, a vectorized sweep for long batches,
        see :class:`repro.match.SortedMatchEngine`) or ``"legacy"``
        (per-request scan, the reference the default is checked
        against).  Decisions are bit-identical between backends; only
        throughput differs.
        Unknown names raise :class:`~repro.core.exceptions.ConfigError`
        at construction time.
    provenance:
        Path of a ``repro.prov/v2`` provenance log to record the run
        into (``.gz`` suffix gzips it).  Recording captures every wire
        message, DES scheduling decision, match resolution, RNG draw,
        and process operation, making the run bit-exactly replayable
        from the log alone via :func:`repro.obs.replay.replay`.
        Implies :attr:`causal_trace`.  ``None`` (default) disables
        recording entirely.
    """

    runtime: str = "des"
    preset: ClusterPreset = FAST_TEST
    buddy_help: bool = True
    seed: int = 0
    tracer: Tracer | None = None
    buffer_capacity_bytes: int | None = None
    buffer_policy: str = "error"
    record_operations: bool = False
    sanitize: bool | str | None = None
    fault_plan: FaultPlan | None = None
    retransmit_timeout: float | None = None
    max_retransmits: int | None = None
    time_scale: float = 1.0
    default_timeout: float = 30.0
    causal_trace: bool = False
    telemetry_sinks: tuple[Any, ...] = ()
    telemetry_interval: float = 0.25
    race_monitor: Any | None = None
    match_backend: str = DEFAULT_MATCH_BACKEND
    provenance: str | None = None

    def __post_init__(self) -> None:
        require(
            self.runtime in RUNTIMES,
            f"runtime must be one of {RUNTIMES}, got {self.runtime!r}",
        )
        if self.match_backend not in MATCH_BACKENDS:
            raise ConfigError(
                f"match_backend must be one of {MATCH_BACKENDS}, "
                f"got {self.match_backend!r}"
            )
        require(
            self.buffer_policy in ("error", "block"),
            "buffer_policy: 'error' or 'block'",
        )
        require(
            0 < self.telemetry_interval < float("inf"),
            "telemetry_interval must be a finite number > 0",
        )
        if self.provenance is not None:
            require(
                isinstance(self.provenance, str) and bool(self.provenance),
                "provenance must be None or a non-empty path string",
            )
        # Tuple-ify eagerly so a list literal works at the call site but
        # the frozen value stays hashable-by-parts and safely shareable.
        if not isinstance(self.telemetry_sinks, tuple):
            object.__setattr__(self, "telemetry_sinks", tuple(self.telemetry_sinks))
