"""One-call facade over the two coupled-simulation runtimes.

:func:`run` takes a configuration (text, parsed object, or file path),
a list of :class:`Program` declarations, and a frozen
:class:`~repro.api.options.RunOptions`; it builds the right runtime,
wires programs/regions/connections, drives the run to completion and
returns a :class:`RunResult` handle over the finished simulation.

    import repro

    result = repro.run(
        CONFIG_TEXT,
        [
            repro.Program("E", main=e_main, regions={"d": RegionDef(...)}),
            repro.Program("I", main=i_main, regions={"d": RegionDef(...)}),
        ],
        repro.RunOptions(seed=3),
    )
    print(result.sim_time, result.counters["ctl_messages"])
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.api.options import RunOptions
from repro.core.config import CouplingConfig, load_config
from repro.core.coupler import CoupledSimulation
from repro.core.live import LiveCoupledSimulation
from repro.obs.collect import collect_metrics
from repro.obs.metrics import MetricsSnapshot
from repro.obs.paper import PaperMetrics, compute_paper_metrics
from repro.obs.spans import TimelineSet, build_timelines
from repro.obs.trace import CausalReport, build_causal_report
from repro.util.tracing import Tracer


@dataclass(frozen=True)
class Program:
    """Declaration of one program to couple.

    Attributes
    ----------
    name:
        Program name; must match the configuration (or pass *nprocs*
        for programs absent from it).
    main:
        Per-process entry point — a generator function on the DES
        runtime, a plain callable on the live runtime; ``None`` for
        passive programs driven externally.
    regions:
        Region name → :class:`~repro.core.coupler.RegionDef` for every
        region a connection endpoint of this program names.
    nprocs:
        Process count override (defaults to the configuration's).
    """

    name: str
    main: Callable[..., Any] | None = None
    regions: Mapping[str, Any] = field(default_factory=dict)
    nprocs: int | None = None


@dataclass
class RunResult:
    """Handle over a finished coupled-simulation run.

    The full runtime object stays reachable via :attr:`simulation` for
    anything not surfaced here.
    """

    simulation: CoupledSimulation | LiveCoupledSimulation
    options: RunOptions
    #: Virtual completion time (DES) or 0.0 (live runs on wall clock).
    sim_time: float
    #: Wire traffic and resilience counters of the run.
    counters: dict[str, int]
    #: Lazily computed observability views (see the properties below).
    _metrics: MetricsSnapshot | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _timeline: TimelineSet | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _causal: CausalReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def context(self, program: str, rank: int) -> Any:
        """The per-process context of *program* rank *rank*."""
        return self.simulation.context(program, rank)

    def buffer_stats(self, program: str, rank: int, region: str) -> Any:
        """The Eq. 1–2 buffer ledger of one rank's region."""
        return self.simulation.buffer_stats(program, rank, region)

    @property
    def tracer(self) -> Tracer:
        """The tracer that recorded the run."""
        return self.simulation.tracer

    @property
    def fault_stats(self) -> dict[str, Any] | None:
        """What the fault layer did, when one was installed (DES)."""
        stats = getattr(self.simulation.world.network, "stats", None) if isinstance(
            self.simulation, CoupledSimulation
        ) else None
        return stats.as_dict() if stats is not None else None

    @property
    def metrics(self) -> MetricsSnapshot:
        """The run's metrics, paper quantities included (computed once).

        Collected post-hoc from the runtime's always-on counters (see
        :mod:`repro.obs.collect`), so it works with a
        :class:`~repro.util.tracing.NullTracer` and costs nothing
        during the run.
        """
        if self._metrics is None:
            registry = collect_metrics(self.simulation)
            self._metrics = registry.snapshot(paper=self.paper_metrics)
        return self._metrics

    @property
    def paper_metrics(self) -> PaperMetrics:
        """Eq. 1–2 ``T_ub``, buddy-help savings, lags (computed once)."""
        metrics = self._metrics
        if metrics is not None and metrics.paper is not None:
            return metrics.paper
        return compute_paper_metrics(self.simulation)

    @property
    def timeline(self) -> TimelineSet:
        """Per-rank span timelines over the run (computed once)."""
        if self._timeline is None:
            self._timeline = build_timelines(self.simulation)
        return self._timeline

    @property
    def causal(self) -> CausalReport:
        """The run's causal report: per-import happens-before DAGs,
        critical paths with stage attribution, and buddy-help lead
        times (computed once).

        Requires ``RunOptions(causal_trace=True)``; raises otherwise.
        """
        if self._causal is None:
            self._causal = build_causal_report(self.simulation)
        return self._causal

    def check_property1(self, raise_on_violation: bool = True) -> list[str]:
        """Check Property-1 conformance (needs ``record_operations``)."""
        return self.simulation.check_property1(raise_on_violation=raise_on_violation)


def _counters(sim: CoupledSimulation | LiveCoupledSimulation) -> dict[str, int]:
    names = (
        "ctl_messages",
        "ctl_bytes",
        "data_messages",
        "data_bytes",
        "retransmissions",
        "dup_discards",
    )
    return {n: int(getattr(sim, n)) for n in names}


def _close_sinks(sinks: tuple[Any, ...]) -> None:
    """Close every telemetry sink, best effort."""
    for sink in sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            with contextlib.suppress(Exception):
                close()


def _abort_telemetry(sim: Any, sinks: tuple[Any, ...], exc: BaseException) -> None:
    """Error-path teardown: emit one aborted final snapshot, close sinks.

    The periodic telemetry emitters only write their ``final`` record
    on a clean finish; when a run raises, this flushes a last snapshot
    with ``final: true`` and ``aborted: true`` (plus the error) so the
    ``repro.telemetry/v1`` stream still terminates properly.
    """
    if sinks:
        with contextlib.suppress(Exception):
            from repro.obs.stream import build_snapshot

            record = build_snapshot(sim, final=True)
            record["aborted"] = True
            record["error"] = f"{type(exc).__name__}: {exc}"
            for sink in sinks:
                with contextlib.suppress(Exception):
                    sink.emit(record)
    _close_sinks(sinks)


def build(
    config: CouplingConfig | str | Path,
    programs: list[Program] | tuple[Program, ...],
    options: RunOptions | None = None,
) -> CoupledSimulation | LiveCoupledSimulation:
    """Construct and wire a runtime without starting it.

    :func:`run` is the usual entry point; ``build`` exists for callers
    that need the unstarted simulation (custom drivers, tests).
    """
    opts = options if options is not None else RunOptions()
    cfg = load_config(config) if isinstance(config, Path) else config
    sim: CoupledSimulation | LiveCoupledSimulation
    if opts.runtime == "live":
        sim = LiveCoupledSimulation(
            cfg,
            options=opts,
        )
    else:
        sim = CoupledSimulation(
            cfg,
            options=opts,
        )
    for p in programs:
        sim.add_program(p.name, main=p.main, regions=dict(p.regions), nprocs=p.nprocs)
    return sim


def run(
    config: CouplingConfig | str | Path,
    programs: list[Program] | tuple[Program, ...],
    options: RunOptions | None = None,
    *,
    until: float | None = None,
) -> RunResult:
    """Build, wire and drive a coupled simulation to completion.

    Parameters
    ----------
    config:
        Configuration text (Figure-2 format), a parsed
        :class:`~repro.core.config.CouplingConfig`, or a
        :class:`~pathlib.Path` to a configuration file.
    programs:
        The :class:`Program` declarations to couple.
    options:
        A :class:`~repro.api.options.RunOptions`; defaults to
        ``RunOptions()`` (DES runtime, fast-test preset).
    until:
        Optional virtual-time horizon (DES runtime only).
    """
    opts = options if options is not None else RunOptions()
    sim = build(config, programs, opts)
    sinks = tuple(opts.telemetry_sinks)
    prov = getattr(sim, "_prov", None)
    try:
        if isinstance(sim, LiveCoupledSimulation):
            if until is not None:
                raise ValueError("until= applies to the DES runtime only")
            sim.run()
            sim_time = 0.0
        else:
            sim.run(until=until)
            sim_time = sim.sim.now
    except BaseException as exc:
        # A crashing run must still leave its sinks well-formed: one
        # last ``final`` snapshot marked ``aborted`` (so a follower
        # sees the stream end rather than hang on a truncated file),
        # then every sink flushed and closed.  The provenance log gets
        # the same guarantee: whatever was captured is written out with
        # an end record naming the error, so a crash is still auditable
        # (though only clean logs replay).
        _abort_telemetry(sim, sinks, exc)
        if prov is not None:
            with contextlib.suppress(Exception):
                prov.abort(exc)
                prov.close()
        raise
    _close_sinks(sinks)
    result = RunResult(
        simulation=sim,
        options=opts,
        sim_time=sim_time,
        counters=_counters(sim),
    )
    if prov is not None:
        prov.finalize(result)
        prov.close()
    return result
