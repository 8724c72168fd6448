"""The sans-I/O protocol driver shared by every runtime.

:mod:`repro.core.rep`, :mod:`repro.core.exporter`,
:mod:`repro.core.importer` and :mod:`repro.core.wire` hold the paper's
control plane as pure state machines.  This module holds everything
that *drives* them, once: connection/schedule/send-plan/rep resolution,
rep-message dispatch, directive → wire-message translation, agent
handling of forwarded requests and buddy-help answers, response and
data-piece emission, sequence stamping and dedup, wire counters, the
importer's request/answer/complete bookkeeping and buddy-skip lead
accounting.  Every decision among them is announced once, as a
:class:`~repro.core.spine.ProtocolEvent`, to the folds watching the
run (paper trace, causal DAG, provenance rows, Property-1 log, online
sanitizer); which of them watch is decided here, for every runtime.

It never touches a clock, a mailbox, a lock or a scheduler.  A runtime
subclasses :class:`ProtocolDriver` and hands it a :class:`RuntimePort`
— three callables bound once at construction:

``now()``
    the run clock (virtual seconds on the DES, run-relative wall
    seconds on threads) — every announced event of a run is stamped
    from it;
``send(src, dst, payload, nbytes)``
    deliver one already stamped, already counted wire unit;
``guard(key, *accesses)``
    a context manager entered around every state-machine mutation; the
    thread runtime fills it with its lock and race-monitor calls, the
    DES leaves it empty.

What stays with a runtime (:mod:`repro.core.coupler` on generators and
virtual time, :mod:`repro.core.live` on OS threads,
:mod:`repro.analysis.model.machine` on an explored action schedule) is
clock, mailboxes, scheduling, waiting and shutdown.
Methods that free buffer entries return the eviction count so the DES
adapter alone ``yield``\\ s the modelled free time.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, NamedTuple

import numpy as np

from repro.core import spine, wire
from repro.core.buffers import BufferEntry
from repro.core.config import ConnectionSpec, CouplingConfig, parse_config
from repro.core.exceptions import ConfigError, FrameworkError
from repro.core.exporter import ExportDecision, RegionExportState
from repro.core.importer import RegionImportState
from repro.core.properties import OperationLog, check_property1
from repro.core.rep import (
    AnswerImporter,
    BuddyHelp,
    DeliverAnswer,
    ExporterRep,
    ForwardRequest,
    ForwardToExporter,
    ImporterRep,
)
from repro.core.spine import ProtocolEvent
from repro.data.decomposition import BlockDecomposition
from repro.data.region import RectRegion
from repro.data.schedule import CommSchedule
from repro.match.result import MatchKind, MatchResponse
from repro.obs.trace import CausalLog, TraceContext
from repro.util.tracing import NullTracer
from repro.util.validation import ValidationError, require, require_positive

_UNGUARDED: ContextManager[Any] = contextlib.nullcontext()

#: The spine kind announcing each rep directive.
_DIRECTIVE_KINDS: dict[type, str] = {
    ForwardRequest: spine.FAN_OUT,
    AnswerImporter: spine.FINALIZE,
    BuddyHelp: spine.BUDDY_SEND,
    ForwardToExporter: spine.REP_FORWARD,
    DeliverAnswer: spine.DELIVER,
}


def _unguarded(key: Any, *accesses: Any) -> ContextManager[Any]:
    """The guard of a single-threaded runtime: nothing to hold."""
    return _UNGUARDED


@dataclass(frozen=True)
class RuntimePort:
    """What a runtime supplies to :class:`ProtocolDriver` (module docstring)."""

    now: Callable[[], float]
    send: Callable[[Any, Any, Any, int], Any]
    guard: Callable[..., ContextManager[Any]] = _unguarded
    #: Serializes counter updates.  A real lock on every runtime: held
    #: by one thread it is a C-level enter/exit, cheaper per message
    #: than the two Python calls of a null context.
    lock: ContextManager[Any] = field(default_factory=threading.Lock)


# ---------------------------------------------------------------------------
# declarations and resolved runtime records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionDef:
    """A program's declaration of one coupled region.

    Attributes
    ----------
    decomp:
        How the region's global index space is distributed over the
        program's processes.  ``decomp.nprocs`` must equal the
        program's process count.
    dtype:
        Element type (drives wire sizes and importer assembly).
    section:
        Optional sub-box of the global index space this program couples
        through (``None`` = the whole space).  The paper couples
        "shared boundaries or overlapped regions between physical
        models": a connection transfers the *intersection* of the two
        sides' sections.  Exports still buffer the rank's whole local
        block (that is the exported data object); the section only
        restricts what travels.
    """

    decomp: BlockDecomposition
    dtype: Any = np.float64
    section: RectRegion | None = None

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return int(np.dtype(self.dtype).itemsize)

    def effective_section(self) -> RectRegion:
        """The declared section, defaulting to the full index space."""
        return (
            self.section
            if self.section is not None
            else self.decomp.bounding_region()
        )


@dataclass
class ImportHandle:
    """An outstanding import (see ``import_begin``)."""

    region: str
    connection_id: str
    ts: float
    record: Any
    done: bool = False


class _ConnRuntime:
    """Resolved per-connection runtime info (schedule, endpoints)."""

    def __init__(self, spec: ConnectionSpec) -> None:
        self.spec = spec
        self.schedule: CommSchedule | None = None
        #: Per-exporter-rank send plan: (dst_rank, region, slices, nbytes)
        #: with the slice tuples precomputed at finalize time.
        self.send_plans: dict[int, tuple[tuple[int, RectRegion, tuple[slice, ...], int], ...]] = {}
        #: Per-importer-rank assembly slices, keyed by piece region.
        self.recv_slices: dict[int, dict[RectRegion, tuple[slice, ...]]] = {}

    @property
    def cid(self) -> str:
        return self.spec.connection_id


class _ProgramRuntime:
    """One registered program: spec, regions, communicators, contexts."""

    def __init__(
        self,
        name: str,
        nprocs: int,
        main: Callable[..., Any] | None,
        regions: dict[str, RegionDef],
        comms: list[Any],
    ) -> None:
        self.name = name
        self.nprocs = nprocs
        self.main = main
        self.regions = regions
        self.comms = comms
        self.contexts: list[Any] = []
        self.exp_rep: ExporterRep | None = None
        self.imp_rep: ImporterRep | None = None
        #: Trace identity of the program's rep.
        self.rep_who = f"{name}.rep"
        #: Processes whose application main has not finished (stays at
        #: *nprocs* for a passive program without one).
        self.alive = nprocs


@dataclass(frozen=True)
class ExportPlan:
    """What every export of one (rank, region) reuses, built once.

    The decomposition never changes after setup, so the rank's local
    box, its shape and the byte size of a cost-only export are fixed;
    looking them up replaces rebuilding (and re-validating) a
    :class:`RectRegion` on every export call.
    """

    state: RegionExportState
    local: RectRegion
    shape: tuple[int, ...]
    #: Byte size of an export without ``data=`` (declared dtype).
    nbytes: int
    #: ``memcpy_base(nbytes)`` of the runtime's memory cost model — the
    #: part of the buffering cost that does not depend on the clock
    #: (``0.0`` on a runtime that measures instead of modelling).
    memcpy_base: float


class ExportRecord(NamedTuple):
    """One export call of one process — a point of the Figure-4 series."""

    ts: float
    decision: ExportDecision
    #: Run-clock seconds the call took (modelled charge on the DES,
    #: measured wall time on threads).
    cost: float
    at: float  # run clock at call start


@dataclass
class ProcessStats:
    """Per-process instrumentation collected during a run (run-clock seconds)."""

    export_records: list[ExportRecord] = field(default_factory=list)
    #: Modelled compute and buffer-space stall time (finite buffers with
    #: the "block" policy).  Only the DES runtime accrues these; threads
    #: really sleep and have no backpressure.
    compute_time: float = 0.0
    backpressure_time: float = 0.0
    #: Buddy-help accounting (paper Figures 7-8): final answers this
    #: process received from its rep, skips enabled only by those
    #: answers, and the memcpy time those skips avoided — the per-rank
    #: contribution to the with-help vs. no-help ``T_ub`` comparison.
    #: A wall-clock runtime cannot price a copy it never made, so
    #: ``buddy_saved_time`` stays 0 there.
    buddy_answers_received: int = 0
    buddy_skips: int = 0
    buddy_saved_time: float = 0.0
    #: Per buddy-enabled skip: ``(export_ts, request_ts, lead)`` where
    #: *lead* is how long before the skip decision the enabling buddy
    #: answer had arrived — the per-window head start the paper's
    #: dissemination buys (reported by the causal trace).
    buddy_lead_times: list[tuple[float, float, float]] = field(default_factory=list)

    def export_times(self) -> list[float]:
        """The per-iteration export-cost series (Figure 4's y-axis)."""
        return [r.cost for r in self.export_records]

    def decisions(self) -> dict[str, int]:
        """Histogram of export decisions."""
        out: dict[str, int] = {}
        for r in self.export_records:
            out[r.decision.value] = out.get(r.decision.value, 0) + 1
        return out


class ContextBase:
    """Per-process protocol state behind each runtime's context class."""

    def __init__(
        self,
        runtime: "ProtocolDriver",
        program: _ProgramRuntime,
        rank: int,
        capacity_bytes: int | None = None,
        memcpy_base: Callable[[int], float] | None = None,
    ) -> None:
        self._rt = runtime
        self._program = program
        self.program = program.name
        self.rank = rank
        self.nprocs = program.nprocs
        #: Trace identity, e.g. ``"F.p2"``.
        self.who = f"{self.program}.p{rank}"
        #: Intra-program communicator (vmpi).
        self.comm = program.comms[rank]
        self.stats = ProcessStats()
        # Per-region framework state.
        self.export_states: dict[str, RegionExportState] = {}
        self.import_states: dict[str, RegionImportState] = {}
        config = runtime.config
        for rname in program.regions:
            exp_conns = config.connections_exporting(self.program, rname)
            if exp_conns:
                self.export_states[rname] = RegionExportState(
                    rname,
                    exp_conns,
                    capacity_bytes=capacity_bytes,
                    strict_order=runtime.strict_order,
                    match_backend=runtime.match_backend,
                )
            imp_conns = config.connections_importing(self.program, rname)
            if imp_conns:
                if len(imp_conns) != 1:
                    raise ValidationError(
                        f"region {self.program}.{rname} is imported over "
                        f"{len(imp_conns)} connections; at most one exporter "
                        "per imported region is supported"
                    )
                self.import_states[rname] = RegionImportState(
                    rname, imp_conns[0].connection_id
                )
        # Regions declared but absent from any connection still get an
        # (empty) export state so exports are legal no-ops.
        for rname in program.regions:
            if rname not in self.export_states and rname not in self.import_states:
                self.export_states[rname] = RegionExportState(rname, [])
        self._export_plans: dict[str, ExportPlan] = {}
        for rname, st in self.export_states.items():
            rdef = program.regions[rname]
            local = rdef.decomp.local_region(rank)
            nbytes = local.size * rdef.itemsize
            self._export_plans[rname] = ExportPlan(
                state=st,
                local=local,
                shape=local.shape,
                nbytes=nbytes,
                memcpy_base=0.0 if memcpy_base is None else memcpy_base(nbytes),
            )
        #: Arrival time of each buddy answer, keyed by
        #: ``(connection_id, request_ts)``: feeds the per-window
        #: buddy-help lead times.
        self._buddy_arrivals: dict[tuple[str, float], float] = {}

    def local_region(self, region: str) -> RectRegion:
        """This rank's owned sub-box of *region*."""
        plan = self._export_plans.get(region)
        if plan is not None:
            return plan.local
        return self._program.regions[region].decomp.local_region(self.rank)

    def _export_target(
        self, region: str, ts: float, data: np.ndarray | None
    ) -> tuple[ExportPlan, int]:
        """The export plan of *region* and the byte size of this export."""
        plan = self._export_plans.get(region)
        if plan is None:
            raise ValidationError(f"{self.program} declares no region {region!r}")
        if data is None:
            return plan, plan.nbytes
        if tuple(data.shape) != plan.shape:
            raise ValidationError(
                f"export {region}@{ts}: local block shape {data.shape} != "
                f"decomposition shape {plan.shape}"
            )
        return plan, int(data.nbytes)

    def _assemble(
        self, region: str, pieces: list[wire.DataPiece]
    ) -> np.ndarray | None:
        """This rank's block of *region* from its received pieces."""
        if any(p.data is None for p in pieces):
            return None
        local = self.local_region(region)
        block = np.zeros(local.shape, dtype=self._program.regions[region].dtype)
        slice_map: dict[RectRegion, tuple[slice, ...]] = {}
        if pieces:
            crt = self._rt._connections[pieces[0].connection_id]
            slice_map = crt.recv_slices.get(self.rank, {})
        for p in pieces:
            sl = slice_map.get(p.region)
            if sl is None:
                sl = p.region.to_slices(origin=local.lo)
            block[sl] = p.data
        return block


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def _sanitize_mode(sanitize: bool | str | None) -> bool | str:
    """``RunOptions.sanitize``, with ``None`` read from ``REPRO_SANITIZE``
    (``1``/``strict`` or ``report``; empty or ``0`` disables)."""
    if sanitize is None:
        env = os.environ.get("REPRO_SANITIZE", "")
        if env in ("", "0"):
            sanitize = False
        elif env == "report":
            sanitize = "report"
        else:  # "1", "strict", or any other opt-in value
            sanitize = "strict"
    require(
        sanitize in (False, True, "strict", "report"),
        "sanitize: True/'strict', 'report', or False",
    )
    return sanitize


class ProtocolDriver:
    """Runtime-independent half of a coupled simulation.

    Subclasses (the runtime adapters) pass their :class:`RuntimePort`
    and the resolved base retransmission timeout *rto*: the explicit
    ``retransmit_timeout``, else the runtime's default when a fault
    layer is installed, else ``None`` — the classic reliable-network
    protocol, no retransmission.
    """

    def __init__(
        self,
        config: CouplingConfig | str,
        options: Any,
        port: RuntimePort,
        *,
        rto: float | None,
        max_retransmits: int,
    ) -> None:
        #: The frozen options this simulation was built from.
        self.options = options
        self.config = parse_config(config) if isinstance(config, str) else config
        self.config.validate()
        self._now = port.now
        self._send = port.send
        self._guard = port.guard
        self._lock = port.lock
        self.buddy_help = options.buddy_help
        self.tracer = options.tracer if options.tracer is not None else NullTracer()
        if rto is not None:
            require_positive(rto, "retransmit_timeout")
        self._rto = rto
        #: Resilient mode: relaxed ordering + idempotent reps +
        #: importer-side retransmission.
        self.resilient = rto is not None
        self.strict_order = not self.resilient
        self.max_retransmits = max_retransmits
        #: Which match engine every exporter process uses (validated by
        #: ``RunOptions.__post_init__``; decisions are backend-independent).
        self.match_backend = options.match_backend
        #: Resilience counters (reported by the chaos benchmark).
        self.retransmissions = 0
        self.dup_discards = 0
        #: Framework traffic, split by plane kind.  Control bytes include
        #: every retransmitted/duplicated control message at full
        #: CTL_NBYTES — the DES timing model charges them all.
        self.ctl_messages = 0
        self.ctl_bytes = 0
        self.data_messages = 0
        self.data_bytes = 0
        # next() on itertools.count is atomic under the GIL, so stamping
        # needs no lock on the thread runtime.
        self._next_seq = itertools.count(1).__next__
        #: Provenance recorder (opt-in).  Recorder appends are single
        #: ``list.append``/dict-op calls, atomic under the GIL.
        self._prov: Any | None = None
        if options.provenance is not None:
            # Imported lazily: the core stays importable without the
            # obs package and pays nothing when recording is off.
            from repro.obs.prov import ProvenanceRecorder

            self._prov = ProvenanceRecorder(options.provenance)
        #: Causal tracing (opt-in).  Provenance needs the causal DAG to
        #: certify replays, so recording implies it.
        self.causal: CausalLog | None = (
            CausalLog() if options.causal_trace or self._prov is not None else None
        )
        #: Optional Property-1 operation log (``record_operations``).
        self.operation_log: OperationLog | None = (
            OperationLog() if options.record_operations else None
        )
        #: The online sanitizer (``sanitize``, else ``REPRO_SANITIZE``).
        self.sanitizer: Any | None = None
        sanitize = _sanitize_mode(options.sanitize)
        if sanitize:
            # Imported lazily: the core stays importable without the
            # analysis package and pays nothing when sanitizing is off.
            from repro.analysis.sanitizer import ProtocolSanitizer

            self.sanitizer = ProtocolSanitizer(self.config, strict=sanitize != "report")
        #: The folds watching the run (empty: every decision site costs
        #: one truth test) and, per event kind, the one callable handing
        #: an event to each fold that reads it and returning the span
        #: context the causal fold recorded; built by :meth:`_subscribe`
        #: when the run is resolved.
        self._watch: tuple[Any, ...] = ()
        self._fold: dict[str, spine.Handler] = {}
        #: Streaming telemetry (opt-in): sinks receive periodic snapshots.
        self.telemetry_sinks: tuple[Any, ...] = tuple(options.telemetry_sinks)
        self.telemetry_interval = options.telemetry_interval
        self._programs: dict[str, _ProgramRuntime] = {}
        self._connections: dict[str, _ConnRuntime] = {
            c.connection_id: _ConnRuntime(c) for c in self.config.connections
        }
        self._started = False

    # -- setup ------------------------------------------------------------
    def _add_program(
        self,
        name: str,
        main: Callable[..., Any] | None,
        regions: dict[str, RegionDef] | None,
        nprocs: int | None,
        create_comms: Callable[[str, int], list[Any]],
        register: Callable[[Any], Any],
    ) -> _ProgramRuntime:
        """Validate and register a program (``add_program`` of a runtime).

        *create_comms* builds the program's vmpi communicators and
        *register* creates one framework mailbox at an address.
        """
        require(not self._started, "cannot add programs after run()")
        if name in self._programs:
            raise ValidationError(f"program {name!r} already added")
        if nprocs is None:
            spec = self.config.programs.get(name)
            if spec is None:
                raise ConfigError(
                    f"program {name!r} is not in the configuration; pass nprocs="
                )
            nprocs = spec.nprocs
        require_positive(nprocs, "nprocs")
        regions = dict(regions or {})
        for rname, rdef in regions.items():
            if rdef.decomp.nprocs != nprocs:
                raise ValidationError(
                    f"region {name}.{rname}: decomposition is over "
                    f"{rdef.decomp.nprocs} ranks but the program has {nprocs}"
                )
        comms = create_comms(name, nprocs)
        for r in range(nprocs):
            register(("ctl", name, r))
            register(("cpl", name, r))
        register(("rep", name))
        prog = _ProgramRuntime(name, nprocs, main, regions, comms)
        self._programs[name] = prog
        return prog

    def _resolve(self, context_cls: Callable[..., Any], runtime: str) -> None:
        """Resolve connections, then build reps and process contexts.

        Both endpoints of every connection must be registered with
        matching region declarations (the paper's early detection of
        incorrect couplings).
        """
        self._started = True
        for crt in self._connections.values():
            spec = crt.spec
            for side, ep in (("exporter", spec.exporter), ("importer", spec.importer)):
                prog = self._programs.get(ep.program)
                if prog is None:
                    raise ConfigError(
                        f"connection {crt.cid}: {side} program {ep.program!r} "
                        "was never added"
                    )
                if ep.region not in prog.regions:
                    raise ConfigError(
                        f"connection {crt.cid}: program {ep.program!r} does not "
                        f"declare region {ep.region!r}"
                    )
            exp_def = self._programs[spec.exporter.program].regions[spec.exporter.region]
            imp_def = self._programs[spec.importer.program].regions[spec.importer.region]
            if exp_def.decomp.global_shape != imp_def.decomp.global_shape:
                raise ConfigError(
                    f"connection {crt.cid}: exporter global shape "
                    f"{exp_def.decomp.global_shape} != importer global shape "
                    f"{imp_def.decomp.global_shape}"
                )
            transfer = exp_def.effective_section().intersect(
                imp_def.effective_section()
            )
            if transfer.is_empty:
                raise ConfigError(
                    f"connection {crt.cid}: the exporter and importer sections "
                    "do not overlap — nothing would ever be transferred"
                )
            crt.schedule = CommSchedule.build_cached(
                exp_def.decomp, imp_def.decomp, transfer
            )
            # Precompute the per-rank wire plans once: every export of
            # this connection reuses the same slice tuples, so the hot
            # path sends zero-copy views with no index arithmetic.
            itemsize = exp_def.itemsize
            crt.send_plans = {
                r: tuple(
                    (
                        item.dst_rank,
                        item.region,
                        item.region.to_slices(origin=exp_def.decomp.local_region(r).lo),
                        item.region.size * itemsize,
                    )
                    for item in crt.schedule.sends_for(r)
                )
                for r in range(exp_def.decomp.nprocs)
            }
            crt.recv_slices = {
                r: {
                    item.region: item.region.to_slices(
                        origin=imp_def.decomp.local_region(r).lo
                    )
                    for item in crt.schedule.recvs_for(r)
                }
                for r in range(imp_def.decomp.nprocs)
            }

        for prog in self._programs.values():
            exp_cids = [
                c.connection_id
                for c in self.config.connections
                if c.exporter.program == prog.name
            ]
            imp_cids = [
                c.connection_id
                for c in self.config.connections
                if c.importer.program == prog.name
            ]
            if exp_cids:
                prog.exp_rep = ExporterRep(
                    prog.name,
                    prog.nprocs,
                    exp_cids,
                    buddy_help=self.buddy_help,
                    strict_order=self.strict_order,
                )
            if imp_cids:
                prog.imp_rep = ImporterRep(prog.name, prog.nprocs, imp_cids)
            prog.contexts = [context_cls(self, prog, r) for r in range(prog.nprocs)]
        self._subscribe()
        if self._prov is not None:
            from repro.obs.prov import build_header

            self._prov.set_header(build_header(self, runtime))

    def _subscribe(self) -> None:
        """Point the event spine at the run's consumers as they are now."""
        self._watch, self._fold = spine.subscribe(
            self.tracer, self.causal, self.sanitizer, self._prov,
            self.operation_log, self.match_backend,
        )

    def check_property1(self, raise_on_violation: bool = True) -> list[str]:
        """Verify Property 1 over the recorded operation log.

        Requires ``RunOptions(record_operations=True)``.  Returns
        violation descriptions (empty when conformant); raises
        :class:`~repro.core.exceptions.PropertyViolationError` by
        default when any are found.
        """
        require(
            self.operation_log is not None,
            "run with options=RunOptions(record_operations=True) to check "
            "Property 1",
        )
        assert self.operation_log is not None
        return check_property1(
            self.operation_log, raise_on_violation=raise_on_violation
        )

    def context(self, program: str, rank: int) -> Any:
        """The per-process context of one process (after run() started)."""
        return self._programs[program].contexts[rank]

    def buffer_stats(self, program: str, rank: int, region: str) -> Any:
        """Buffer counters (Eq. 1-2 ledgers) of one process's region."""
        return self.context(program, rank).export_states[region].buffer.stats()

    # -- the one send path ---------------------------------------------------
    def _net_send(
        self, src: Any, dst: Any, payload: Any, nbytes: int = wire.CTL_NBYTES
    ) -> None:
        """Stamp, count and record one wire unit, then hand it to the port.

        An unstamped payload (``seq == -1``) gets a fresh wire sequence
        number; a re-sent one keeps its own.
        """
        if payload.seq == -1:
            payload = wire.with_seq(payload, self._next_seq())
        is_data = type(payload) is wire.DataPiece
        with self._lock:
            if is_data:
                self.data_messages += 1
                self.data_bytes += nbytes
            else:
                self.ctl_messages += 1
                self.ctl_bytes += nbytes
        if self._prov is not None:
            self._prov.on_wire(
                self._now(),
                payload.seq,
                src,
                dst,
                type(payload).__name__,
                "data" if is_data else "ctl",
                nbytes,
                None if is_data else payload.trace,
            )
        self._send(src, dst, payload, nbytes)

    def _seq_duplicate(self, msg: Any, seen: set[int], who: str) -> bool:
        """Wire-level duplicate detection by sequence number."""
        seq = getattr(msg, "seq", -1)
        if seq < 0:
            return False
        if seq in seen:
            with self._lock:
                self.dup_discards += 1
            if self._watch:
                self._fold[spine.DUP_DISCARD](ProtocolEvent(
                    spine.DUP_DISCARD, who, self._now(),
                    values=(type(msg).__name__, seq),
                ))
            return True
        seen.add(seq)
        return False

    # -- exporter side: data plane, responses, agent ---------------------------
    def _match_entry(
        self, ctx: ContextBase, region: str, cid: str, m: float
    ) -> BufferEntry | None:
        """The buffered match *m*, marked sent; ``None`` once it is gone
        after a transfer.  A match neither buffered nor ever sent raises."""
        buffer = ctx.export_states[region].buffer
        if not buffer.has(m):
            if buffer.was_sent(m):
                # Already transferred (a retransmission-driven re-send
                # by the agent can beat this call and evict the entry);
                # the importer deduplicates pieces, nothing to do.
                return None
            raise FrameworkError(
                f"{ctx.who}: match @{m:g} of {cid} is no longer buffered — "
                "pipelined imports combined with control-message loss can "
                "evict a pending match (see docs/resilience.md)"
            )
        entry = buffer.get(m)
        if not entry.sent:
            buffer.mark_sent(m)
        return entry

    def _send_pieces(self, ctx: ContextBase, region: str, cid: str, m: float) -> None:
        """Transfer this rank's scheduled pieces of the matched object."""
        entry = self._match_entry(ctx, region, cid, m)
        if entry is None:
            return
        crt = self._connections[cid]
        payload = entry.payload
        imp_prog = crt.spec.importer.program
        src_addr = ("cpl", ctx.program, ctx.rank)
        # Zero-copy: each piece is a view into the buffered payload (a
        # private copy, never mutated after buffering, so also safe to
        # share across threads), selected by the slice tuple
        # precomputed at finalize time.
        for dst_rank, piece_region, slices, nbytes in crt.send_plans.get(ctx.rank, ()):
            data = payload[slices] if payload is not None else None
            self._net_send(
                src_addr,
                ("cpl", imp_prog, dst_rank),
                wire.DataPiece(
                    connection_id=cid,
                    match_ts=m,
                    src_rank=ctx.rank,
                    region=piece_region,
                    data=data,
                    nbytes=nbytes,
                ),
                nbytes=nbytes,
            )
        if self._watch:
            self._fold[spine.EXPORT_SEND](ProtocolEvent(
                spine.EXPORT_SEND, ctx.who, self._now(), cid, rank=ctx.rank, ts=m
            ))

    def _send_response(
        self, ctx: ContextBase, cid: str, response: MatchResponse
    ) -> None:
        """Send one per-process match response to the program's rep."""
        tr: TraceContext | None = None
        if self._watch:
            tr = self._fold[spine.MATCH](ProtocolEvent(
                spine.MATCH, ctx.who, self._now(), cid, response.request_ts,
                rank=ctx.rank, decision=response,
            ))
        self._net_send(
            ("cpl", ctx.program, ctx.rank),
            ("rep", ctx.program),
            wire.ProcResponse(
                connection_id=cid, rank=ctx.rank, response=response, trace=tr
            ),
        )

    def _after_export(
        self, ctx: ContextBase, region: str, ts: float, outcome: Any
    ) -> None:
        """Emit what one export call made due."""
        # Transfers: this export *is* the match for these connections.
        for cid in outcome.send_connections:
            self._send_pieces(ctx, region, cid, ts)
        for cid, m in outcome.post_sends:
            self._send_pieces(ctx, region, cid, m)
        # Slow-path responses: open requests that became decidable.
        for cid, response in outcome.new_responses:
            self._send_response(ctx, cid, response)

    def _close_exports(self, ctx: ContextBase) -> None:
        """End of one application main: close its export streams."""
        for region, st in ctx.export_states.items():
            responses, post_sends = st.close()
            for cid, m in post_sends:
                self._send_pieces(ctx, region, cid, m)
            for cid, response in responses:
                self._send_response(ctx, cid, response)

    def _evict(self, ctx: ContextBase, st: RegionExportState) -> int:
        """Free entries past the eviction threshold; returns how many."""
        evicted = st.collect_evictions()
        if not evicted:
            return 0
        if self._watch:
            self._fold[spine.EVICT](ProtocolEvent(
                spine.EVICT, ctx.who, self._now(),
                rank=ctx.rank, ts=evicted[-1].ts, decision=evicted,
            ))
        return len(evicted)

    def _buddy_skip(self, ctx: ContextBase, ts: float, outcome: Any) -> None:
        """Account one skip that only the rep's disseminated answer enabled.

        The lead is the time from the enabling buddy answer's arrival
        to the skip decision it enabled — how much of a head start the
        rep's dissemination gave this process over deciding locally.
        """
        ctx.stats.buddy_skips += 1
        enabler = outcome.buddy_enabler
        arrived_at = None if enabler is None else ctx._buddy_arrivals.get(enabler)
        if arrived_at is None:
            return
        cid, request_ts = enabler
        now = self._now()
        lead = now - arrived_at
        ctx.stats.buddy_lead_times.append((ts, request_ts, lead))
        if self._watch:
            self._fold[spine.BUDDY_SKIP](ProtocolEvent(
                spine.BUDDY_SKIP, ctx.who, now, cid, request_ts,
                rank=ctx.rank, ts=ts, values=(lead,),
            ))

    def _agent_handle(self, ctx: ContextBase, msg: Any) -> int:
        """Apply one rep→process message; returns the entries it evicted."""
        if isinstance(msg, wire.FwdRequest):
            cid, request_ts = msg.connection_id, msg.request_ts
            region = self._exported_region(ctx.program, cid)
            st = ctx.export_states[region]
            if self._watch:
                self._fold[spine.REQUEST_RECV](ProtocolEvent(
                    spine.REQUEST_RECV, ctx.who, self._now(), cid, request_ts,
                    rank=ctx.rank, cause=msg.trace,
                ))
            with self._guard(
                ("ctx", ctx.who),
                (("match", ctx.who, region), "write", "agent.on_request"),
                (("ledger", ctx.who, region), "write", "agent.pieces"),
            ):
                outcome = st.on_request(cid, request_ts)
                self._send_response(ctx, cid, outcome.response)
                if outcome.applied is not None and outcome.applied.send_now is not None:
                    self._send_pieces(ctx, region, cid, outcome.applied.send_now)
                return self._evict(ctx, st)
        if isinstance(msg, wire.BuddyMsg):
            cid, answer = msg.connection_id, msg.answer
            region = self._exported_region(ctx.program, cid)
            st = ctx.export_states[region]
            now = self._now()
            if self._watch:
                self._fold[spine.BUDDY_RECV](ProtocolEvent(
                    spine.BUDDY_RECV, ctx.who, now, cid, answer.request_ts,
                    rank=ctx.rank, decision=answer, cause=msg.trace,
                ))
            # Arrival bookkeeping is unconditional (one dict write, off
            # the hot path): buddy-help lead times are reported even
            # when nothing watches the run.
            ctx._buddy_arrivals[(cid, answer.request_ts)] = now
            with self._guard(
                ("ctx", ctx.who),
                (("match", ctx.who, region), "write", "agent.on_buddy_answer"),
                (("ledger", ctx.who, region), "write", "agent.buddy_pieces"),
            ):
                applied = st.on_buddy_answer(cid, answer)
                ctx.stats.buddy_answers_received += 1
                if applied.send_now is not None:
                    self._send_pieces(ctx, region, cid, applied.send_now)
                return self._evict(ctx, st)
        raise FrameworkError(f"agent received unexpected message {msg!r}")

    def _exported_region(self, prog: str, cid: str) -> str:
        spec = self._connections[cid].spec
        if spec.exporter.program != prog:
            raise ValidationError(f"{cid} does not export from {prog}")
        return spec.exporter.region

    # -- representatives -------------------------------------------------------
    def _rep_handle(self, prog: _ProgramRuntime, msg: Any) -> None:
        """Dispatch one rep message to the right state machine."""
        cause: TraceContext | None = getattr(msg, "trace", None)
        with self._guard(
            ("rep", prog.name),
            (("rep_cache", prog.rep_who), "write", "rep.dispatch"),
        ):
            if isinstance(msg, wire.ReqToExpRep):
                assert prog.exp_rep is not None
                directives = prog.exp_rep.on_request(msg.connection_id, msg.request_ts)
            elif isinstance(msg, wire.ProcResponse):
                assert prog.exp_rep is not None
                if self._watch:
                    self._fold[spine.RESPONSE_RECV](ProtocolEvent(
                        spine.RESPONSE_RECV, prog.rep_who, self._now(),
                        msg.connection_id, msg.response.request_ts,
                        rank=msg.rank, decision=msg.response, cause=cause,
                    ))
                directives = prog.exp_rep.on_response(
                    msg.connection_id, msg.rank, msg.response
                )
            elif isinstance(msg, wire.ImpProcRequest):
                assert prog.imp_rep is not None
                directives = prog.imp_rep.on_process_request(
                    msg.connection_id, msg.request_ts, msg.rank
                )
            elif isinstance(msg, wire.AnswerToImpRep):
                assert prog.imp_rep is not None
                if self._watch:
                    self._fold[spine.ANSWER_RECV](ProtocolEvent(
                        spine.ANSWER_RECV, prog.rep_who, self._now(),
                        msg.connection_id, msg.answer.request_ts,
                        decision=msg.answer, cause=cause,
                    ))
                directives = prog.imp_rep.on_answer(msg.connection_id, msg.answer)
            else:
                raise FrameworkError(f"rep received unexpected message {msg!r}")
        for d in directives:
            self._execute_directive(prog, d, cause)

    def _execute_directive(
        self, prog: _ProgramRuntime, d: Any, cause: TraceContext | None = None
    ) -> None:
        """Announce a rep directive, then send the wire message it implies.

        *cause* is the trace context of the rep message that produced
        the directive; the announcement returns the one the sent
        message carries.
        """
        cid = d.connection_id
        tr: TraceContext | None = None
        if self._watch:
            ev = self._directive_event(prog, d, cause)
            tr = self._fold[ev.kind](ev)
        if isinstance(d, ForwardRequest):
            dst: Any = ("ctl", prog.name, d.rank)
            payload: Any = wire.FwdRequest(
                connection_id=cid, request_ts=d.request_ts, trace=tr
            )
        elif isinstance(d, AnswerImporter):
            dst = ("rep", self._connections[cid].spec.importer.program)
            payload = wire.AnswerToImpRep(connection_id=cid, answer=d.answer, trace=tr)
        elif isinstance(d, BuddyHelp):
            dst = ("ctl", prog.name, d.rank)
            payload = wire.BuddyMsg(connection_id=cid, answer=d.answer, trace=tr)
        elif isinstance(d, ForwardToExporter):
            dst = ("rep", self._connections[cid].spec.exporter.program)
            payload = wire.ReqToExpRep(
                connection_id=cid, request_ts=d.request_ts, trace=tr
            )
        elif isinstance(d, DeliverAnswer):
            dst = ("cpl", prog.name, d.rank)
            payload = wire.AnswerToProc(connection_id=cid, answer=d.answer, trace=tr)
        else:  # pragma: no cover - defensive
            raise FrameworkError(f"unknown directive {d!r}")
        self._net_send(("rep", prog.name), dst, payload)

    def _directive_event(
        self, prog: _ProgramRuntime, d: Any, cause: TraceContext | None
    ) -> ProtocolEvent:
        """The announcement of rep directive *d*; an aggregation carries
        its ``(case, finalizing_rank)``."""
        answer = getattr(d, "answer", None)
        request_ts = d.request_ts if answer is None else answer.request_ts
        info: tuple[Any, ...] = ()
        if type(d) is AnswerImporter:
            assert prog.exp_rep is not None
            info = prog.exp_rep.finalize_info(d.connection_id, request_ts) or ()
        return ProtocolEvent(
            _DIRECTIVE_KINDS[type(d)], prog.rep_who, self._now(), d.connection_id,
            request_ts, rank=getattr(d, "rank", None), decision=answer,
            values=info, cause=cause,
        )

    # -- importer side -----------------------------------------------------------
    def _send_request(
        self, ctx: ContextBase, cid: str, ts: float, tr: TraceContext | None
    ) -> None:
        self._net_send(
            ("cpl", ctx.program, ctx.rank),
            ("rep", ctx.program),
            wire.ImpProcRequest(
                connection_id=cid, request_ts=ts, rank=ctx.rank, trace=tr
            ),
        )

    def _import_begin(self, ctx: ContextBase, region: str, ts: float) -> ImportHandle:
        """Post this rank's request for *ts*; returns its handle."""
        ist = ctx.import_states.get(region)
        if ist is None:
            raise ValidationError(f"{ctx.program} imports no region {region!r}")
        cid = ist.connection_id
        now = self._now()
        record = ist.start_request(ts, now)
        tr: TraceContext | None = None
        if self._watch:
            tr = self._fold[spine.IMPORT_REQUEST](ProtocolEvent(
                spine.IMPORT_REQUEST, ctx.who, now, cid, ts,
                program=ctx.program, rank=ctx.rank, region=region,
            ))
        self._send_request(ctx, cid, ts, tr)
        return ImportHandle(region=region, connection_id=cid, ts=ts, record=record)

    def _retransmit(
        self, ctx: ContextBase, handle: ImportHandle, attempt: int, rto: float
    ) -> None:
        """Re-send the request behind *handle* after its *attempt*-th timeout.

        The importing process owns the single retransmission timer of
        its request: the re-send is a fresh send (fresh sequence number)
        and every hop recovers idempotently — the rep re-drives the
        cross-program request, the exporter rep re-answers from its
        final-answer cache, and agents re-send buffered pieces.
        """
        cid, ts = handle.connection_id, handle.ts
        if attempt > self.max_retransmits:
            raise FrameworkError(
                f"{ctx.who}: request {cid}@{ts:g} unanswered after "
                f"{self.max_retransmits} retransmissions"
            )
        with self._lock:
            self.retransmissions += 1
        tr: TraceContext | None = None
        if self._watch:
            tr = self._fold[spine.RETRANSMIT](ProtocolEvent(
                spine.RETRANSMIT, ctx.who, self._now(), cid, ts,
                rank=ctx.rank, values=(attempt, rto),
            ))
        self._send_request(ctx, cid, ts, tr)

    def _import_answered(
        self, ctx: ContextBase, handle: ImportHandle, msg: wire.AnswerToProc
    ) -> None:
        """Consume the final answer of *handle*.

        A NO_MATCH answer also completes the import (nothing will be
        transferred).
        """
        answer = msg.answer
        now = self._now()
        ctx.import_states[handle.region].on_answer(handle.record, answer, now)
        handle.done = True
        if self._watch:
            self._fold[spine.ANSWERED](ProtocolEvent(
                spine.ANSWERED, ctx.who, now, handle.connection_id, handle.ts,
                rank=ctx.rank, decision=answer, cause=msg.trace,
            ))
        if answer.kind is MatchKind.NO_MATCH:
            self._import_complete(ctx, handle, msg, None)

    def _import_complete(
        self,
        ctx: ContextBase,
        handle: ImportHandle,
        msg: wire.AnswerToProc,
        pieces: list[wire.DataPiece] | None,
    ) -> np.ndarray | None:
        """Finish the import behind *handle*; returns the assembled block.

        *pieces* is ``None`` for a NO_MATCH answer.
        """
        block = None if pieces is None else ctx._assemble(handle.region, pieces)
        now = self._now()
        ctx.import_states[handle.region].complete(handle.record, now)
        if self._watch:
            self._fold[spine.IMPORT_COMPLETE](ProtocolEvent(
                spine.IMPORT_COMPLETE, ctx.who, now, handle.connection_id, handle.ts,
                rank=ctx.rank, ts=msg.answer.matched_ts, decision=msg.answer,
                values=(None if pieces is None else len(pieces),),
            ))
        return block
