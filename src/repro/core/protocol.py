"""The sans-I/O protocol driver shared by every runtime.

:mod:`repro.core.rep`, :mod:`repro.core.exporter`,
:mod:`repro.core.importer` and :mod:`repro.core.wire` hold the paper's
control plane as pure state machines.  This module holds everything
that *drives* them, once: connection/schedule/send-plan/rep resolution,
rep-message dispatch, directive → wire-message translation (with the
tracer, causal-span and provenance hooks), agent handling of forwarded
requests and buddy-help answers, response and data-piece emission,
sequence stamping and dedup, wire counters, the importer's
request/answer/complete bookkeeping and buddy-skip lead accounting.

It never touches a clock, a mailbox, a lock or a scheduler.  A runtime
subclasses :class:`ProtocolDriver` and hands it a :class:`RuntimePort`
— three callables bound once at construction:

``now()``
    the run clock (virtual seconds on the DES, run-relative wall
    seconds on threads) — every tracer event, causal span and
    provenance row of a run is stamped from it;
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
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, NamedTuple

import numpy as np

from repro.core import wire
from repro.core.buffers import BufferEntry
from repro.core.config import ConnectionSpec, CouplingConfig, parse_config
from repro.core.exceptions import ConfigError, FrameworkError
from repro.core.exporter import ExportDecision, RegionExportState
from repro.core.importer import RegionImportState
from repro.core.rep import (
    AnswerImporter,
    BuddyHelp,
    DeliverAnswer,
    ExporterRep,
    ForwardRequest,
    ForwardToExporter,
    ImporterRep,
)
from repro.data.decomposition import BlockDecomposition
from repro.data.region import RectRegion
from repro.data.schedule import CommSchedule
from repro.match.result import MatchKind, MatchResponse
from repro.obs.trace import CausalLog, TraceContext
from repro.util import tracing
from repro.util.tracing import NullTracer
from repro.util.validation import ValidationError, require, require_positive

_UNGUARDED: ContextManager[Any] = contextlib.nullcontext()


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
        #: Arrival bookkeeping for buddy answers, keyed by
        #: ``(connection_id, request_ts)``: ``(arrived_at, recv_span)``.
        #: Feeds the per-window buddy-help lead times.
        self._buddy_arrivals: dict[tuple[str, float], tuple[float, Any]] = {}
        #: Trace context of the last FwdRequest per request, so the
        #: (possibly much later) match response can name its cause.
        self._causal_fwd: dict[tuple[str, float], TraceContext | None] = {}

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

    def _record_export(self, region: str, ts: float, data: np.ndarray | None) -> None:
        """Provenance row of one finished export call (callers check
        that a recorder is attached: the unrecorded path makes no call)."""
        self._rt._prov.on_op(
            self.program,
            self.rank,
            "export",
            region,
            ts,
            None if data is None else np.dtype(data.dtype).name,
        )

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
        #: The online sanitizer, when a runtime enables one.
        self.sanitizer: Any | None = None
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
        #: Provenance recorder (opt-in).  ``None`` keeps every hot-path
        #: hook to one attribute check per event.  Recorder appends are
        #: single ``list.append``/dict-op calls, atomic under the GIL.
        self._prov: Any | None = None
        if options.provenance is not None:
            # Imported lazily: the core stays importable without the
            # obs package and pays nothing when recording is off.
            from repro.obs.prov import ProvenanceRecorder

            self._prov = ProvenanceRecorder(options.provenance)
        #: Causal tracing (opt-in).  Provenance needs the causal DAG to
        #: certify replays, so recording implies it.  The aux dicts are
        #: written by at most one thread per key.
        self.causal: CausalLog | None = (
            CausalLog() if options.causal_trace or self._prov is not None else None
        )
        self._causal_req: dict[tuple[str, float, int], TraceContext] = {}
        self._causal_resp: dict[tuple[str, float], list[int]] = {}
        self._causal_agg: dict[tuple[str, float], TraceContext] = {}
        self._causal_ans: dict[tuple[str, float], TraceContext] = {}
        #: Optional Property-1 operation log (``record_operations``).
        self.operation_log: Any | None = None
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
                if self.sanitizer is not None:
                    prog.exp_rep = self.sanitizer.wrap_rep(prog.exp_rep)
            if imp_cids:
                prog.imp_rep = ImporterRep(prog.name, prog.nprocs, imp_cids)
                if self.sanitizer is not None:
                    prog.imp_rep = self.sanitizer.wrap_imp_rep(prog.imp_rep)
            prog.contexts = [context_cls(self, prog, r) for r in range(prog.nprocs)]
        if self._prov is not None:
            from repro.obs.prov import build_header

            self._prov.set_header(build_header(self, runtime))

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
            if self.tracer.enabled:
                self.tracer.record(
                    tracing.DUP_DISCARD,
                    who,
                    self._now(),
                    msg=type(msg).__name__,
                    seq=seq,
                )
            return True
        seen.add(seq)
        return False

    # -- causal tracing -------------------------------------------------------
    def _causal_child(
        self,
        name: str,
        who: str,
        cause: TraceContext | None,
        cid: str,
        request_ts: float,
        extra_parents: tuple[int, ...] = (),
        **attrs: Any,
    ) -> TraceContext:
        """Record a span caused by *cause* (or rooted at the request key)."""
        assert self.causal is not None
        tid = (
            cause.trace_id
            if cause is not None
            else self.causal.trace_for(cid, request_ts)
        )
        parents = (() if cause is None else (cause.span_id,)) + tuple(extra_parents)
        return self.causal.record(
            tid,
            name,
            who,
            self._now(),
            parents=parents,
            connection=cid,
            request=request_ts,
            **attrs,
        )

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
        if self.tracer.enabled:
            self.tracer.record(tracing.EXPORT_SEND, ctx.who, self._now(), timestamp=m)

    def _send_response(
        self, ctx: ContextBase, cid: str, response: MatchResponse
    ) -> None:
        """Send one per-process match response to the program's rep."""
        if self.tracer.enabled:
            self.tracer.record(
                tracing.REQUEST_REPLY,
                ctx.who,
                self._now(),
                cid=cid,
                request=response.request_ts,
                answer=str(response.kind),
                latest=(None if response.latest_export_ts == float("-inf")
                        else response.latest_export_ts),
            )
        tr: TraceContext | None = None
        if self.causal is not None:
            tr = self._causal_child(
                "match",
                ctx.who,
                ctx._causal_fwd.get((cid, response.request_ts)),
                cid,
                response.request_ts,
                kind=str(response.kind),
                rank=ctx.rank,
            )
        if self._prov is not None:
            self._prov.on_match(
                self._now(),
                cid,
                ctx.rank,
                response.request_ts,
                str(response.kind),
                response.latest_export_ts,
                self.match_backend,
            )
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
        if self.tracer.enabled:
            self.tracer.record(
                tracing.BUFFER_REMOVE,
                ctx.who,
                self._now(),
                timestamp=evicted[-1].ts,
                low=evicted[0].ts,
                high=evicted[-1].ts,
            )
        return len(evicted)

    def _buddy_skip(self, ctx: ContextBase, ts: float, outcome: Any) -> None:
        """Account one skip that only the rep's disseminated answer enabled.

        The lead is the time from the enabling buddy answer's arrival
        to the skip decision it enabled — how much of a head start the
        rep's dissemination gave this process over deciding locally.
        """
        ctx.stats.buddy_skips += 1
        enabler = outcome.buddy_enabler
        arrival = None if enabler is None else ctx._buddy_arrivals.get(enabler)
        if arrival is None:
            return
        cid, request_ts = enabler
        arrived_at, recv_span = arrival
        now = self._now()
        lead = now - arrived_at
        ctx.stats.buddy_lead_times.append((ts, request_ts, lead))
        if self.causal is not None:
            self._causal_child(
                "buddy_skip", ctx.who, recv_span, cid, request_ts,
                export_ts=ts, lead=lead,
            )

    def _agent_handle(self, ctx: ContextBase, msg: Any) -> int:
        """Apply one rep→process message; returns the entries it evicted."""
        tracer = self.tracer
        if isinstance(msg, wire.FwdRequest):
            cid, request_ts = msg.connection_id, msg.request_ts
            region = self._exported_region(ctx.program, cid)
            st = ctx.export_states[region]
            if tracer.enabled:
                tracer.record(
                    tracing.REQUEST_RECV, ctx.who, self._now(),
                    cid=cid, request=request_ts,
                )
            if self.causal is not None:
                ctx._causal_fwd[(cid, request_ts)] = msg.trace
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
            if tracer.enabled:
                tracer.record(
                    tracing.BUDDY_RECV,
                    ctx.who,
                    self._now(),
                    cid=cid,
                    request=answer.request_ts,
                    answer="YES" if answer.is_match else "NO",
                    match=answer.matched_ts
                    if answer.matched_ts is not None
                    else answer.request_ts,
                )
            recv_tr: TraceContext | None = None
            if self.causal is not None:
                recv_tr = self._causal_child(
                    "buddy_recv", ctx.who, msg.trace, cid, answer.request_ts,
                    rank=ctx.rank,
                )
            # Arrival bookkeeping is unconditional (one dict write, off
            # the hot path): buddy-help lead times are reported even
            # without causal tracing.
            ctx._buddy_arrivals[(cid, answer.request_ts)] = (self._now(), recv_tr)
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
            (("rep_cache", f"{prog.name}.rep"), "write", "rep.dispatch"),
        ):
            if isinstance(msg, wire.ReqToExpRep):
                assert prog.exp_rep is not None
                directives = prog.exp_rep.on_request(msg.connection_id, msg.request_ts)
            elif isinstance(msg, wire.ProcResponse):
                assert prog.exp_rep is not None
                if self.causal is not None and cause is not None:
                    # The aggregate span joins every per-process match
                    # span gathered for this request, not just the
                    # finalizing one.
                    self._causal_resp.setdefault(
                        (msg.connection_id, msg.response.request_ts), []
                    ).append(cause.span_id)
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
                if self.causal is not None and cause is not None:
                    self._causal_ans[(msg.connection_id, msg.answer.request_ts)] = cause
                directives = prog.imp_rep.on_answer(msg.connection_id, msg.answer)
            else:
                raise FrameworkError(f"rep received unexpected message {msg!r}")
        for d in directives:
            self._execute_directive(prog, d, cause)

    def _execute_directive(
        self, prog: _ProgramRuntime, d: Any, cause: TraceContext | None = None
    ) -> None:
        """Send the wire message a rep directive implies.

        *cause* is the trace context of the rep message that produced
        the directive (causal tracing only).
        """
        rep_who = f"{prog.name}.rep"
        cid = d.connection_id
        tracer = self.tracer
        tr: TraceContext | None = None
        if isinstance(d, ForwardRequest):
            if self.causal is not None:
                tr = self._causal_child(
                    "fan_out", rep_who, cause, cid, d.request_ts, rank=d.rank
                )
            dst: Any = ("ctl", prog.name, d.rank)
            payload: Any = wire.FwdRequest(
                connection_id=cid, request_ts=d.request_ts, trace=tr
            )
        elif isinstance(d, AnswerImporter):
            request_ts = d.answer.request_ts
            if tracer.enabled:
                tracer.record(
                    tracing.REP_FINALIZE, rep_who, self._now(),
                    request=request_ts, answer=str(d.answer.kind),
                )
            if self.causal is not None:
                key = (cid, request_ts)
                prior = self._causal_agg.get(key)
                extra = tuple(self._causal_resp.pop(key, ()))
                attrs: dict[str, Any] = {"kind": str(d.answer.kind)}
                finfo = getattr(prog.exp_rep, "finalize_info", None)
                info = finfo(cid, request_ts) if finfo else None
                if info is not None:
                    attrs["case"], attrs["finalizing_rank"] = info
                if prior is not None:
                    extra = (prior.span_id,) + extra
                    attrs["cached"] = True
                tr = self._causal_child(
                    "aggregate", rep_who, cause, cid, request_ts,
                    extra_parents=extra, **attrs,
                )
                self._causal_agg.setdefault(key, tr)
            dst = ("rep", self._connections[cid].spec.importer.program)
            payload = wire.AnswerToImpRep(connection_id=cid, answer=d.answer, trace=tr)
        elif isinstance(d, BuddyHelp):
            request_ts = d.answer.request_ts
            if tracer.enabled:
                tracer.record(
                    tracing.BUDDY_SEND,
                    rep_who,
                    self._now(),
                    request=request_ts,
                    answer="YES" if d.answer.is_match else "NO",
                    match=d.answer.matched_ts
                    if d.answer.matched_ts is not None
                    else request_ts,
                )
            if self.causal is not None:
                agg = self._causal_agg.get((cid, request_ts))
                tr = self._causal_child(
                    "buddy_notify", rep_who, agg if agg is not None else cause,
                    cid, request_ts, rank=d.rank,
                )
            dst = ("ctl", prog.name, d.rank)
            payload = wire.BuddyMsg(connection_id=cid, answer=d.answer, trace=tr)
        elif isinstance(d, ForwardToExporter):
            if self.causal is not None:
                tr = self._causal_child(
                    "rep_forward", rep_who, cause, cid, d.request_ts
                )
            dst = ("rep", self._connections[cid].spec.exporter.program)
            payload = wire.ReqToExpRep(
                connection_id=cid, request_ts=d.request_ts, trace=tr
            )
        elif isinstance(d, DeliverAnswer):
            if self.causal is not None:
                ans = self._causal_ans.get((cid, d.answer.request_ts))
                tr = self._causal_child(
                    "answer", rep_who, cause, cid, d.answer.request_ts,
                    extra_parents=() if ans is None else (ans.span_id,),
                    rank=d.rank,
                )
            dst = ("cpl", prog.name, d.rank)
            payload = wire.AnswerToProc(connection_id=cid, answer=d.answer, trace=tr)
        else:  # pragma: no cover - defensive
            raise FrameworkError(f"unknown directive {d!r}")
        self._net_send(("rep", prog.name), dst, payload)

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
        tr: TraceContext | None = None
        if self.causal is not None:
            tr = self.causal.record(
                self.causal.trace_for(cid, ts), "request", ctx.who, now,
                connection=cid, request=ts, rank=ctx.rank,
            )
            self._causal_req[(cid, ts, ctx.rank)] = tr
        record = ist.start_request(
            ts, now, trace_id=None if tr is None else tr.trace_id
        )
        if self.tracer.enabled:
            self.tracer.record(tracing.IMPORT_REQUEST, ctx.who, now, request=ts)
        self._send_request(ctx, cid, ts, tr)
        if self.operation_log is not None:
            self.operation_log.log(ctx.program, ctx.rank, "import", region, ts)
        if self._prov is not None:
            self._prov.on_op(ctx.program, ctx.rank, "import_begin", region, ts)
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
        now = self._now()
        if self.tracer.enabled:
            self.tracer.record(
                tracing.RETRANSMIT, ctx.who, now,
                request=ts, attempt=attempt, rto=rto,
            )
        tr: TraceContext | None = None
        if self.causal is not None:
            # Retransmissions keep the ORIGINAL trace id: the DAG of one
            # import survives the fault layer intact.
            tr = self._causal_child(
                "retransmit", ctx.who, self._causal_req.get((cid, ts, ctx.rank)),
                cid, ts, attempt=attempt,
            )
        self._send_request(ctx, cid, ts, tr)

    def _import_answered(
        self, ctx: ContextBase, handle: ImportHandle, msg: wire.AnswerToProc
    ) -> TraceContext | None:
        """Consume the final answer of *handle*; returns its causal span.

        A NO_MATCH answer also completes the import (nothing will be
        transferred).
        """
        answer = msg.answer
        cid, ts = handle.connection_id, handle.ts
        ctx.import_states[handle.region].on_answer(handle.record, answer, self._now())
        handle.done = True
        span: TraceContext | None = None
        if self.causal is not None:
            root = self._causal_req.get((cid, ts, ctx.rank))
            incoming = msg.trace
            span = self._causal_child(
                "answered",
                ctx.who,
                incoming if incoming is not None else root,
                cid,
                ts,
                extra_parents=()
                if incoming is None or root is None
                else (root.span_id,),
                kind=str(answer.kind),
            )
        if answer.kind is MatchKind.NO_MATCH:
            self._import_complete(ctx, handle, msg, None, span)
        return span

    def _import_complete(
        self,
        ctx: ContextBase,
        handle: ImportHandle,
        msg: wire.AnswerToProc,
        pieces: list[wire.DataPiece] | None,
        span: TraceContext | None,
    ) -> np.ndarray | None:
        """Finish the import behind *handle*; returns the assembled block.

        *pieces* is ``None`` for a NO_MATCH answer.
        """
        block = None if pieces is None else ctx._assemble(handle.region, pieces)
        now = self._now()
        ctx.import_states[handle.region].complete(handle.record, now)
        if span is not None:
            self._causal_child(
                "complete", ctx.who, span, handle.connection_id, handle.ts,
                kind=str(msg.answer.kind),
                pieces=0 if pieces is None else len(pieces),
            )
        if pieces is not None and self.tracer.enabled:
            self.tracer.record(
                tracing.IMPORT_COMPLETE, ctx.who, now, timestamp=msg.answer.matched_ts
            )
        return block
