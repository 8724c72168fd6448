"""Wiring the coupling framework into a runnable DES simulation.

:class:`CoupledSimulation` is the public entry point of the library.
A typical session (see ``examples/quickstart.py``)::

    config = '''
    F cluster0 /bin/F 4
    U cluster1 /bin/U 16
    #
    F.forcing U.forcing REGL 2.5
    '''

    cs = CoupledSimulation(
        config, options=RunOptions(preset=PAPER_CLUSTER, buddy_help=True)
    )
    cs.add_program("F", main=f_main,
                   regions={"forcing": RegionDef(BlockDecomposition((1024, 1024), (4, 1)))})
    cs.add_program("U", main=u_main,
                   regions={"forcing": RegionDef(BlockDecomposition((1024, 1024), (16, 1)))})
    cs.run()

``f_main(ctx)`` / ``u_main(ctx)`` are generator functions; they use the
:class:`ProcessContext` API — ``yield from ctx.export(...)``,
``yield from ctx.import_(...)``, ``yield from ctx.compute(...)`` and
intra-program collectives through ``ctx.comm``.

This module is the DES *adapter* of :mod:`repro.core.protocol`: the
protocol itself (resolution, rep dispatch, directives, agent handling,
the send path, the event spine) lives there once; here are the virtual
clock, the DES mailboxes, generator scheduling and the cost models.

Topology per program: ``nprocs`` application processes (each with a
*control* agent servicing rep traffic concurrently, standing in for
the framework's service thread) plus one rep process.  Addresses on
the shared :class:`~repro.des.Network`:

* ``(name, rank)``       — the program's ``vmpi`` mailbox (user p2p
  and collectives; untouched by the framework),
* ``("ctl", name, rank)`` — framework control traffic,
* ``("cpl", name, rank)`` — coupling data plane (answers and pieces),
* ``("rep", name)``       — the program's representative.

Modelling note: an application process and its control agent can
consume virtual time concurrently, i.e. framework control work is not
serialized against application compute.  This matches the paper's
framework-thread design and keeps the (dominant) memcpy cost where the
paper measures it — inside the export call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.core import spine, wire
from repro.core.config import CouplingConfig
from repro.core.exceptions import FrameworkError
from repro.core.exporter import ExportDecision
from repro.core.protocol import (
    ContextBase,
    ExportRecord,
    ImportHandle,
    ProtocolDriver,
    RegionDef,
    RuntimePort,
    _ProgramRuntime,
)
from repro.core.spine import ProtocolEvent
from repro.data.region import RectRegion
from repro.des import AnyOf, Event, Simulator
from repro.match.result import MatchKind
from repro.util.rng import RngRegistry
from repro.util.validation import require, require_positive
from repro.vmpi.des_backend import DesWorld

if TYPE_CHECKING:
    from repro.api.options import RunOptions

__all__ = ["CoupledSimulation", "ImportHandle", "ProcessContext", "RegionDef"]


class ProcessContext(ContextBase):
    """The per-process API handed to user ``main(ctx)`` generators."""

    _rt: "CoupledSimulation"

    def __init__(
        self,
        coupler: "CoupledSimulation",
        program: _ProgramRuntime,
        rank: int,
    ) -> None:
        super().__init__(
            coupler,
            program,
            rank,
            capacity_bytes=coupler.buffer_capacity_bytes,
            memcpy_base=coupler.preset.memory.memcpy_base,
        )
        self.sim: Simulator = coupler.sim
        self._rng = coupler.rng.stream(f"compute/{self.program}.{rank}")

    # -- time ------------------------------------------------------------------
    def compute(self, seconds: float) -> Generator[Event, Any, float]:
        """Spend *seconds* of virtual time computing."""
        require(seconds >= 0, "compute time must be >= 0")
        yield self.sim.timeout(seconds)
        self.stats.compute_time += seconds
        if self._rt._watch:
            self._rt._fold[spine.COMPUTE](ProtocolEvent(
                spine.COMPUTE, self.who, self.sim._now,
                program=self.program, rank=self.rank, values=(seconds,),
            ))
        return seconds

    def compute_elements(
        self, elements: int, scale: float = 1.0
    ) -> Generator[Event, Any, float]:
        """Spend one solver iteration's virtual time over *elements* points.

        *scale* injects load imbalance (the paper's slowed process
        ``p_s`` does "extra computational work").
        """
        t = self._rt.preset.compute.iteration_time(
            elements, rng=self._rng, scale=scale
        )
        yield self.sim.timeout(t)
        self.stats.compute_time += t
        if self._rt._watch:
            # Announced as (elements, scale), not the drawn time: replay
            # re-issues the same draw from the same named stream, which
            # keeps the shared per-rank RNG in lock-step with exports.
            self._rt._fold[spine.COMPUTE_ELEMENTS](ProtocolEvent(
                spine.COMPUTE_ELEMENTS, self.who, self.sim._now,
                program=self.program, rank=self.rank,
                values=(int(elements), float(scale)),
            ))
        return t

    # -- export -----------------------------------------------------------------
    def export(
        self,
        region: str,
        ts: float,
        data: np.ndarray | None = None,
    ) -> Generator[Event, Any, ExportDecision]:
        """Export the region's data object with timestamp *ts*.

        *data* is this rank's local block (shape must match the
        declared decomposition); omit it for cost-only runs (the
        Figure-4 micro-benchmark measures buffering cost without
        shipping real payloads).  Returns the framework's decision.
        """
        plan, nbytes = self._export_target(region, ts, data)
        st = plan.state
        coupler = self._rt
        sim = self.sim
        memory = coupler.preset.memory
        capacity = coupler.buffer_capacity_bytes
        # Finite buffers with backpressure: if this export will need
        # space the buffer cannot currently provide, stall until the
        # agent's evictions (driven by requests/answers) free room.
        if (
            capacity is not None
            and coupler.buffer_policy == "block"
            and st.is_connected
            and not st.would_skip(ts)
        ):
            if nbytes > capacity:
                # No eviction can ever make room: fail like the "error"
                # policy does instead of polling forever.
                raise FrameworkError(
                    f"buffer capacity exceeded: export {region}@{ts:g} of "
                    f"{self.who} needs {nbytes} > {capacity} bytes "
                    "(the finite-buffer scenario of the paper's Section 6)"
                )
            stall_start = sim._now
            while st.buffer.live_bytes + nbytes > capacity:
                if st.would_skip(ts):
                    break  # an answer arrived meanwhile; no space needed
                yield sim.timeout(coupler.backpressure_poll)
            self.stats.backpressure_time += sim._now - stall_start

        t0 = sim._now
        memcpy_cost = memory.memcpy_time(
            nbytes,
            now=t0,
            active_peers=self._program.alive - 1,
            rng=self._rng,
            base=plan.memcpy_base if nbytes == plan.nbytes else None,
        )
        outcome = st.on_export(ts, nbytes, memcpy_cost)
        decision = outcome.decision
        if decision is ExportDecision.BUFFER or decision is ExportDecision.SEND:
            charge = memcpy_cost
            if data is not None:
                # The honest memcpy: the framework owns a private copy.
                st.buffer.get(ts).payload = data.copy()
        elif decision is ExportDecision.SKIP:
            charge = memory.skip_time()
            if outcome.buddy_skip:
                # Without the rep's disseminated answer this object
                # would have been buffered (and freed unsent later):
                # credit the avoided memcpy to buddy-help.
                self.stats.buddy_saved_time += memcpy_cost
                coupler._buddy_skip(self, ts, outcome)
        else:  # NOOP: unconnected region
            charge = 0.0
        if outcome.replaced:
            charge += memory.free_buffers_time(len(outcome.replaced))
        if coupler._watch:
            coupler._fold[spine.EXPORT](ProtocolEvent(
                spine.EXPORT, self.who, t0, program=self.program, rank=self.rank,
                region=region, ts=ts, decision=outcome,
                values=(None if data is None else data.dtype.name,),
            ))
        if charge > 0:
            yield sim.timeout(charge)

        coupler._after_export(self, region, ts, outcome)
        # Threshold-driven eviction uncovered by this call.
        evicted = coupler._evict(self, st)
        if evicted:
            free_cost = memory.free_buffers_time(evicted)
            yield sim.timeout(free_cost)
            charge += free_cost

        self.stats.export_records.append(
            ExportRecord(ts, decision, charge, t0)
        )
        return decision

    # -- import -----------------------------------------------------------------
    def import_begin(self, region: str, ts: float) -> ImportHandle:
        """Post the request for *ts* without waiting (non-blocking).

        Returns an :class:`ImportHandle` to pass to
        :meth:`import_wait`.  This is the paper's Section-6 extension:
        a process can post the request, compute, and collect the data
        later — overlapping the framework round-trip and the transfer
        with useful work.  Requests must still be issued collectively
        and in increasing timestamp order.
        """
        return self._rt._import_begin(self, region, ts)

    def import_wait(
        self, handle: ImportHandle
    ) -> Generator[Event, Any, tuple[float | None, np.ndarray | None]]:
        """Block until the request behind *handle* resolves.

        Returns ``(matched_ts, local_block)``; ``(None, None)`` on
        NO_MATCH.  The local block is this rank's share under its own
        declared decomposition (``None`` in cost-only runs).
        """
        require(not handle.done, "import handle already completed")
        coupler = self._rt
        cid = handle.connection_id
        ts = handle.ts
        if coupler._watch:
            coupler._fold[spine.IMPORT_WAIT](ProtocolEvent(
                spine.IMPORT_WAIT, self.who, self.sim._now, cid, ts,
                program=self.program, rank=self.rank, region=handle.region,
            ))
        box = coupler.world.network.mailbox(("cpl", self.program, self.rank))
        answer_ev = box.get_matching(
            lambda d: type(d.payload) is wire.AnswerToProc
            and d.payload.connection_id == cid
            and d.payload.answer.request_ts == ts
        )
        delivery = yield from self._await_with_retransmit(answer_ev, handle)
        msg: wire.AnswerToProc = delivery.payload
        coupler._import_answered(self, handle, msg)
        if msg.answer.kind is MatchKind.NO_MATCH:
            return (None, None)
        m = msg.answer.matched_ts
        assert m is not None
        schedule = coupler._connections[cid].schedule
        assert schedule is not None
        expected = len(schedule.recvs_for(self.rank))
        # Keyed by (src_rank, region) so duplicated and re-sent pieces
        # collapse to one piece per scheduled transfer.
        pieces: dict[tuple[int, RectRegion], wire.DataPiece] = {}
        while len(pieces) < expected:
            piece_ev = box.get_matching(
                lambda d: type(d.payload) is wire.DataPiece
                and d.payload.connection_id == cid
                and d.payload.match_ts == m
            )
            d = yield from self._await_with_retransmit(piece_ev, handle)
            pieces.setdefault((d.payload.src_rank, d.payload.region), d.payload)
        block = coupler._import_complete(self, handle, msg, list(pieces.values()))
        return (m, block)

    def _await_with_retransmit(
        self, get_ev: Event, handle: ImportHandle
    ) -> Generator[Event, Any, Any]:
        """Wait for *get_ev*; retransmit the request on timeout.

        Without a retransmission timeout this is a plain wait (the
        classic reliable-network protocol).  With one, each expiry
        re-sends the request (see ``ProtocolDriver._retransmit``);
        backoff doubles per attempt.
        """
        coupler = self._rt
        rto = coupler._rto
        if rto is None:
            result = yield get_ev
            return result
        attempt = 0
        while True:
            timer = self.sim.timeout(rto * (2 ** min(attempt, 6)))
            yield AnyOf(self.sim, [get_ev, timer])
            if get_ev.triggered:
                return get_ev.value
            attempt += 1
            coupler._retransmit(self, handle, attempt, rto * (2 ** min(attempt, 6)))

    def import_(
        self, region: str, ts: float
    ) -> Generator[Event, Any, tuple[float | None, np.ndarray | None]]:
        """Blocking import: :meth:`import_begin` + :meth:`import_wait`."""
        handle = self.import_begin(region, ts)
        result = yield from self.import_wait(handle)
        return result

    def _assemble(
        self, region: str, pieces: list[wire.DataPiece]
    ) -> np.ndarray | None:
        # Defined on this class (like CoupledSimulation._send_pieces) so
        # perf/tracing.py can book redistribution to the data layer.
        return super()._assemble(region, pieces)


# ---------------------------------------------------------------------------
# the coupler
# ---------------------------------------------------------------------------

class CoupledSimulation(ProtocolDriver):
    """A set of coupled programs on one virtual clock.

    Parameters
    ----------
    config:
        A :class:`CouplingConfig` or raw configuration text.
    options:
        A frozen :class:`~repro.api.options.RunOptions` carrying every
        setting (documented field by field there); defaults to
        ``RunOptions()``.  How this runtime reads the ones whose
        meaning depends on it:

        * ``buffer_policy="block"`` applies backpressure — an export
          that would exceed ``buffer_capacity_bytes`` stalls until
          eviction (driven by arriving requests/answers) frees space;
          stalled time accrues in ``stats.backpressure_time``.  An
          export larger than the whole capacity raises
          :class:`FrameworkError`, as under ``"error"``.
        * ``fault_plan`` turns the network into a
          :class:`repro.faults.network.FaultyNetwork` executing it and
          switches the protocol to resilient mode (relaxed request
          ordering, idempotent reps, request retransmission).
        * ``retransmit_timeout=None`` derives a bound from the network
          latency and the fault plan's delay knobs when a plan is
          given, else disables retransmission (the classic
          reliable-network protocol); ``max_retransmits`` defaults
          to 12.
    """

    def __init__(
        self,
        config: CouplingConfig | str,
        *,
        options: "RunOptions | None" = None,
    ) -> None:
        if options is None:
            # Imported lazily: repro.api.facade imports this module.
            from repro.api.options import RunOptions

            options = RunOptions()
        preset = options.preset
        fault_plan = options.fault_plan
        self.world = DesWorld(
            latency=preset.network.latency,
            bandwidth=preset.network.bandwidth,
            congestion=preset.network.congestion,
            seed=options.seed,
            fault_plan=fault_plan,
        )
        self.sim: Simulator = self.world.sim
        sim = self.sim
        rto = options.retransmit_timeout
        if rto is None and fault_plan is not None:
            # Comfortably above one fault-free round trip plus the worst
            # jitter/reorder hold-back, so spurious retransmissions stay
            # rare while lost requests still recover quickly.
            lat = preset.network.latency
            rto = max(
                1e-3,
                8.0
                * (
                    lat
                    + fault_plan.delay_jitter
                    + fault_plan.effective_reorder_delay(lat)
                ),
            )
        max_retransmits = (
            12 if options.max_retransmits is None else options.max_retransmits
        )
        require_positive(max_retransmits, "max_retransmits")
        super().__init__(
            config,
            options,
            RuntimePort(now=lambda: sim._now, send=self.world.network.send),
            rto=rto,
            max_retransmits=max_retransmits,
        )
        self.preset = preset
        self.fault_plan = fault_plan
        self.rng = RngRegistry(seed=options.seed)
        if self._prov is not None:
            # Installed before any subsystem opens a stream, so every
            # draw of the run lands in the log.
            self.rng.set_recorder(self._prov.on_rng)
            self.world.rng.set_recorder(self._prov.on_rng)
            fault_rngs = getattr(self.world.network, "_rngs", None)
            if fault_rngs is not None:
                fault_rngs.set_recorder(self._prov.on_rng)
            # The hook is the recorder's list append — no indirection on
            # the kernel's heap branch beyond one attribute check.
            sim._sched_hook = self._prov.sched.append
        if fault_plan is not None:
            # The faulty network narrates drops/dups/delays into the
            # same tracer as the protocol.
            self.world.network.tracer = self.tracer
        self.buffer_capacity_bytes = options.buffer_capacity_bytes
        self.buffer_policy = options.buffer_policy
        #: Poll interval while stalled on a full buffer.
        self.backpressure_poll = 1.0e-4

    # -- setup ------------------------------------------------------------
    def add_program(
        self,
        name: str,
        main: Callable[[ProcessContext], Generator[Event, Any, Any]] | None = None,
        regions: dict[str, RegionDef] | None = None,
        nprocs: int | None = None,
    ) -> _ProgramRuntime:
        """Register a program.

        *nprocs* defaults to the configuration file's process count.
        *regions* maps region names to :class:`RegionDef`; every region
        named by a connection endpoint of this program must appear.
        *main* is the per-process generator function (optional for
        passive programs driven by tests).
        """
        return self._add_program(
            name, main, regions, nprocs,
            self.world.create_program, self.world.network.register,
        )

    # -- run ----------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Finalize the wiring and run the simulation."""
        self.start()
        self.sim.run(until)

    def start(self) -> None:
        """Finalize the wiring without running (drive the clock yourself)."""
        if not self._started:
            self._finalize_setup()

    def _finalize_setup(self) -> None:
        self._resolve(ProcessContext, "des")
        for prog in self._programs.values():
            self.sim.process(self._rep_proc(prog), name=f"{prog.name}.rep")
            for ctx in prog.contexts:
                self.sim.process(
                    self._agent_proc(ctx), name=f"{prog.name}.agent{ctx.rank}"
                )
            if prog.main is not None:
                for ctx in prog.contexts:
                    self.sim.process(
                        self._main_proc(ctx), name=f"{prog.name}.{ctx.rank}"
                    )
        if self.telemetry_sinks:
            self.sim.process(self._telemetry_proc(), name="telemetry")

    def _send_pieces(self, ctx: ContextBase, region: str, cid: str, m: float) -> None:
        # Defined on this class so perf/tracing.py can book every piece
        # transfer (whoever triggers it) to the data layer.
        super()._send_pieces(ctx, region, cid, m)

    # -- processes ---------------------------------------------------------------
    def _agent_proc(self, ctx: ProcessContext) -> Generator[Event, Any, None]:
        """The framework service agent of one application process."""
        box = self.world.network.mailbox(("ctl", ctx.program, ctx.rank))
        who = f"{ctx.who}.agent"
        free_time = self.preset.memory.free_time
        seen: set[int] = set()
        while True:
            msg = (yield box.get()).payload
            if self._seq_duplicate(msg, seen, who):
                continue
            evicted = self._agent_handle(ctx, msg)
            if evicted:
                yield self.sim.timeout(free_time * evicted)

    def _rep_proc(self, prog: _ProgramRuntime) -> Generator[Event, Any, None]:
        """The program's representative process."""
        box = self.world.network.mailbox(("rep", prog.name))
        who = f"{prog.name}.rep"
        seen: set[int] = set()
        while True:
            msg = (yield box.get()).payload
            if not self._seq_duplicate(msg, seen, who):
                self._rep_handle(prog, msg)

    def _telemetry_proc(self) -> Generator[Event, Any, None]:
        """Periodic telemetry flush; ends with the last user main.

        The loop must terminate (the DES scheduler otherwise never runs
        dry), so it watches the alive count of every main-bearing
        program and emits one ``final`` snapshot when the last exits.
        """
        # Imported lazily: the core stays importable without obs.stream
        # and pays nothing when streaming is off.
        from repro.obs.stream import emit_snapshot

        def running() -> bool:
            return any(
                p.alive > 0 for p in self._programs.values() if p.main is not None
            )

        emitted_final = False
        while running():
            yield self.sim.timeout(self.telemetry_interval)
            emitted_final = not running()
            emit_snapshot(self, self.telemetry_sinks, final=emitted_final)
        if not emitted_final:
            emit_snapshot(self, self.telemetry_sinks, final=True)

    def _main_proc(self, ctx: ProcessContext) -> Generator[Event, Any, None]:
        """User main wrapped with end-of-stream bookkeeping."""
        assert ctx._program.main is not None
        try:
            yield from ctx._program.main(ctx)
        finally:
            ctx._program.alive -= 1
            self._close_exports(ctx)

    # -- reporting -------------------------------------------------------------
    def export_series(self, program: str, rank: int) -> list[float]:
        """The Figure-4 y-series of one process: per-export call cost."""
        return self.context(program, rank).stats.export_times()
