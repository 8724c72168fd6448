"""The live coupling runtime: OS threads and wall-clock time.

:class:`LiveCoupledSimulation` is the thread *adapter* of
:mod:`repro.core.protocol` — it runs the same protocol driver as the
DES runtime (:mod:`repro.core.coupler`), hence identical state machines,
wire messages, counters and trace events — but on real threads:

* each program runs ``nprocs`` application threads, ``nprocs``
  framework *agent* threads (the service thread of the paper's
  framework, handling forwarded requests and buddy-help messages
  concurrently with application compute), and one *rep* thread;
* buffering performs an actual ``ndarray.copy()`` and records its
  measured wall-clock duration in the Eq. (1)-(2) ledgers;
* ``ctx.compute(seconds)`` really sleeps (scaled by ``time_scale`` so
  demos stay fast).

What this module supplies to the driver is the run-relative wall clock,
thread mailboxes, the per-process and per-rep locks (with the
race-monitor hooks), blocking waits and shutdown.

The DES runtime remains the tool for the paper's experiments (virtual
time is deterministic); this runtime demonstrates — and tests — that
the framework logic is runtime-independent, and is what a downstream
user would embed in real applications.
"""

from __future__ import annotations

import contextlib
import threading
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.core import spine, wire
from repro.core.config import CouplingConfig
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
from repro.match.result import MatchKind
from repro.util.validation import require, require_positive
from repro.vmpi.thread_backend import MailboxTimeout, ThreadMailbox, ThreadWorld

if TYPE_CHECKING:
    from repro.api.options import RunOptions


class LiveProcessContext(ContextBase):
    """The per-process API of the live runtime (blocking calls)."""

    _rt: "LiveCoupledSimulation"

    def __init__(
        self, runtime: "LiveCoupledSimulation", program: _ProgramRuntime, rank: int
    ) -> None:
        super().__init__(runtime, program, rank)
        #: Guards the export states shared with this process's agent.
        self.lock = runtime._locks[("ctx", self.who)] = threading.RLock()

    # -- time -----------------------------------------------------------------
    def compute(self, seconds: float) -> None:
        """Really sleep for ``seconds * time_scale``."""
        require(seconds >= 0, "compute time must be >= 0")
        time.sleep(seconds * self._rt.time_scale)
        if self._rt._watch:
            self._rt._fold[spine.COMPUTE](ProtocolEvent(
                spine.COMPUTE, self.who, self._rt.elapsed(),
                program=self.program, rank=self.rank, values=(seconds,),
            ))

    # -- export ------------------------------------------------------------------
    def export(self, region: str, ts: float, data: np.ndarray | None = None) -> ExportDecision:
        """Export the region's object at *ts*; returns the decision.

        Buffering performs an actual copy of *data*; its measured
        duration lands in the buffer ledger and the export record.
        """
        plan, nbytes = self._export_target(region, ts, data)
        st = plan.state
        rt = self._rt
        t0 = rt.elapsed()
        with rt._locked(
            ("ctx", self.who),
            (("match", self.who, region), "write", "export.on_export"),
            (("ledger", self.who, region), "write", "export.buffer"),
        ):
            outcome = st.on_export(ts, nbytes, memcpy_cost=0.0)
            if outcome.decision in (ExportDecision.BUFFER, ExportDecision.SEND):
                copy_start = time.perf_counter()
                st.buffer.get(ts).payload = data.copy() if data is not None else None
                st.buffer.record_cost(ts, time.perf_counter() - copy_start)
            if rt._watch:
                rt._fold[spine.EXPORT](ProtocolEvent(
                    spine.EXPORT, self.who, rt.elapsed(),
                    program=self.program, rank=self.rank, region=region, ts=ts,
                    decision=outcome,
                    values=(None if data is None else data.dtype.name,),
                ))
            rt._after_export(self, region, ts, outcome)
            rt._evict(self, st)
        cost = rt.elapsed() - t0
        if outcome.buddy_skip:
            rt._buddy_skip(self, ts, outcome)
        self.stats.export_records.append(
            ExportRecord(ts, outcome.decision, cost, t0)
        )
        return outcome.decision

    # -- import -------------------------------------------------------------------
    def import_(
        self, region: str, ts: float, timeout: float | None = None
    ) -> tuple[float | None, np.ndarray | None]:
        """Request the region's object for *ts*; blocks until resolved.

        On a resilient runtime (``fault_injector`` or
        ``retransmit_timeout`` set) each blocking receive runs under a
        retransmission loop: a timed-out wait re-posts the
        :class:`~repro.core.wire.ImpProcRequest` with exponential
        backoff, and the rep/exporter chain re-answers idempotently.
        """
        rt = self._rt
        handle = rt._import_begin(self, region, ts)
        cid = handle.connection_id
        box = rt.world.mailbox(("cpl", self.program, self.rank))
        timeout = rt.default_timeout if timeout is None else timeout
        msg: wire.AnswerToProc = self._get_with_retransmit(
            box,
            lambda m: isinstance(m, wire.AnswerToProc)
            and m.connection_id == cid
            and m.answer.request_ts == ts,
            handle,
            timeout,
        )
        rt._import_answered(self, handle, msg)
        if msg.answer.kind is MatchKind.NO_MATCH:
            return (None, None)
        m = msg.answer.matched_ts
        assert m is not None
        schedule = rt._connections[cid].schedule
        assert schedule is not None
        expected = len(schedule.recvs_for(self.rank))
        # Keyed by (src_rank, region) so duplicated or re-driven pieces
        # collapse instead of double-counting.
        pieces: dict[tuple[int, RectRegion], wire.DataPiece] = {}
        while len(pieces) < expected:
            piece = self._get_with_retransmit(
                box,
                lambda p: isinstance(p, wire.DataPiece)
                and p.connection_id == cid
                and p.match_ts == m,
                handle,
                timeout,
            )
            pieces.setdefault((piece.src_rank, piece.region), piece)
        block = rt._import_complete(self, handle, msg, list(pieces.values()))
        return (m, block)

    def _get_with_retransmit(
        self,
        box: ThreadMailbox,
        pred: Callable[[Any], bool],
        handle: ImportHandle,
        timeout: float | None,
    ) -> Any:
        """Blocking receive; on a resilient runtime, re-ask on timeout."""
        rt = self._rt
        if rt._rto is None:
            return box.get(pred, timeout=timeout)
        attempt = 0
        while True:
            rto = rt._rto * (2 ** min(attempt, 6))
            try:
                return box.get(pred, timeout=rto)
            except MailboxTimeout:
                attempt += 1
                rt._retransmit(self, handle, attempt, rto)


class LiveCoupledSimulation(ProtocolDriver):
    """Threaded, wall-clock twin of :class:`CoupledSimulation`.

    Parameters
    ----------
    config:
        A :class:`CouplingConfig` or configuration text (Figure 2).
    options:
        A frozen :class:`~repro.api.options.RunOptions` (documented
        field by field there); defaults to
        ``RunOptions(runtime="live")``.  How this runtime reads the
        ones whose meaning depends on it:

        * ``fault_injector`` is installed as
          :attr:`ThreadWorld.fault_hook` and switches the runtime to
          resilient mode (relaxed request ordering + retransmission).
        * ``retransmit_timeout`` is in wall seconds and defaults to
          ``0.25`` when a fault injector is installed; set it
          explicitly to enable resilience without chaos.
          ``max_retransmits`` (default 8) bounds each blocking receive
          (exponential backoff, exponent capped at 6).
        * ``default_timeout`` is the blocking-receive timeout
          (deadlock diagnosis).
        * ``provenance`` logs are audit-only — wall-clock scheduling is
          not replayable — but capture the same wire/match/operation
          record as the DES runtime.
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

            options = RunOptions(runtime="live")
        require_positive(options.time_scale, "time_scale")
        max_retransmits = (
            8 if options.max_retransmits is None else options.max_retransmits
        )
        require(max_retransmits >= 0, "max_retransmits must be >= 0")
        self.time_scale = options.time_scale
        self.default_timeout = options.default_timeout
        self.world = ThreadWorld(default_timeout=options.default_timeout)
        self.world.fault_hook = options.fault_injector
        #: Happens-before race detection (opt-in, duck-typed so the
        #: core layer does not import :mod:`repro.analysis.races`).
        #: ``None`` keeps every hook a single attribute check.
        self.races: Any | None = options.race_monitor
        #: Run epoch: every trace, span and provenance time is relative
        #: to this so both runtimes report small comparable numbers.
        self._t0 = time.perf_counter()
        #: ``("ctx", who)`` / ``("rep", program)`` → the lock guarding
        #: that process's export states / that rep's state machines.
        self._locks: dict[tuple[str, str], Any] = {}
        rto = options.retransmit_timeout
        if rto is None and options.fault_injector is not None:
            rto = 0.25
        super().__init__(
            config,
            options,
            RuntimePort(
                now=self.elapsed,
                send=self._deliver,
                guard=self._locked,
            ),
            rto=rto,
            max_retransmits=max_retransmits,
        )

    # -- setup ------------------------------------------------------------
    def add_program(
        self,
        name: str,
        main: Callable[[LiveProcessContext], Any] | None = None,
        regions: dict[str, RegionDef] | None = None,
        nprocs: int | None = None,
    ) -> _ProgramRuntime:
        """Register a program (same contract as the DES coupler)."""
        return self._add_program(
            name, main, regions, nprocs, self.world.create_program, self.world.register
        )

    def elapsed(self) -> float:
        """Wall seconds since this runtime was constructed."""
        return time.perf_counter() - self._t0

    # -- the port ---------------------------------------------------------------
    def _deliver(self, src: Any, dst: Any, payload: Any, nbytes: int) -> None:
        """Post one stamped wire unit through the fault hook, if any."""
        mon = self.races
        if mon is not None:
            for msg in (*getattr(payload, "messages", ()), payload):
                mon.send(msg.seq)
        self.world.post(dst, payload)

    @contextlib.contextmanager
    def _locked(
        self, key: tuple[str, str], *accesses: tuple[tuple[str, ...], str, str]
    ) -> Iterator[None]:
        """Hold the lock named *key* and tell the race monitor so.

        The monitor hears of the lock after it is taken and before it
        is dropped, so it observes lock events in their true
        serialization order; *accesses* are the shared-state sites
        touched under it.
        """
        with self._locks[key]:
            mon = self.races
            if mon is not None:
                mon.acquire(key)
                for site, kind, where in accesses:
                    mon.access(site, kind, where=where)
            try:
                yield
            finally:
                if mon is not None:
                    mon.release(key)

    # -- run --------------------------------------------------------------
    def run(self, join_timeout: float = 120.0) -> None:
        """Start all threads, wait for application mains, shut down."""
        self._finalize_setup()
        service: list[threading.Thread] = []
        mains: list[threading.Thread] = []
        errors: list[BaseException] = []

        def guarded(fn, *args):
            def runner():
                try:
                    fn(*args)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            return runner

        def thread(name: str, fn, *args) -> threading.Thread:
            return threading.Thread(target=guarded(fn, *args), name=name, daemon=True)

        for prog in self._programs.values():
            rep = ("rep", prog.name)
            service.append(
                thread(
                    f"{prog.name}.rep", self._serve,
                    rep, f"{prog.name}.rep", partial(self._rep_handle, prog),
                )
            )
            for ctx in prog.contexts:
                service.append(
                    thread(
                        f"{prog.name}.agent{ctx.rank}", self._serve,
                        ("ctl", ctx.program, ctx.rank),
                        f"{ctx.who}.agent", partial(self._agent_handle, ctx),
                    )
                )
            if prog.main is not None:
                mains.extend(
                    thread(f"{prog.name}.{ctx.rank}", self._main_body, ctx)
                    for ctx in prog.contexts
                )
        telemetry_stop: threading.Event | None = None
        telemetry_thread: threading.Thread | None = None
        if self.telemetry_sinks:
            from repro.obs.stream import emit_snapshot

            telemetry_stop = threading.Event()

            def telemetry_loop(stop: threading.Event) -> None:
                while not stop.wait(self.telemetry_interval):
                    emit_snapshot(self, self.telemetry_sinks, final=False)

            telemetry_thread = threading.Thread(
                target=telemetry_loop,
                args=(telemetry_stop,),
                name="telemetry",
                daemon=True,
            )
            telemetry_thread.start()
        for t in service:
            t.start()
        for t in mains:
            t.start()
        for t in mains:
            t.join(timeout=join_timeout)
        if telemetry_stop is not None and telemetry_thread is not None:
            telemetry_stop.set()
            telemetry_thread.join(timeout=5.0)
            from repro.obs.stream import emit_snapshot

            emit_snapshot(self, self.telemetry_sinks, final=True)
        alive = [t.name for t in mains if t.is_alive()]
        # Stop the service loops regardless of outcome.
        for prog in self._programs.values():
            self.world.mailbox(("rep", prog.name)).put(wire.Shutdown())
            for r in range(prog.nprocs):
                self.world.mailbox(("ctl", prog.name, r)).put(wire.Shutdown())
        for t in service:
            t.join(timeout=5.0)
        if errors:
            raise RuntimeError(f"live run failed: {errors[0]!r}") from errors[0]
        if alive:
            raise RuntimeError(f"application threads did not finish: {alive}")

    # -- internals ------------------------------------------------------------
    def _finalize_setup(self) -> None:
        for prog in self._programs.values():
            self._locks[("rep", prog.name)] = threading.Lock()
        self._resolve(LiveProcessContext, "live")

    def _serve(self, address: Any, who: str, handle: Callable[[Any], Any]) -> None:
        """One service loop (a rep, or a process's agent) until Shutdown.

        *handle* is the driver's ``_rep_handle``/``_agent_handle`` bound
        to its program/context.
        """
        box = self.world.mailbox(address)
        seen: set[int] = set()
        while True:
            msg = box.get(lambda _m: True, timeout=None)
            if isinstance(msg, wire.Shutdown):
                return
            if self._seq_duplicate(msg, seen, who):
                continue
            if self.races is not None and getattr(msg, "seq", -1) >= 0:
                self.races.recv(msg.seq)
            handle(msg)

    def _main_body(self, ctx: LiveProcessContext) -> None:
        assert ctx._program.main is not None
        try:
            ctx._program.main(ctx)
        finally:
            with self._lock:
                ctx._program.alive -= 1
            with ctx.lock:
                self._close_exports(ctx)
