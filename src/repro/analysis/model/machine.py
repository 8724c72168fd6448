"""The control-plane model: the shipped protocol under a small-world harness.

The model checker is the third adapter of
:class:`repro.core.protocol.ProtocolDriver`, beside the DES and the
threaded runtime.  Each abstract state holds live instances of the real
state machines — :class:`~repro.core.rep.ImporterRep`,
:class:`~repro.core.rep.ExporterRep` and one
:class:`~repro.core.exporter.RegionExportState` per exporter rank (match
engine and buffer ledger inside) — and every protocol step of a
transition is a call into the driver both runtimes run: rep dispatch and
directive → wire message (``_rep_handle``), agent handling of forwarded
requests and buddy answers (``_agent_handle``), the export and close
epilogues (``_buddy_skip``, ``_after_export``, ``_evict``,
``_close_exports``), the importer's request, re-drive and answer steps
(``_import_begin``, ``_retransmit``, ``_import_answered``) and every
causal span of a replayed counterexample.  A defect in that code is a
defect the checker explores; there is no second copy to drift.

What is written here, and why it cannot be the runtimes' code:

* canonical ``encode``/``clone`` of a state — exploration
  needs value-hashed, copyable states; a run has one state and no use
  for either;
* action enumeration and footprints — the nondeterministic scheduler
  and its partial-order reduction replace a runtime's event loop;
* the adversary (``drop``, ``dup``, ``crash``, budgets) — chosen
  exhaustively here, drawn from a seeded :class:`~repro.faults.plan.
  FaultPlan` in a run;
* sequence stamping and dedup — a run counts sends globally and
  remembers every seq; here both are memoryless so states merge (below),
  and dedup is where the ``no_dedup`` mutation is switched;
* the importer's conflicting-answer check — a run's importer takes the
  first answer and never sees a second; the model looks at every copy so
  a Property-1 breach surfaces as M203;
* the data plane — not modelled: ``_send_pieces`` keeps only the
  ledger's sent mark.

World shape: one importing program ``I`` (``nimp`` ranks + rep) and one
exporting program ``E`` (``nexp`` ranks + rep) over one connection.
Every importer rank issues the same scripted request sequence
(collective imports block, so a rank issues request *k+1* only after
*k* resolved); every exporter rank walks the same scripted export
stream at its own pace and closes it at the end.  Fault actions carry
bounded budgets and reuse the :mod:`repro.faults.plan` vocabulary:

* ``drop``  — lose the head message of a channel;
* ``dup``   — duplicate the head message *wire-level* (the copy keeps
  the original's sequence number, exactly like
  :class:`~repro.faults.plan.FaultPlan` duplicates);
* ``stall`` — not an explicit action: a message may rest in its channel
  arbitrarily long while every other action interleaves, so stalls are
  subsumed by the exploration itself;
* ``crash`` — fail-stop an exporter rank (at most ``nexp - 1``, so the
  collective always keeps one live responder).

Known difference: a directed world names the plane of a *link*
(:data:`_PLANES`: ``I<->IR`` is ``cpl``, ``IR<->ER`` ``rep``, ``ER<->E``
``ctl``) while :func:`repro.faults.plan.classify_plane` names the plane
of a *destination address* (a rank's request to its rep is ``rep``
there, ``cpl`` here).  Aligning them would redraw the worlds and their
state counts, so the table is kept as it is.

Sequence numbers are stamped per *sender* as ``(sender, k)`` with the
smallest *k* not colliding with any copy still in flight to the
receiver or still remembered by its dedup layer — uniqueness while a
collision is possible is all dedup needs, and the scheme is
memoryless: no global counter ticks, so states that differ only in
message-numbering history merge.  For the same reason each receiver's
seen-set is pruned down to seqs still in transit toward it whenever a
wire copy disappears (delivery or drop) — a remembered seq with no
live copy can never be consulted again, and keeping it would make the
stamper's choice depend on dead history.

States are canonicalized into nested tuples (:meth:`ModelMachine.encode`)
for hashing; behavioural fields only — reporting counters are excluded
so states that cannot be distinguished by any future behaviour merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.api.options import RunOptions
from repro.core import wire
from repro.core.buffers import BufferEntry
from repro.core.config import ConnectionSpec, CouplingConfig, Endpoint, ProgramSpec
from repro.core.exceptions import (
    FrameworkError,
    ProtocolError,
    PropertyViolationError,
)
from repro.core.exporter import OpenRequest, RegionExportState
from repro.core.importer import RegionImportState
from repro.core.protocol import (
    ContextBase,
    ImportHandle,
    ProtocolDriver,
    RegionDef,
    RuntimePort,
)
from repro.core.rep import (
    ExporterRep,
    ImporterRep,
    _ExpRequestState,
    _ImpRequestState,
)
from repro.data.decomposition import BlockDecomposition
from repro.faults.plan import FRAMEWORK_PLANES
from repro.match.aggregate import CollectiveViolationError
from repro.match.backend import DEFAULT_MATCH_BACKEND, MATCH_BACKENDS
from repro.match.policies import parse_policy
from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.util.validation import require, require_known_keys

__all__ = [
    "ModelConfig",
    "ModelMachine",
    "MUTATIONS",
    "VIOLATION_ERRORS",
    "NoAnswerCacheExporterRep",
    "clone_working",
    "mutation_config",
    "plane_of_channel",
]

#: Exceptions the real protocol code raises when its collective
#: discipline is violated; the checker maps any of these to M203.
VIOLATION_ERRORS = (
    ProtocolError,
    PropertyViolationError,
    CollectiveViolationError,
    FrameworkError,
    ValueError,  # require() failures inside the match engine
)

#: The supported self-test mutations (see ``docs/static_analysis.md``).
MUTATIONS = ("no_dedup", "no_answer_cache")

#: The one coupled region of the model world.
REGION = "d"

#: Channel endpoints -> the repro.faults.plan plane the link models.
_PLANES = {
    ("I", "IR"): "cpl",
    ("IR", "I"): "cpl",
    ("IR", "ER"): "rep",
    ("ER", "IR"): "rep",
    ("ER", "E"): "ctl",
    ("E", "ER"): "ctl",
}


def plane_of_channel(src: str, dst: str) -> str:
    """The :data:`repro.faults.plan.FRAMEWORK_PLANES` plane of a link."""
    return _PLANES[(src[:2].rstrip("0123456789"), dst[:2].rstrip("0123456789"))]


class NoAnswerCacheExporterRep(ExporterRep):
    """Mutation fixture: the rep's final-answer cache is skipped.

    A retransmitted request whose answer is already finalized goes
    *unanswered* instead of being re-served from the cache — the exact
    resilience bug the answer cache exists to prevent.  The model
    checker must rediscover it as an M202 retransmission livelock.
    """

    def on_request(self, connection_id: str, request_ts: float) -> list[Any]:
        st = self._conn(connection_id).get(request_ts)
        if st is not None and not self.strict_order and st.finalized is not None:
            self.duplicate_requests += 1
            return []  # the mutation: cache bypassed, importer hears nothing
        return super().on_request(connection_id, request_ts)


@dataclass(frozen=True)
class ModelConfig:
    """One bounded verification world.

    The defaults are the acceptance configuration: 2 importer ranks x
    2 exporter ranks, one collective request against a two-step export
    stream, resilient mode with one drop, one duplication and one
    crash in the budget, and two retransmissions per importer rank.
    The scripts are deliberately short: the default ``repro verify``
    suite explores several *directed* worlds built from this config
    (each restricting faults to one plane) and every one of them must
    finish exhaustively.  Longer scripts remain available for deeper
    offline runs.

    ``retransmit_budget >= drop_budget`` is required in resilient mode:
    each lost message costs at most one re-drive to recover, so under
    that inequality an unresolved terminal state is a genuine protocol
    failure rather than an artefact of the bounded adversary.
    """

    nimp: int = 2
    nexp: int = 2
    requests: tuple[float, ...] = (4.0,)
    exports: tuple[float, ...] = (1.5, 3.5)
    policy: str = "REGL 0.5"
    buddy_help: bool = True
    mode: str = "resilient"  # "resilient" | "strict"
    drop_budget: int = 1
    dup_budget: int = 1
    crash_budget: int = 1
    retransmit_budget: int = 2
    #: Which control-plane links drop/dup may target, in the
    #: :data:`repro.faults.plan.FRAMEWORK_PLANES` vocabulary.  The
    #: verify suite explores one directed world per plane so each world
    #: stays exhaustible.
    fault_planes: tuple[str, ...] = ("ctl", "cpl", "rep")
    mutate: str | None = None
    #: Which match engine the wrapped exporter processes run; the model
    #: checker thereby explores every interleaving under either backend
    #: (their decisions are bit-identical, so the reachable state space
    #: must be too).
    match_backend: str = DEFAULT_MATCH_BACKEND

    def __post_init__(self) -> None:
        require(self.nimp >= 1 and self.nexp >= 1, "need at least one rank per side")
        require(self.mode in ("strict", "resilient"), f"unknown mode {self.mode!r}")
        require(
            self.match_backend in MATCH_BACKENDS,
            f"unknown match backend {self.match_backend!r}; "
            f"expected one of {MATCH_BACKENDS}",
        )
        for plane in self.fault_planes:
            require(
                plane in FRAMEWORK_PLANES,
                f"unknown fault plane {plane!r}; expected one of "
                f"{sorted(FRAMEWORK_PLANES)}",
            )
        require(
            self.mutate is None or self.mutate in MUTATIONS,
            f"unknown mutation {self.mutate!r}; expected one of {MUTATIONS}",
        )
        for name in ("drop_budget", "dup_budget", "crash_budget", "retransmit_budget"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0")
        require(
            list(self.requests) == sorted(set(self.requests)),
            "request script must be strictly increasing",
        )
        require(
            list(self.exports) == sorted(set(self.exports)),
            "export script must be strictly increasing",
        )
        if self.mode == "strict":
            require(
                self.drop_budget == 0 and self.retransmit_budget == 0,
                "strict mode has no retransmission: drop/retransmit budgets must be 0",
            )
        else:
            require(
                self.retransmit_budget >= self.drop_budget,
                "resilient mode needs retransmit_budget >= drop_budget "
                "(one re-drive recovers one loss)",
            )

    @property
    def strict_order(self) -> bool:
        """Whether the wrapped state machines run in strict mode."""
        return self.mode == "strict"

    def connection_spec(self) -> ConnectionSpec:
        """The single connection of the model world."""
        return ConnectionSpec(
            exporter=Endpoint("E", REGION),
            importer=Endpoint("I", REGION),
            policy=parse_policy(self.policy),
        )

    def describe(self) -> dict[str, Any]:
        """JSON-ready form of every field (stamped into reports and schedules)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelConfig":
        """Inverse of :meth:`describe`; unknown keys are rejected by name."""
        require_known_keys(
            payload, (f.name for f in fields(cls)), "model config keys"
        )
        return cls(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
        )


def mutation_config(name: str) -> ModelConfig:
    """The directed world in which mutation *name*'s bug is observable.

    * ``no_dedup`` — strict mode plus one wire duplicate: the copy
      re-enters the strictly-ordered collective and the real code must
      reject it (**M203**).
    * ``no_answer_cache`` — resilient mode plus one drop: recovery from
      the loss re-drives the request, and the rep must serve the
      finalized duplicate from its answer cache; without the cache the
      re-drives go unanswered until the budget burns out (**M202**).

    Both worlds direct their fault at the ``rep`` plane (the rep<->rep
    link): that is where duplicated requests meet the collective and
    where a lost aggregate answer forces the cache onto the recovery
    path, so it is the cheapest world in which each bug is observable
    (a drop on the other planes recovers without consulting the cache
    at all).
    """
    require(
        name in MUTATIONS,
        f"unknown mutation {name!r}; expected one of {MUTATIONS}",
    )
    if name == "no_dedup":
        return ModelConfig(
            mode="strict",
            drop_budget=0,
            dup_budget=1,
            crash_budget=0,
            retransmit_budget=0,
            fault_planes=("rep",),
            mutate=name,
        )
    return ModelConfig(
        mode="resilient",
        drop_budget=1,
        dup_budget=0,
        crash_budget=0,
        retransmit_budget=2,
        fault_planes=("rep",),
        mutate=name,
    )


# ---------------------------------------------------------------------------
# working (materialized) state
# ---------------------------------------------------------------------------

@dataclass
class _ImpRank:
    next_req: int = 0
    outstanding: float | None = None
    retr_left: int = 0
    resolved: dict[float, tuple[str, float | None]] = field(default_factory=dict)
    seen: set[tuple[str, int]] = field(default_factory=set)


@dataclass
class _ExpRank:
    region: RegionExportState
    pos: int = 0
    closed: bool = False
    crashed: bool = False
    seen: set[tuple[str, int]] = field(default_factory=set)


class _Working:
    """A fully materialized model state (mutable; one per transition)."""

    __slots__ = (
        "imp", "exp", "irep", "erep", "irep_seen", "erep_seen",
        "chans", "drop_left", "dup_left", "crash_left",
    )

    def __init__(self) -> None:
        self.imp: list[_ImpRank] = []
        self.exp: list[_ExpRank] = []
        self.irep: ImporterRep
        self.erep: ExporterRep
        self.irep_seen: set[tuple[str, int]] = set()
        self.erep_seen: set[tuple[str, int]] = set()
        self.chans: dict[tuple[str, str], list[tuple[Any, ...]]] = {}
        self.drop_left = 0
        self.dup_left = 0
        self.crash_left = 0

    def seen_of(self, node: str) -> set[tuple[str, int]]:
        """The dedup memory of component *node* (``"IR"``, ``"E1"``, ...)."""
        if node == "IR":
            return self.irep_seen
        if node == "ER":
            return self.erep_seen
        rank = int(node[1:])
        return self.imp[rank].seen if node[0] == "I" else self.exp[rank].seen


#: Fast enum lookup (bypasses the EnumMeta call in hot paths).
_KIND = {k.value: k for k in MatchKind}

#: Decode caches: answers and responses are frozen dataclasses, so one
#: instance per distinct value can be shared across all model states.
_ANSWER_CACHE: dict[tuple[float, str, float | None], FinalAnswer] = {}
_RESPONSE_CACHE: dict[
    tuple[float, str, float | None, float], MatchResponse
] = {}


def _enc_answer(a: FinalAnswer | None) -> tuple[str, float | None] | None:
    return None if a is None else (a.kind.value, a.matched_ts)


def _dec_answer(enc: tuple[str, float | None] | None, ts: float) -> FinalAnswer | None:
    if enc is None:
        return None
    key = (ts, enc[0], enc[1])
    a = _ANSWER_CACHE.get(key)
    if a is None:
        a = FinalAnswer(request_ts=ts, kind=_KIND[enc[0]], matched_ts=enc[1])
        _ANSWER_CACHE[key] = a
    return a


def _dec_response(
    ts: float, kind: str, matched: float | None, latest: float
) -> MatchResponse:
    key = (ts, kind, matched, latest)
    r = _RESPONSE_CACHE.get(key)
    if r is None:
        r = MatchResponse(
            request_ts=ts,
            kind=_KIND[kind],
            matched_ts=matched,
            latest_export_ts=latest,
        )
        _RESPONSE_CACHE[key] = r
    return r


#: Tags of the three wire messages whose body is a final answer.
_ANSWER_MSGS: dict[str, Any] = {
    "buddy": wire.BuddyMsg,
    "a2i": wire.AnswerToImpRep,
    "ans": wire.AnswerToProc,
}
_ANSWER_TAGS = {cls: tag for tag, cls in _ANSWER_MSGS.items()}


def _enc_wire(m: Any) -> tuple[Any, ...]:
    """Canonical body of control message *m*: a flat tuple of scalars.

    Channels hold these instead of the wire dataclasses so the encoded
    state hashes by value; the connection id is the world's only one
    and the receiving rank is the channel's, so neither is kept.
    """
    cls = type(m)
    if cls is wire.ImpProcRequest:
        return ("req", m.request_ts, m.rank)
    if cls is wire.ReqToExpRep:
        return ("r2e", m.request_ts)
    if cls is wire.FwdRequest:
        return ("fwd", m.request_ts)
    if cls is wire.ProcResponse:
        r = m.response
        return (
            "resp", r.request_ts, m.rank, r.kind.value, r.matched_ts,
            r.latest_export_ts,
        )
    a = m.answer
    return (_ANSWER_TAGS[cls], a.request_ts, a.kind.value, a.matched_ts)


def _dec_wire(cid: str, entry: tuple[Any, ...]) -> Any:
    """The wire message of channel entry ``body + (seq, trace)``
    (inverse of :func:`_enc_wire`; the model seq stays with the entry)."""
    tag, ts, trace = entry[0], entry[1], entry[-1]
    if tag == "req":
        return wire.ImpProcRequest(cid, ts, entry[2], trace=trace)
    if tag == "r2e":
        return wire.ReqToExpRep(cid, ts, trace=trace)
    if tag == "fwd":
        return wire.FwdRequest(cid, ts, trace=trace)
    if tag == "resp":
        return wire.ProcResponse(
            cid, entry[2], _dec_response(ts, *entry[3:6]), trace=trace
        )
    return _ANSWER_MSGS[tag](cid, _dec_answer(entry[2:4], ts), trace=trace)


def _clone_dictobj(obj: Any) -> Any:
    """Shallow-copy an ordinary object (``__dict__``-based, no ``__init__``)."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    return new


def _clone_exp_state(st: _ExpRequestState) -> _ExpRequestState:
    new = _ExpRequestState(request_ts=st.request_ts)
    new.responses = dict(st.responses)
    new.definitive_ranks = set(st.definitive_ranks)
    new.finalized = st.finalized
    new.finalized_case = st.finalized_case
    new.finalizing_rank = st.finalizing_rank
    return new


def _clone_conn(conn: Any, hist: Any) -> Any:
    new = _clone_dictobj(conn)
    eng = _clone_dictobj(conn.engine)
    eng.history = hist
    new.engine = eng
    new.open_requests = {
        ts: OpenRequest(r.ts, r.window, r.candidate_ts)
        for ts, r in conn.open_requests.items()
    }
    new.answers = dict(conn.answers)
    new.must_send = set(conn.must_send)
    new._buddy_raises = list(conn._buddy_raises)
    return new


def _clone_region(region: RegionExportState) -> RegionExportState:
    new = _clone_dictobj(region)
    hist = _clone_dictobj(region.history)
    hist._buf = region.history._buf.copy()
    new.history = hist
    buf = _clone_dictobj(region.buffer)
    buf._entries = {
        ts: BufferEntry(e.ts, e.nbytes, e.memcpy_cost, e.window, e.sent, e.payload)
        for ts, e in region.buffer._entries.items()
    }
    buf._sent_ts = set(region.buffer._sent_ts)
    buf.t_by_window = dict(region.buffer.t_by_window)
    new.buffer = buf
    new.connections = {
        cid: _clone_conn(conn, hist) for cid, conn in region.connections.items()
    }
    return new


def clone_working(w: _Working) -> _Working:
    """Deep-copy a working state along its mutable spine only.

    The DFS expands each state once per enabled action; re-decoding the
    canonical tuple per transition dominated exploration time, so the
    checker clones instead.  Immutable leaves (frozen answers/responses,
    specs, policies) are shared between parent and child — only the
    containers and the handful of mutable protocol objects are copied.
    """
    c = _Working()
    c.imp = [
        _ImpRank(i.next_req, i.outstanding, i.retr_left, dict(i.resolved), set(i.seen))
        for i in w.imp
    ]
    irep = _clone_dictobj(w.irep)
    irep._requests = {
        cid: {
            ts: _ImpRequestState(ts, set(st.waiting), set(st.asked), st.answer)
            for ts, st in states.items()
        }
        for cid, states in w.irep._requests.items()
    }
    c.irep = irep
    erep = _clone_dictobj(w.erep)
    erep._requests = {
        cid: {ts: _clone_exp_state(st) for ts, st in states.items()}
        for cid, states in w.erep._requests.items()
    }
    erep._last_request_ts = dict(w.erep._last_request_ts)
    erep.aggregate_cases = dict(w.erep.aggregate_cases)
    c.erep = erep
    c.irep_seen = set(w.irep_seen)
    c.erep_seen = set(w.erep_seen)
    c.exp = [
        _ExpRank(
            region=_clone_region(e.region),
            pos=e.pos,
            closed=e.closed,
            crashed=e.crashed,
            seen=set(e.seen),
        )
        for e in w.exp
    ]
    c.chans = {k: list(v) for k, v in w.chans.items()}
    c.drop_left = w.drop_left
    c.dup_left = w.dup_left
    c.crash_left = w.crash_left
    return c


# ---------------------------------------------------------------------------
# the runtime adapter
# ---------------------------------------------------------------------------

def _node(address: tuple[Any, ...]) -> str:
    """Model name of a framework address: ``("rep", "E")`` is ``"ER"``,
    ``("ctl" | "cpl", "E", 1)`` is ``"E1"``."""
    return str(address[1]) + ("R" if address[0] == "rep" else str(address[2]))


class _ModelDriver(ProtocolDriver):
    """The model checker's adapter of :class:`ProtocolDriver`.

    Its clock is the position in the schedule being executed, its guard
    is empty (one action runs at a time) and its network is the FIFO
    channels of a :class:`_Working`.  All protocol state lives in the
    working state being expanded; :meth:`bind` points the driver at it
    before each action, so one driver serves every explored branch.
    What the driver itself accumulates (wire counters, per-process
    stats, causal bookkeeping) is observability: exploration never reads
    it; counterexample replay — one path on a fresh driver — reports it.
    """

    def __init__(self, config: ModelConfig, spec: ConnectionSpec) -> None:
        sizes = {"I": config.nimp, "E": config.nexp}
        #: Schedule position (advanced by counterexample replay).
        self.clock = 0.0
        self.w: _Working
        self.cid = spec.connection_id
        super().__init__(
            CouplingConfig(
                programs={
                    name: ProgramSpec(name, "model", "-", n)
                    for name, n in sizes.items()
                },
                connections=[spec],
            ),
            RunOptions(
                buddy_help=config.buddy_help, match_backend=config.match_backend
            ),
            RuntimePort(now=lambda: self.clock, send=self._net_send),
            rto=None if config.strict_order else 1.0,
            max_retransmits=config.retransmit_budget,
        )
        # The data plane is not modelled (see _send_pieces): the two
        # decompositions only have to agree on a global shape.
        shape = (config.nimp * config.nexp,)
        for name, n in sizes.items():
            self._add_program(
                name, None, {REGION: RegionDef(BlockDecomposition(shape, (n,)))}, n,
                lambda _name, k: [None] * k, lambda _address: None,
            )
        self._resolve(ContextBase, "model")
        self.importers: list[ContextBase] = self._programs["I"].contexts
        self.exporters: list[ContextBase] = self._programs["E"].contexts

    def bind(self, w: _Working) -> None:
        """Point the reps and the per-rank export states at *w*."""
        self.w = w
        self._programs["I"].imp_rep = w.irep
        self._programs["E"].exp_rep = w.erep
        for ctx, e in zip(self.exporters, w.exp):
            ctx.export_states[REGION] = e.region

    def importer(self, r: int) -> ContextBase:
        """Importer rank *r* with a fresh import state.

        A runtime's import records are per-run bookkeeping the model
        state does not carry (``_ImpRank`` holds all that behaves), and
        their increasing-timestamp ``require`` must not be shared
        across explored branches.
        """
        ctx = self.importers[r]
        ctx.import_states[REGION] = RegionImportState(REGION, self.cid)
        return ctx

    def _net_send(
        self, src: Any, dst: Any, payload: Any, nbytes: int = wire.CTL_NBYTES
    ) -> None:
        """Append *payload* to the bound state's ``(src, dst)`` FIFO.

        Memoryless stamping: the smallest ``k`` whose ``(src, k)``
        neither rides a copy still in flight to *dst* nor sits in
        *dst*'s dedup memory.
        """
        w = self.w
        s, d = _node(src), _node(dst)
        chan = w.chans.setdefault((s, d), [])
        taken = {q for q in w.seen_of(d) if q[0] == s}
        taken.update(m[-2] for m in chan)
        k = 0
        while (s, k) in taken:
            k += 1
        chan.append(_enc_wire(payload) + ((s, k), payload.trace))

    def _send_pieces(self, ctx: ContextBase, region: str, cid: str, m: float) -> None:
        """The data plane is not modelled: keep only the ledger's sent
        mark, which eviction and the M204 bound read."""
        buf = ctx.export_states[region].buffer
        if buf.has(m) and not buf.get(m).sent:
            buf.mark_sent(m)


class ModelMachine:
    """Transition function + canonical encoding for one :class:`ModelConfig`."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.spec = config.connection_spec()
        self.cid = self.spec.connection_id
        self._imp_ids = tuple(f"I{r}" for r in range(config.nimp))
        self._exp_ids = tuple(f"E{r}" for r in range(config.nexp))
        self.driver = _ModelDriver(config, self.spec)

    # -- construction -------------------------------------------------------
    def _new_exporter_rep(self) -> ExporterRep:
        cls = (
            NoAnswerCacheExporterRep
            if self.config.mutate == "no_answer_cache"
            else ExporterRep
        )
        return cls(
            "E",
            self.config.nexp,
            [self.cid],
            buddy_help=self.config.buddy_help,
            strict_order=self.config.strict_order,
        )

    def _new_region(self) -> RegionExportState:
        return RegionExportState(
            REGION,
            [self.spec],
            strict_order=self.config.strict_order,
            match_backend=self.config.match_backend,
        )

    def initial_working(self) -> _Working:
        """A fresh, fully materialized initial state."""
        cfg = self.config
        w = _Working()
        w.imp = [
            _ImpRank(retr_left=cfg.retransmit_budget) for _ in range(cfg.nimp)
        ]
        w.exp = [_ExpRank(region=self._new_region()) for _ in range(cfg.nexp)]
        w.irep = ImporterRep("I", cfg.nimp, [self.cid])
        w.erep = self._new_exporter_rep()
        w.drop_left = cfg.drop_budget
        w.dup_left = cfg.dup_budget
        w.crash_left = cfg.crash_budget
        return w

    # -- canonical encoding -------------------------------------------------
    def encode(self, w: _Working) -> tuple[Any, ...]:
        """Canonical nested-tuple form of *w* (behavioural fields only)."""
        imp = tuple(
            (
                i.next_req,
                i.outstanding,
                i.retr_left,
                tuple(sorted(i.resolved.items())),
            )
            for i in w.imp
        )
        irep = tuple(
            (
                cid,
                tuple(
                    (
                        ts,
                        tuple(sorted(st.waiting)),
                        tuple(sorted(st.asked)),
                        _enc_answer(st.answer),
                    )
                    for ts, st in sorted(states.items())
                ),
            )
            for cid, states in sorted(w.irep._requests.items())
        )
        erep = tuple(
            (
                cid,
                w.erep._last_request_ts[cid],
                tuple(
                    (
                        ts,
                        tuple(
                            (rank, r.kind.value, r.matched_ts, r.latest_export_ts)
                            for rank, r in sorted(st.responses.items())
                        ),
                        tuple(sorted(st.definitive_ranks)),
                        _enc_answer(st.finalized),
                        st.finalized_case,
                        st.finalizing_rank,
                    )
                    for ts, st in sorted(states.items())
                ),
            )
            for cid, states in sorted(w.erep._requests.items())
        )
        exp = []
        for e in w.exp:
            region = e.region
            conns = []
            for cid, conn in sorted(region.connections.items()):
                conns.append(
                    (
                        cid,
                        conn.engine.last_request_ts,
                        tuple(
                            (ts, r.window, r.candidate_ts)
                            for ts, r in sorted(conn.open_requests.items())
                        ),
                        tuple(
                            (ts, _enc_answer(a))
                            for ts, a in sorted(conn.answers.items())
                        ),
                        conn.skip_threshold,
                        conn.local_skip_threshold,
                        tuple(sorted(conn.must_send)),
                        conn.window_count,
                        tuple(conn._buddy_raises),
                    )
                )
            buf = tuple(
                (ts, entry.window, entry.sent)
                for ts, entry in sorted(region.buffer._entries.items())
            )
            exp.append(
                (
                    e.pos,
                    e.closed,
                    e.crashed,
                    tuple(conns),
                    buf,
                )
            )
        chans = tuple(
            (key, tuple(msgs))
            for key, msgs in sorted(w.chans.items())
            if msgs
        )
        # Prune dedup memory to seqs still in transit toward each
        # receiver: a remembered seq with no live copy can never be
        # consulted again, so keeping it would only split states.
        in_flight: dict[str, set[tuple[str, int]]] = {}
        for (_src, dst), msgs in w.chans.items():
            if msgs:
                in_flight.setdefault(dst, set()).update(m[-2] for m in msgs)
        def _pruned(dst: str, seen: set[tuple[str, int]]) -> tuple[Any, ...]:
            live = in_flight.get(dst)
            if not live:
                return ()
            return tuple(sorted(seen & live))
        imp_pruned = tuple(
            enc + (_pruned(f"I{r}", w.imp[r].seen),)
            for r, enc in enumerate(imp)
        )
        exp_pruned = tuple(
            enc + (_pruned(f"E{r}", w.exp[r].seen),)
            for r, enc in enumerate(exp)
        )
        return (
            imp_pruned,
            irep,
            _pruned("IR", w.irep_seen),
            erep,
            _pruned("ER", w.erep_seen),
            exp_pruned,
            chans,
            (w.drop_left, w.dup_left, w.crash_left),
        )

    # -- actions ------------------------------------------------------------
    def enabled_actions(self, w: _Working) -> list[tuple[Any, ...]]:
        """Every action enabled in *w*, in a fixed deterministic order.

        Retransmission is *quiescence-gated*, the standard timeout
        abstraction: the real runtime retransmits on a timeout, and a
        timeout only matters once the system has gone quiet (every
        in-flight message that could still resolve the import has been
        delivered).  Modelling "retransmit at any moment, from a finite
        budget" instead would let the explorer waste the whole budget
        *before* a loss and then report a phantom livelock the real
        unbounded-timeout runtime cannot exhibit.
        """
        cfg = self.config
        actions: list[tuple[Any, ...]] = []
        crashed = {self._exp_ids[r] for r, e in enumerate(w.exp) if e.crashed}
        live_chans = [
            key for key, msgs in sorted(w.chans.items())
            if msgs and key[1] not in crashed
        ]
        for src, dst in live_chans:
            actions.append(("deliver", src, dst))
        for r, i in enumerate(w.imp):
            if i.outstanding is None and i.next_req < len(cfg.requests):
                actions.append(("issue", r))
        for r, e in enumerate(w.exp):
            if e.crashed:
                continue
            if e.pos < len(cfg.exports):
                actions.append(("export", r))
            elif not e.closed:
                actions.append(("close", r))
        if not actions and cfg.mode == "resilient":
            for r, i in enumerate(w.imp):
                if i.outstanding is not None and i.retr_left > 0:
                    actions.append(("retransmit", r))
        fault_chans = [
            ch for ch in live_chans
            if plane_of_channel(*ch) in cfg.fault_planes
        ]
        if w.drop_left > 0:
            for src, dst in fault_chans:
                actions.append(("drop", src, dst))
        if w.dup_left > 0:
            for src, dst in fault_chans:
                actions.append(("dup", src, dst))
        if w.crash_left > 0 and len(crashed) < cfg.nexp - 1:
            for r, e in enumerate(w.exp):
                if not e.crashed:
                    actions.append(("crash", r))
        return actions

    def footprint(self, action: tuple[Any, ...]) -> frozenset[Any]:
        """Dependency footprint for the sleep-set independence relation.

        Two actions are independent iff their footprints are disjoint.
        Tokens: ``("c", comp)`` — mutates a component's state;
        ``("h", src, dst)`` — consumes the head of a FIFO;
        ``("t", src, dst)`` — affects what the next *send* on that FIFO
        is stamped with: pushes, drops and deliveries all change the
        in-flight-or-remembered seq set the memoryless stamper
        consults (a delivered seq is pruned from dedup memory the
        moment its last wire copy is gone); ``"F"`` — spends shared
        fault budget; ``"Q"`` — quiescence-gated (one retransmit
        un-quiesces the state and disables the others, so retransmits
        never commute).
        """
        kind = action[0]
        if kind == "deliver":
            src, dst = action[1], action[2]
            toks: set[Any] = {("h", src, dst), ("c", dst), ("t", src, dst)}
            # Processing a delivery can send on the component's
            # outgoing links.
            toks.update(("t", dst, out) for out in self._out_links(dst))
            return frozenset(toks)
        if kind == "drop":
            return frozenset(
                {("h", action[1], action[2]), ("t", action[1], action[2]), "F"}
            )
        if kind == "dup":
            return frozenset({("h", action[1], action[2]), "F"})
        if kind == "issue":
            return frozenset({("c", f"I{action[1]}"), ("t", f"I{action[1]}", "IR")})
        if kind == "retransmit":
            return frozenset(
                {("c", f"I{action[1]}"), ("t", f"I{action[1]}", "IR"), "Q"}
            )
        if kind in ("export", "close"):
            return frozenset({("c", f"E{action[1]}"), ("t", f"E{action[1]}", "ER")})
        if kind == "crash":
            return frozenset({("c", f"E{action[1]}"), "F"})
        raise ValueError(f"unknown action {action!r}")

    def _out_links(self, comp: str) -> tuple[str, ...]:
        """Components *comp* may send to while processing a delivery."""
        if comp == "IR":
            return ("ER",) + self._imp_ids
        if comp == "ER":
            return ("IR",) + self._exp_ids
        if comp.startswith("E"):
            return ("ER",)
        return ()  # importer ranks never send from a delivery

    # -- transition ---------------------------------------------------------
    def apply(self, w: _Working, action: tuple[Any, ...]) -> None:
        """Execute *action* on *w* in place.

        Every protocol step is a call into the shared
        :class:`~repro.core.protocol.ProtocolDriver` bound to *w*; what
        is written out here is the adversary (drop, dup, crash) and
        the scripts' bookkeeping.  Raises one of
        :data:`VIOLATION_ERRORS` when the real protocol code rejects
        the transition — the checker maps that to M203.
        """
        drv = self.driver
        drv.bind(w)
        kind = action[0]
        if kind == "deliver":
            self._deliver(w, action[1], action[2])
        elif kind == "issue":
            i = w.imp[action[1]]
            ts = self.config.requests[i.next_req]
            i.next_req += 1
            i.outstanding = ts
            drv._import_begin(drv.importer(action[1]), REGION, ts)
        elif kind == "retransmit":
            i = w.imp[action[1]]
            assert i.outstanding is not None
            i.retr_left -= 1
            drv._retransmit(
                drv.importers[action[1]],
                ImportHandle(REGION, self.cid, i.outstanding, record=None),
                attempt=self.config.retransmit_budget - i.retr_left,
                rto=1.0,
            )
        elif kind == "export":
            e, ctx = w.exp[action[1]], drv.exporters[action[1]]
            ts = self.config.exports[e.pos]
            e.pos += 1
            outcome = e.region.on_export(ts, nbytes=8, memcpy_cost=1.0)
            if outcome.buddy_skip:
                drv._buddy_skip(ctx, ts, outcome)
            drv._after_export(ctx, REGION, ts, outcome)
            drv._evict(ctx, e.region)
        elif kind == "close":
            e, ctx = w.exp[action[1]], drv.exporters[action[1]]
            e.closed = True
            drv._close_exports(ctx)
            drv._evict(ctx, e.region)
        elif kind == "crash":
            w.exp[action[1]].crashed = True
            w.crash_left -= 1
        elif kind == "drop":
            w.chans[(action[1], action[2])].pop(0)
            w.drop_left -= 1
            self._prune_seen(w, action[2])
        elif kind == "dup":
            chan = w.chans[(action[1], action[2])]
            chan.insert(1, chan[0])  # wire-level copy: same sequence number
            w.dup_left -= 1
        else:
            raise ValueError(f"unknown action {action!r}")

    def _deliver(self, w: _Working, src: str, dst: str) -> None:
        """Pop the head of ``(src, dst)`` past dedup into its handler."""
        entry = w.chans[(src, dst)].pop(0)
        seq = entry[-2]
        seen = w.seen_of(dst)
        # Dedup is modelled here, not through the driver's _seq_duplicate: its
        # memory must be pruned for states to merge (see _prune_seen),
        # and this is where the no_dedup mutation switches it off.
        if self.config.mutate != "no_dedup":
            if seq in seen:
                self._prune_seen(w, dst)
                return  # wire-level duplicate: the dedup layer discards it
            seen.add(seq)
        self._prune_seen(w, dst)
        drv = self.driver
        msg = _dec_wire(self.cid, entry)
        if dst[1] == "R":
            drv._rep_handle(drv._programs[dst[0]], msg)
        elif dst[0] == "E":
            drv._agent_handle(drv.exporters[int(dst[1:])], msg)
        else:
            self._answer(w, int(dst[1:]), msg)

    def _answer(self, w: _Working, r: int, msg: wire.AnswerToProc) -> None:
        """Importer rank *r* consumes a final answer.

        A runtime's importer waits for one answer per request and never
        looks at a second; the model looks, so that two answers which
        disagree (a Property-1 breach) surface as M203.
        """
        i = w.imp[r]
        ts = msg.answer.request_ts
        got = _enc_answer(msg.answer)
        assert got is not None
        known = i.resolved.get(ts)
        if known is not None:
            if known != got:
                raise ProtocolError(
                    f"I.p{r}: conflicting answers for request @{ts}: "
                    f"{known} then {got}"
                )
            return
        i.resolved[ts] = got
        if i.outstanding == ts:
            i.outstanding = None
        drv = self.driver
        ctx = drv.importer(r)
        record = ctx.import_states[REGION].start_request(ts, drv.clock)
        drv._import_answered(ctx, ImportHandle(REGION, self.cid, ts, record), msg)

    def _prune_seen(self, w: _Working, dst: str) -> None:
        """Drop dedup memory for seqs with no wire copy left toward *dst*.

        This keeps the working state identical to its canonical form at
        all times: a remembered seq whose last copy is gone can never be
        dedup-checked again, but the memoryless stamper *would* consult
        it and pick a higher ``k`` — states that differ only in that
        numbering history would then fail to merge.  Pruning eagerly
        (not just at encode time) makes stamping a function of the
        canonical state.
        """
        seen = w.seen_of(dst)
        if not seen:
            return
        live: set[tuple[str, int]] = set()
        for (_src, d), msgs in w.chans.items():
            if d == dst and msgs:
                live.update(m[-2] for m in msgs)
        seen &= live

    # -- invariants -----------------------------------------------------------
    def check_occupancy(self, w: _Working) -> str | None:
        """M204: buffer occupancy must respect the Eq. 1-2 window bound.

        Two checks per live exporter rank:

        * the *eviction line*: no live, unsent entry may sit strictly
          below the connection-agreed eviction threshold unless some
          connection's keep-set protects it (a candidate or an unsent
          match) — everything below the line is outside every live
          acceptable window and must have been freed;
        * the *numeric bound* derived from the scripts: occupancy never
          exceeds the number of scripted exports at or above the
          eviction line plus the protected set.
        """
        for r, e in enumerate(w.exp):
            if e.crashed:
                continue
            region = e.region
            threshold = region.evict_threshold()
            keep: set[float] = set()
            for conn in region.connections.values():
                keep |= conn.keep_set()
            for ts, entry in region.buffer._entries.items():
                if ts < threshold and not entry.sent and ts not in keep:
                    return (
                        f"E.p{r}: buffered object @{ts:g} lies below the "
                        f"eviction line {threshold:g} outside every keep-set "
                        "— occupancy exceeds the Eq. 1-2 window bound"
                    )
            if threshold != -math.inf:
                bound = sum(
                    1 for ts in self.config.exports if ts >= threshold
                ) + len(keep)
                if region.buffer.live_count > bound:
                    return (
                        f"E.p{r}: {region.buffer.live_count} live objects "
                        f"exceed the window bound {bound} "
                        f"(eviction line {threshold:g})"
                    )
        return None

    def unresolved(self, w: _Working) -> list[tuple[int, float]]:
        """Importer ranks still blocked on a request: ``(rank, ts)``."""
        return [
            (r, i.outstanding)
            for r, i in enumerate(w.imp)
            if i.outstanding is not None
        ]

    def faults_used(self, w: _Working) -> dict[str, int]:
        """Fault/retransmit counts consumed so far (from the budgets)."""
        cfg = self.config
        return {
            "drop": cfg.drop_budget - w.drop_left,
            "dup": cfg.dup_budget - w.dup_left,
            "crash": cfg.crash_budget - w.crash_left,
            "retransmit": sum(
                cfg.retransmit_budget - i.retr_left for i in w.imp
            ),
        }

    def classify_terminal(self, w: _Working) -> tuple[str, str] | None:
        """Rule + message for a terminal state, or ``None`` when clean.

        A terminal state (no enabled action) is clean iff every issued
        import resolved.  Otherwise:

        * **M201** — no fault and no retransmission happened: a pure
          message-interleaving deadlock;
        * **M202** — retransmissions were spent re-driving the request
          and the protocol still failed to resolve it: a
          retransmission livelock (each re-drive returned the system
          to an equivalent stuck state);
        * **M205** — the importer still holds a PENDING import after
          faults the protocol claims to absorb.
        """
        stuck = self.unresolved(w)
        if not stuck:
            return None
        used = self.faults_used(w)
        who = ", ".join(f"I.p{r}@{ts:g}" for r, ts in stuck)
        if not any(used.values()):
            return (
                "M201",
                f"deadlock: {who} blocked with all channels quiescent and "
                "no fault injected",
            )
        if used["retransmit"] > 0:
            return (
                "M202",
                f"retransmission livelock: {who} unresolved after "
                f"{used['retransmit']} retransmission(s) re-drove the "
                f"request (faults injected: {used['drop']} drop, "
                f"{used['dup']} dup, {used['crash']} crash)",
            )
        return (
            "M205",
            f"unresolved import: {who} still PENDING at quiescence "
            f"(faults injected: {used['drop']} drop, {used['dup']} dup, "
            f"{used['crash']} crash)",
        )
