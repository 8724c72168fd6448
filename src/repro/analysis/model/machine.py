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

* copy-on-write states (:class:`_Working`) — exploration needs
  copyable, value-hashed states and a transition writes one component
  of one, so a child shares the rest with its parent and each component
  caches its canonical bytes and (exporter ranks) its M204 verdict; a
  run has one state and no use for any of it;
* action enumeration and footprints — the nondeterministic scheduler
  and its partial-order reduction replace a runtime's event loop, and
  the footprint's ``("c", comp)`` tokens are also what ``apply`` thaws;
* the adversary (``drop``, ``dup``, ``crash``, budgets) — chosen
  exhaustively here, drawn from a seeded :class:`~repro.faults.plan.
  FaultPlan` in a run;
* sequence stamping and dedup — a run counts sends globally and
  remembers every seq; here both are memoryless so states merge (below),
  and dedup is where the ``no_dedup`` mutation is switched;
* the importer's conflicting-answer check — a run's importer takes the
  first answer and never sees a second; the model looks at every copy so
  a Property-1 breach surfaces as M203;
* the data plane — not modelled: ``_send_pieces`` keeps the driver's
  lookup-or-raise and the ledger's sent mark, nothing travels;
* the ``no_must_send`` fixture and the M206 terminal check — a skipped
  match blocks no import when no data moves, so the model looks.

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

States are hashed over canonical nested tuples, one per component
(``canon()``, :meth:`ModelMachine.digest`); behavioural fields only —
reporting counters are excluded so states that cannot be distinguished
by any future behaviour merge.  The deep copy and the whole-state
encode this replaced are the oracle of
``tests/analysis/test_model_cow.py``.
"""

from __future__ import annotations

import functools
import hashlib
import marshal
import math
from dataclasses import dataclass, field, fields, replace
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
from repro.core.exporter import (
    ApplyOutcome,
    ConnectionExportState,
    OpenRequest,
    RegionExportState,
)
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
    "NoMustSendConnection",
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
MUTATIONS = ("no_dedup", "no_answer_cache", "no_must_send")

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


class NoMustSendConnection(ConnectionExportState):
    """Mutation fixture: a buddy-learned match is not put in ``must_send``.

    A rank that hears the collective's answer before it has generated
    the matched object then meets that object with a skip threshold the
    same answer raised past it, and *skips the match* — the one export
    the skip rule of Section 4.1 must never drop.  No import blocks (the
    data plane is not modelled), so only M206 can see it.
    """

    def apply_answer(self, answer: FinalAnswer, source: str) -> ApplyOutcome:
        applied = super().apply_answer(answer, source)
        if source == "buddy" and answer.matched_ts is not None:
            self.must_send.discard(answer.matched_ts)  # the mutation
        return applied


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
    * ``no_must_send`` — no fault at all: a slow rank only has to hear
      the answer before it exports the match (**M206**, in the clean
      world and again in ``buddy``).

    The first two direct their fault at the ``rep`` plane (the rep<->rep
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
    quiet = ModelConfig(
        drop_budget=0,
        dup_budget=0,
        crash_budget=0,
        retransmit_budget=0,
        fault_planes=("rep",),
        mutate=name,
    )
    if name == "no_dedup":
        return replace(quiet, mode="strict", dup_budget=1)
    if name == "no_answer_cache":
        return replace(quiet, drop_budget=1, retransmit_budget=2)
    return quiet


# ---------------------------------------------------------------------------
# model state: copy-on-write components
# ---------------------------------------------------------------------------

Action = tuple[Any, ...]
Seq = tuple[str, int]

#: Marks an exporter rank whose M204 verdict has not been computed yet.
_UNCHECKED: Any = object()

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
    hist = region.history.copy()
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


# A component is what one action writes.  Each has ``seen`` (its dedup
# memory, a frozenset replaced on write), ``thaw()`` (a private copy,
# mutable spine only, caches dropped), ``canon()`` (its behavioural
# fields as a nested tuple) and ``enc`` (the cached bytes of that).

@dataclass(slots=True, eq=False)
class _ImpRank:
    """Component ``I<r>``: one importer rank's script position, the
    answers it holds and its dedup memory."""

    retr_left: int
    next_req: int = 0
    outstanding: float | None = None
    resolved: dict[float, tuple[str, float | None]] = field(default_factory=dict)
    seen: frozenset[Seq] = frozenset()
    enc: bytes | None = None

    def thaw(self) -> "_ImpRank":
        return _ImpRank(
            self.retr_left, self.next_req, self.outstanding,
            dict(self.resolved), self.seen,
        )

    def canon(self) -> tuple[Any, ...]:
        return (
            self.next_req,
            self.outstanding,
            self.retr_left,
            tuple(sorted(self.resolved.items())),
            tuple(sorted(self.seen)),
        )


@dataclass(slots=True, eq=False)
class _ImpRepNode:
    """Component ``IR``: the importer rep and its dedup memory."""

    rep: ImporterRep
    seen: frozenset[Seq] = frozenset()
    enc: bytes | None = None

    def thaw(self) -> "_ImpRepNode":
        rep = _clone_dictobj(self.rep)
        rep._requests = {
            cid: {
                ts: _ImpRequestState(ts, set(st.waiting), set(st.asked), st.answer)
                for ts, st in states.items()
            }
            for cid, states in self.rep._requests.items()
        }
        return _ImpRepNode(rep, self.seen)

    def canon(self) -> tuple[Any, ...]:
        requests = tuple(
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
            for cid, states in sorted(self.rep._requests.items())
        )
        return (requests, tuple(sorted(self.seen)))


@dataclass(slots=True, eq=False)
class _ExpRepNode:
    """Component ``ER``: the exporter rep and its dedup memory."""

    rep: ExporterRep
    seen: frozenset[Seq] = frozenset()
    enc: bytes | None = None

    def thaw(self) -> "_ExpRepNode":
        rep = _clone_dictobj(self.rep)
        rep._requests = {
            cid: {ts: _clone_exp_state(st) for ts, st in states.items()}
            for cid, states in self.rep._requests.items()
        }
        rep._last_request_ts = dict(self.rep._last_request_ts)
        rep.aggregate_cases = dict(self.rep.aggregate_cases)
        return _ExpRepNode(rep, self.seen)

    def canon(self) -> tuple[Any, ...]:
        rep = self.rep
        requests = tuple(
            (
                cid,
                rep._last_request_ts[cid],
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
            for cid, states in sorted(rep._requests.items())
        )
        return (requests, tuple(sorted(self.seen)))


@dataclass(slots=True, eq=False)
class _ExpRank:
    """Component ``E<r>``: one exporter rank's export state (match engine
    and buffer ledger inside), script position, liveness and dedup
    memory — plus the cached M204 verdict, a function of this alone."""

    region: RegionExportState
    pos: int = 0
    closed: bool = False
    crashed: bool = False
    seen: frozenset[Seq] = frozenset()
    enc: bytes | None = None
    m204: str | None = _UNCHECKED

    def thaw(self) -> "_ExpRank":
        return _ExpRank(
            _clone_region(self.region), self.pos, self.closed, self.crashed, self.seen
        )

    def canon(self) -> tuple[Any, ...]:
        region = self.region
        conns = tuple(
            (
                cid,
                conn.engine.last_request_ts,
                tuple(
                    (ts, r.window, r.candidate_ts)
                    for ts, r in sorted(conn.open_requests.items())
                ),
                tuple(
                    (ts, _enc_answer(a)) for ts, a in sorted(conn.answers.items())
                ),
                conn.skip_threshold,
                conn.local_skip_threshold,
                tuple(sorted(conn.must_send)),
                conn.window_count,
                tuple(conn._buddy_raises),
            )
            for cid, conn in sorted(region.connections.items())
        )
        buf = tuple(
            (ts, entry.window, entry.sent)
            for ts, entry in sorted(region.buffer._entries.items())
        )
        return (
            self.pos, self.closed, self.crashed, conns, buf,
            tuple(sorted(self.seen)),
        )


@dataclass(slots=True, eq=False)
class _Working:
    """One model state, copy-on-write per component.

    ``comps`` maps a component name (``I0..``, ``IR``, ``ER``, ``E0..``)
    to its state object and ``chans`` every link of the world to the
    tuple of entries in flight on it; both keep one fixed key order.
    The two maps are private to a state, what they point at is shared
    with the states it was cloned from and into: a component is written
    only after :meth:`thaw` replaced it with a private copy, a channel
    only by putting a new tuple in its slot.
    """

    comps: dict[str, Any]
    chans: dict[tuple[str, str], tuple[tuple[Any, ...], ...]]
    drop_left: int
    dup_left: int
    crash_left: int

    def thaw(self, name: str) -> Any:
        """Replace component *name* by a private copy and return it."""
        comp = self.comps[name] = self.comps[name].thaw()
        return comp


def clone_working(w: _Working) -> _Working:
    """A child of *w* that shares every component and channel with it.

    The DFS expands each state once per enabled action, and an action
    writes one component (its footprint says which): the child copies
    the two small maps and :meth:`ModelMachine.apply` thaws what it is
    about to write.  *w* itself is never written again.
    """
    return _Working(
        dict(w.comps), dict(w.chans), w.drop_left, w.dup_left, w.crash_left
    )


# ---------------------------------------------------------------------------
# the runtime adapter
# ---------------------------------------------------------------------------

@functools.cache
def _node(address: tuple[Any, ...]) -> str:
    """Model name of a framework address: ``("rep", "E")`` is ``"ER"``,
    ``("ctl" | "cpl", "E", 1)`` is ``"E1"``."""
    return str(address[1]) + ("R" if address[0] == "rep" else str(address[2]))


class _ModelDriver(ProtocolDriver):
    """The model checker's adapter of :class:`ProtocolDriver`.

    Its clock is the position in the schedule being executed, its guard
    is empty (one action runs at a time) and its network is the FIFO
    channels of a :class:`_Working`.  All protocol state lives in the
    working state being expanded; :meth:`bind` points the driver at the
    components an action thawed, so one driver serves every explored
    branch.  What the driver itself accumulates (wire counters,
    per-process stats, causal bookkeeping) is observability: exploration
    never reads it; counterexample replay — one path on a fresh driver —
    reports it.
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
            # Never sanitized: the checker explores branches one driver
            # serves, so no fold may accumulate state across them.
            RunOptions(
                buddy_help=config.buddy_help, match_backend=config.match_backend,
                sanitize=False,
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

    def bind(self, name: str, comp: Any) -> None:
        """Point the driver at the protocol object of component *name*
        (an importer rank holds none)."""
        if name == "IR":
            self._programs["I"].imp_rep = comp.rep
        elif name == "ER":
            self._programs["E"].exp_rep = comp.rep
        elif name[0] == "E":
            self.exporters[int(name[1:])].export_states[REGION] = comp.region

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
        chan = w.chans[(s, d)]
        k = 0
        if chan:
            seen = w.comps[d].seen
            flying = [m[-2] for m in chan]
            while (s, k) in flying or (s, k) in seen:
                k += 1
        w.chans[(s, d)] = chan + (_enc_wire(payload) + ((s, k), payload.trace),)

    def _send_pieces(self, ctx: ContextBase, region: str, cid: str, m: float) -> None:
        """The data plane is not modelled: keep the lookup (a match that
        is neither buffered nor sent raises, M203) and the ledger's sent
        mark, which eviction, M204 and M206 read."""
        self._match_entry(ctx, region, cid, m)


class ModelMachine:
    """Transition function + canonical encoding for one :class:`ModelConfig`."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.spec = config.connection_spec()
        self.cid = self.spec.connection_id
        self._imp_ids = tuple(f"I{r}" for r in range(config.nimp))
        self._exp_ids = tuple(f"E{r}" for r in range(config.nexp))
        #: Every link of the world, in the order deliveries are enumerated.
        up = [(i, "IR") for i in self._imp_ids] + [(e, "ER") for e in self._exp_ids]
        up.append(("IR", "ER"))
        self._links = tuple(sorted(up + [(dst, src) for src, dst in up]))
        self._in_links = {
            dst: tuple(link for link in self._links if link[1] == dst)
            for _src, dst in self._links
        }
        self._fault_links = frozenset(
            link for link in self._links
            if plane_of_channel(*link) in config.fault_planes
        )
        #: Every action some state of this world can enable -> its footprint.
        self.footprints: dict[Action, frozenset[Any]] = {
            action: self.footprint(action)
            for action in (
                [(kind, *link) for kind in ("deliver", "drop", "dup") for link in self._links]
                + [(kind, r) for kind in ("issue", "retransmit") for r in range(config.nimp)]
                + [(kind, r) for kind in ("export", "close", "crash") for r in range(config.nexp)]
            )
        }
        #: action -> the components its footprint says it writes.
        self._writes = {
            action: tuple(tok[1] for tok in footprint if tok[0] == "c")
            for action, footprint in self.footprints.items()
        }
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
        region = RegionExportState(
            REGION,
            [self.spec],
            strict_order=self.config.strict_order,
            match_backend=self.config.match_backend,
        )
        if self.config.mutate == "no_must_send":
            for conn in region.connections.values():
                conn.__class__ = NoMustSendConnection
        return region

    def initial_working(self) -> _Working:
        """A fresh initial state."""
        cfg = self.config
        comps: dict[str, Any] = {
            name: _ImpRank(retr_left=cfg.retransmit_budget) for name in self._imp_ids
        }
        comps["IR"] = _ImpRepNode(ImporterRep("I", cfg.nimp, [self.cid]))
        comps["ER"] = _ExpRepNode(self._new_exporter_rep())
        for name in self._exp_ids:
            comps[name] = _ExpRank(self._new_region())
        return _Working(
            comps,
            dict.fromkeys(self._links, ()),
            cfg.drop_budget,
            cfg.dup_budget,
            cfg.crash_budget,
        )

    # -- canonical encoding -------------------------------------------------
    def digest(self, w: _Working) -> bytes:
        """16-byte BLAKE2b digest of the canonical form of *w*: each
        component's ``canon()``, then the channels and the fault budgets.

        ``marshal`` version 2 writes no back reference and no interning
        flag, so the bytes are a function of value, never of object
        identity (a wire-level ``dup`` puts the *same* entry tuple in a
        channel twice), and its streams are self-delimiting, so hashing
        the concatenation loses nothing.  A component keeps its bytes
        until it is thawed: a transition re-encodes what it wrote.
        """
        parts = [comp.enc or self._encode(comp) for comp in w.comps.values()]
        parts.append(
            marshal.dumps(
                (tuple(w.chans.values()), w.drop_left, w.dup_left, w.crash_left), 2
            )
        )
        return hashlib.blake2b(b"".join(parts), digest_size=16).digest()

    @staticmethod
    def _encode(comp: Any) -> bytes:
        comp.enc = enc = marshal.dumps(comp.canon(), 2)
        return enc

    # -- actions ------------------------------------------------------------
    def enabled_actions(self, w: _Working) -> list[Action]:
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
        comps = w.comps
        imp = [comps[name] for name in self._imp_ids]
        exp = [comps[name] for name in self._exp_ids]
        crashed = [name for name, e in zip(self._exp_ids, exp) if e.crashed]
        live_chans = [
            link for link, msgs in w.chans.items()
            if msgs and link[1] not in crashed
        ]
        actions: list[Action] = [("deliver", *link) for link in live_chans]
        nreq, nexports = len(cfg.requests), len(cfg.exports)
        for r, i in enumerate(imp):
            if i.outstanding is None and i.next_req < nreq:
                actions.append(("issue", r))
        for r, e in enumerate(exp):
            if e.crashed:
                continue
            if e.pos < nexports:
                actions.append(("export", r))
            elif not e.closed:
                actions.append(("close", r))
        if not actions and cfg.mode == "resilient":
            for r, i in enumerate(imp):
                if i.outstanding is not None and i.retr_left > 0:
                    actions.append(("retransmit", r))
        if w.drop_left > 0 or w.dup_left > 0:
            fault_chans = [ch for ch in live_chans if ch in self._fault_links]
            if w.drop_left > 0:
                actions += [("drop", *ch) for ch in fault_chans]
            if w.dup_left > 0:
                actions += [("dup", *ch) for ch in fault_chans]
        if w.crash_left > 0 and len(crashed) < cfg.nexp - 1:
            for r, e in enumerate(exp):
                if not e.crashed:
                    actions.append(("crash", r))
        return actions

    def footprint(self, action: Action) -> frozenset[Any]:
        """Dependency footprint for the sleep-set independence relation.

        Two actions are independent iff their footprints are disjoint.
        Tokens: ``("c", comp)`` — mutates a component's state (these
        are also exactly the components :meth:`apply` thaws before it
        runs the action); ``("h", src, dst)`` — consumes the head of a
        FIFO; ``("t", src, dst)`` — affects what the next *send* on that
        FIFO is stamped with: pushes, drops and deliveries all change
        the in-flight-or-remembered seq set the memoryless stamper
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
    def apply(self, w: _Working, action: Action) -> None:
        """Execute *action* on *w* in place.

        The components the action's footprint names are thawed and
        bound first; everything else *w* points at stays shared with
        its parent and is only read.  Every protocol step is a call
        into the shared :class:`~repro.core.protocol.ProtocolDriver`;
        what is written out here is the adversary (drop, dup, crash)
        and the scripts' bookkeeping.  Raises one of
        :data:`VIOLATION_ERRORS` when the real protocol code rejects
        the transition — the checker maps that to M203.
        """
        drv = self.driver
        drv.w = w
        if action not in self._writes:
            raise ValueError(f"unknown action {action!r}")
        for name in self._writes[action]:
            drv.bind(name, w.thaw(name))
        kind = action[0]
        if kind == "deliver":
            self._deliver(w, action[1], action[2])
        elif kind == "issue":
            i = w.comps[self._imp_ids[action[1]]]
            ts = self.config.requests[i.next_req]
            i.next_req += 1
            i.outstanding = ts
            drv._import_begin(drv.importer(action[1]), REGION, ts)
        elif kind == "retransmit":
            i = w.comps[self._imp_ids[action[1]]]
            assert i.outstanding is not None
            i.retr_left -= 1
            drv._retransmit(
                drv.importers[action[1]],
                ImportHandle(REGION, self.cid, i.outstanding, record=None),
                attempt=self.config.retransmit_budget - i.retr_left,
                rto=1.0,
            )
        elif kind == "export":
            e, ctx = w.comps[self._exp_ids[action[1]]], drv.exporters[action[1]]
            ts = self.config.exports[e.pos]
            e.pos += 1
            outcome = e.region.on_export(ts, nbytes=8, memcpy_cost=1.0)
            if outcome.buddy_skip:
                drv._buddy_skip(ctx, ts, outcome)
            drv._after_export(ctx, REGION, ts, outcome)
            drv._evict(ctx, e.region)
        elif kind == "close":
            e, ctx = w.comps[self._exp_ids[action[1]]], drv.exporters[action[1]]
            e.closed = True
            drv._close_exports(ctx)
            drv._evict(ctx, e.region)
        elif kind == "crash":
            w.comps[self._exp_ids[action[1]]].crashed = True
            w.crash_left -= 1
        elif kind == "drop":
            link = (action[1], action[2])
            w.chans[link] = w.chans[link][1:]
            w.drop_left -= 1
            # The receiver is not in a drop's footprint (forgetting a seq
            # nobody can present again commutes with all it does), so it
            # is thawed here, and only when its memory really shrinks.
            dst = action[2]
            seen = w.comps[dst].seen
            if seen:
                pruned = seen & self._in_flight(w, dst)
                if pruned != seen:
                    w.thaw(dst).seen = pruned
        elif kind == "dup":
            link = (action[1], action[2])
            chan = w.chans[link]
            w.chans[link] = chan[:1] + chan  # wire-level copy: same sequence number
            w.dup_left -= 1

    def _in_flight(self, w: _Working, dst: str) -> set[Seq]:
        """Sequence numbers with a wire copy left toward *dst*."""
        chans = w.chans
        return {m[-2] for link in self._in_links[dst] for m in chans[link]}

    def _deliver(self, w: _Working, src: str, dst: str) -> None:
        """Pop the head of ``(src, dst)`` past dedup into its handler.

        Dedup is modelled here, not through the driver's
        ``_seq_duplicate``: this is where the ``no_dedup`` mutation
        switches it off, and its memory is cut back to the seqs still
        in transit toward *dst* with every delivery (and every drop).
        A remembered seq whose last copy is gone can never be presented
        again, but the memoryless stamper *would* consult it and pick a
        higher ``k``, and states that differ only in that numbering
        history would fail to merge.  Pruning eagerly keeps ``seen`` a
        subset of what is in flight in every state, so stamping and the
        canonical form read the state as it is.
        """
        comp = w.comps[dst]  # thawed by apply
        chan = w.chans[(src, dst)]
        entry = chan[0]
        w.chans[(src, dst)] = chan[1:]
        seq = entry[-2]
        seen = comp.seen
        duplicate = seq in seen
        if self.config.mutate != "no_dedup" and not duplicate:
            seen = seen | {seq}
        if seen:
            comp.seen = seen & self._in_flight(w, dst)
        if duplicate:
            return  # wire-level duplicate: the dedup layer discards it
        drv = self.driver
        msg = _dec_wire(self.cid, entry)
        if dst[1] == "R":
            drv._rep_handle(drv._programs[dst[0]], msg)
        elif dst[0] == "E":
            drv._agent_handle(drv.exporters[int(dst[1:])], msg)
        else:
            self._answer(comp, int(dst[1:]), msg)

    def _answer(self, i: _ImpRank, r: int, msg: wire.AnswerToProc) -> None:
        """Importer rank *r* consumes a final answer.

        A runtime's importer waits for one answer per request and never
        looks at a second; the model looks, so that two answers which
        disagree (a Property-1 breach) surface as M203.
        """
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

    # -- invariants -----------------------------------------------------------
    def check_occupancy(self, w: _Working) -> str | None:
        """M204: buffer occupancy must respect the Eq. 1-2 window bound.

        The verdict of a rank is a function of its component alone and
        is cached on it, so a newly reached state checks only the ranks
        its transition wrote.
        """
        for r, name in enumerate(self._exp_ids):
            e = w.comps[name]
            verdict = e.m204
            if verdict is _UNCHECKED:
                verdict = e.m204 = self._occupancy(r, e)
            if verdict is not None:
                return verdict
        return None

    def _occupancy(self, r: int, e: _ExpRank) -> str | None:
        """The two M204 checks of one exporter rank (crashed: none).

        * the *eviction line*: no live, unsent entry may sit strictly
          below the connection-agreed eviction threshold unless some
          connection's keep-set protects it (a candidate or an unsent
          match) — everything below the line is outside every live
          acceptable window and must have been freed;
        * the *numeric bound* derived from the scripts: occupancy never
          exceeds the number of scripted exports at or above the
          eviction line plus the protected set.
        """
        if e.crashed:
            return None
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
            (r, w.comps[name].outstanding)
            for r, name in enumerate(self._imp_ids)
            if w.comps[name].outstanding is not None
        ]

    def untransferred(self, w: _Working) -> list[tuple[int, float]]:
        """Matches a live exporter rank knows of and never sent: ``(rank, ts)``."""
        out = []
        for r, name in enumerate(self._exp_ids):
            e = w.comps[name]
            if e.crashed:
                continue
            for conn in e.region.connections.values():
                for answer in conn.answers.values():
                    m = answer.matched_ts
                    if m is not None and not e.region.buffer.was_sent(m):
                        out.append((r, m))
        return out

    def faults_used(self, w: _Working) -> dict[str, int]:
        """Fault/retransmit counts consumed so far (from the budgets)."""
        cfg = self.config
        return {
            "drop": cfg.drop_budget - w.drop_left,
            "dup": cfg.dup_budget - w.dup_left,
            "crash": cfg.crash_budget - w.crash_left,
            "retransmit": sum(
                cfg.retransmit_budget - w.comps[name].retr_left
                for name in self._imp_ids
            ),
        }

    def classify_terminal(self, w: _Working) -> list[tuple[str, str]]:
        """Rule + message of everything wrong with a terminal state.

        A terminal state (no enabled action) is clean iff every issued
        import resolved and every match was transferred.  An unresolved
        import is one of:

        * **M201** — no fault and no retransmission happened: a pure
          message-interleaving deadlock;
        * **M202** — retransmissions were spent re-driving the request
          and the protocol still failed to resolve it: a
          retransmission livelock (each re-drive returned the system
          to an equivalent stuck state);
        * **M205** — the importer still holds a PENDING import after
          faults the protocol claims to absorb.

        Independently, **M206** — a live exporter rank holds a MATCH
        answer whose object it never transferred: on this schedule it
        skipped or evicted what turned out to be the collective's match
        (Section 4.1's skip rule promises that never happens).
        """
        found: list[tuple[str, str]] = []
        stuck = self.unresolved(w)
        if stuck:
            used = self.faults_used(w)
            who = ", ".join(f"I.p{r}@{ts:g}" for r, ts in stuck)
            faults = (
                f"faults injected: {used['drop']} drop, {used['dup']} dup, "
                f"{used['crash']} crash"
            )
            if not any(used.values()):
                found.append((
                    "M201",
                    f"deadlock: {who} blocked with all channels quiescent and "
                    "no fault injected",
                ))
            elif used["retransmit"] > 0:
                found.append((
                    "M202",
                    f"retransmission livelock: {who} unresolved after "
                    f"{used['retransmit']} retransmission(s) re-drove the "
                    f"request ({faults})",
                ))
            else:
                found.append((
                    "M205",
                    f"unresolved import: {who} still PENDING at quiescence "
                    f"({faults})",
                ))
        lost = self.untransferred(w)
        if lost:
            who = ", ".join(f"E.p{r}@{m:g}" for r, m in lost)
            found.append((
                "M206",
                f"untransferred match: {who} is the collective's match but "
                "was skipped or evicted unsent",
            ))
        return found
