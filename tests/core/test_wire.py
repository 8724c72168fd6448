"""The wire messages: immutable tuple classes, stamped once per send.

Each of the eight ``repro.core.wire`` messages is a ``NamedTuple``: the
sender builds it with its sequence number, and nothing can change a
field afterwards.  Tuples compare by value, so two kinds with equal
fields are equal; receivers must still tell them apart by kind.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api.facade import build as build_simulation
from repro.core import wire
from repro.core.coupler import RegionDef
from repro.core.exceptions import FrameworkError
from repro.data import BlockDecomposition
from repro.data.region import RectRegion
from repro.des.channel import Delivery, Network
from repro.match.result import FinalAnswer, MatchKind, MatchResponse
from repro.obs.trace import TraceContext
from repro.scenarios import build

MESSAGES = (
    wire.ReqToExpRep, wire.FwdRequest, wire.ProcResponse, wire.BuddyMsg,
    wire.AnswerToImpRep, wire.ImpProcRequest, wire.AnswerToProc, wire.DataPiece,
)

_TS = st.floats(allow_nan=False, allow_infinity=False, width=32)
_ANSWER = st.one_of(
    st.builds(FinalAnswer, _TS, st.just(MatchKind.MATCH), _TS),
    st.builds(FinalAnswer, _TS, st.just(MatchKind.NO_MATCH)),
)
_RESPONSE = st.one_of(
    st.builds(MatchResponse, _TS, st.just(MatchKind.MATCH), _TS, _TS),
    st.builds(MatchResponse, _TS, st.just(MatchKind.PENDING), st.none(), _TS),
)
_CORNER = st.tuples(st.integers(0, 64), st.integers(0, 64))
#: A strategy for every field name the eight messages use (``seq`` aside).
FIELDS: dict[str, st.SearchStrategy[Any]] = {
    "connection_id": st.text(min_size=1, max_size=12),
    "request_ts": _TS,
    "match_ts": _TS,
    "rank": st.integers(0, 1023),
    "src_rank": st.integers(0, 1023),
    "response": _RESPONSE,
    "answer": _ANSWER,
    "region": st.builds(RectRegion, _CORNER, _CORNER),
    "data": st.one_of(st.none(), st.builds(np.zeros, st.integers(0, 4))),
    "nbytes": st.integers(0, 2**40),
    "trace": st.one_of(
        st.none(), st.builds(TraceContext, st.integers(0, 2**62), st.integers(0, 2**62))
    ),
}
_SEQ = st.integers(1, 2**62)


def _fields(cls: type) -> st.SearchStrategy[dict[str, Any]]:
    return st.fixed_dictionaries({f: FIELDS[f] for f in cls._fields if f != "seq"})


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
class TestEachMessage:
    @given(data=st.data(), seq=_SEQ)
    @settings(max_examples=40, deadline=None)
    def test_the_construction_stamp_replaces_only_the_seq(self, cls, data, seq):
        values = data.draw(_fields(cls))
        unstamped = cls(**values)
        # How a sender builds it: every field in order, the seq in place.
        stamped = cls(*(seq if f == "seq" else values[f] for f in cls._fields))
        assert type(stamped) is cls
        assert unstamped.seq == -1 and stamped.seq == seq
        for f in cls._fields:
            if f != "seq":
                assert getattr(stamped, f) is values[f] is getattr(unstamped, f)

    @given(data=st.data(), seq=_SEQ)
    @settings(max_examples=20, deadline=None)
    def test_no_field_can_be_assigned(self, cls, data, seq):
        msg = cls(**data.draw(_fields(cls)), seq=seq)
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(msg, f, getattr(msg, f))
        with pytest.raises(AttributeError):
            msg.extra = 1  # no ``__dict__`` to grow either
        assert msg.seq == seq


#: Kinds whose fields have the same names and types: equal as tuples.
LOOKALIKES = (
    (wire.FwdRequest, wire.ReqToExpRep),
    (wire.AnswerToProc, wire.BuddyMsg),
    (wire.AnswerToProc, wire.AnswerToImpRep),
)

CONFIG = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"
CID = "E.d->I.d"


def _idle_run() -> Any:
    """A started two-program DES run whose mains do nothing."""

    def idle(ctx: Any) -> Any:
        yield from ()

    region = {"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))}
    cs = build_simulation(
        CONFIG,
        [repro.Program("E", main=idle, regions=region),
         repro.Program("I", main=idle, regions=region)],
        repro.RunOptions(),
    )
    cs.start()
    return cs


class TestKindsStayApart:
    @pytest.mark.parametrize("kinds", LOOKALIKES, ids=lambda k: f"{k[0].__name__}")
    def test_equal_fields_compare_equal_but_differ_in_kind(self, kinds):
        a, b = kinds
        fields = ((CID, FinalAnswer(4.0, MatchKind.MATCH, 3.5)) if "answer" in a._fields
                  else (CID, 4.0))
        assert a(*fields) == b(*fields)
        assert type(a(*fields)) is not type(b(*fields))

    def test_the_rep_refuses_a_process_kind(self):
        cs = _idle_run()
        prog = cs._programs["E"]
        with pytest.raises(FrameworkError, match="rep received unexpected message"):
            cs._rep_handle(prog, wire.FwdRequest(CID, 4.0, 1))
        cs._rep_handle(prog, wire.ReqToExpRep(CID, 4.0, 2))  # accepted

    def test_the_agent_refuses_a_rep_kind(self):
        cs = _idle_run()
        ctx = cs.context("E", 0)
        with pytest.raises(FrameworkError, match="agent received unexpected message"):
            cs._agent_handle(ctx, wire.ReqToExpRep(CID, 4.0, 1))
        cs._agent_handle(ctx, wire.FwdRequest(CID, 4.0, 2))  # accepted

    @pytest.mark.parametrize("lookalike", [wire.BuddyMsg, wire.AnswerToImpRep],
                             ids=lambda c: c.__name__)
    def test_an_import_waits_past_a_lookalike_answer(self, lookalike):
        cs = _idle_run()
        ctx = cs.context("I", 0)
        handle = ctx.import_begin("d", 4.0)
        answer = FinalAnswer(4.0, MatchKind.NO_MATCH)
        waiting = ctx._wait(handle, wire.AnswerToProc, 4.0)
        get_ev = next(waiting)

        def deliver(payload: Any) -> None:
            ctx._box.put_nowait(Delivery(("rep", "I"), ("cpl", "I", 0), payload, 64, 0.0, 0.0))

        deliver(lookalike(CID, answer, 7))
        assert not get_ev.triggered
        deliver(wire.AnswerToProc(CID, answer, 8))
        assert get_ev.triggered and type(get_ev.value.payload) is wire.AnswerToProc
        assert len(ctx._box) == 1  # the lookalike stays for its own receiver


def test_a_run_stamps_every_message_once_in_send_order(monkeypatch):
    """Every message on the wire of a DES run carries its own seq: 1, 2, …"""
    seqs: list[int] = []
    send = Network.send

    def spy(self: Network, src: Any, dst: Any, payload: Any, nbytes: int = 0) -> Any:
        seqs.append(payload.seq)
        return send(self, src, dst, payload, nbytes)

    monkeypatch.setattr(Network, "send", spy)
    b = build("demo")
    cs = build_simulation(b.config, list(b.programs), b.options)
    cs.run()
    assert len(seqs) == cs.world.network.messages_sent > 0
    assert seqs == list(range(1, len(seqs) + 1))
