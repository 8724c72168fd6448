"""Every announced event has the shape its kind declares.

A site builds its :class:`~repro.core.spine.ProtocolEvent` positionally,
all twelve fields in declaration order, so a slip there (a rank where
the region goes, the cause in the values) is not a type error.  A
byte-identical provenance log catches one only on the kinds a log
records; this test catches it on every kind.  A fold added to the spine
captures each event of four runs — ``demo`` with buddy-help, the
seed-5 chaos ``demo`` (its duplicates and retransmissions), ``fig3a``
and a live-runtime ``demo`` — and each event is held against the roles
of its fields and the fields its kind sets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Any

import pytest

import repro
from repro.core import spine
from repro.core.spine import KINDS, ProtocolEvent
from repro.faults.plan import FaultPlan
from repro.obs.trace import TraceContext
from repro.scenarios import build

#: The seed-5 chaos plan of the provenance ``cmp`` checks.
CHAOS = {"seed": 5, "drop": 0.1, "dup": 0.05, "delay_jitter": 2e-4}

#: The optional fields (between ``time`` and ``values``) each kind sets;
#: every other one is ``None``.  ``cause`` is the incoming message's
#: context: set on a kind that reacts to a traced message, ``None``
#: elsewhere.
SETS: dict[str, frozenset[str]] = {
    kind: frozenset(fields.split())
    for kind, fields in {
        spine.EXPORT: "program rank region ts decision",
        spine.EXPORT_SEND: "cid rank ts",
        spine.EVICT: "rank ts decision",
        spine.REQUEST_RECV: "cid request rank cause",
        spine.MATCH: "cid request rank decision",
        spine.BUDDY_RECV: "cid request rank decision cause",
        spine.BUDDY_SKIP: "cid request rank ts",
        spine.RESPONSE_RECV: "cid request rank decision cause",
        spine.FINALIZE: "cid request decision cause",
        spine.BUDDY_SEND: "cid request rank decision cause",
        spine.FAN_OUT: "cid request rank cause",
        spine.REP_FORWARD: "cid request cause",
        spine.ANSWER_RECV: "cid request decision cause",
        spine.DELIVER: "cid request rank decision cause",
        spine.IMPORT_REQUEST: "cid request program rank region",
        spine.RETRANSMIT: "cid request rank",
        spine.ANSWERED: "cid request rank decision cause",
        # ``ts`` is the matched export's: None after a NO_MATCH answer.
        spine.IMPORT_COMPLETE: "cid request rank ts decision",
        spine.IMPORT_WAIT: "cid request program rank region",
        spine.COMPUTE: "program rank",
        spine.COMPUTE_ELEMENTS: "program rank",
        spine.DUP_DISCARD: "",
    }.items()
}
#: Fields a kind may leave ``None``.
MAYBE = {spine.IMPORT_COMPLETE: {"ts"}}
#: How many values each kind carries (``finalize``: none on a cached
#: re-answer, else its case and finalizing rank).
VALUES = {
    spine.EXPORT: {1}, spine.BUDDY_SKIP: {1}, spine.FINALIZE: {0, 2},
    spine.RETRANSMIT: {2}, spine.IMPORT_COMPLETE: {1}, spine.COMPUTE: {1},
    spine.COMPUTE_ELEMENTS: {2}, spine.DUP_DISCARD: {2},
}
OPTIONAL = ("cid", "request", "program", "rank", "region", "ts", "decision", "cause")


def _capture(monkeypatch) -> list[ProtocolEvent]:
    """Every event announced by runs started from here on, in order."""
    events: list[ProtocolEvent] = []
    subscribe = spine.subscribe

    class Capture(spine.Fold):
        def handlers(self) -> dict[str, spine.Handler]:
            return {kind: events.append for kind in KINDS}

    def capturing(*args: Any) -> tuple[tuple[spine.Fold, ...], dict[str, spine.Handler]]:
        folds, table = subscribe(*args)
        capture = Capture().handlers()
        both = {kind: spine._fan_out([table[kind], capture[kind]]) for kind in KINDS}
        return (*folds, Capture()), both

    monkeypatch.setattr(spine, "subscribe", capturing)
    return events


def _returned(value: Any) -> Any:
    return value
    yield  # pragma: no cover - makes this a generator


class _Blocking:
    """A live context as a DES ``main`` sees one: a call's value comes
    back from a generator that yields nothing."""

    def __init__(self, ctx: Any) -> None:
        self._ctx = ctx

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._ctx, name)
        if not callable(attr):
            return attr
        return lambda *args, **kwargs: _returned(attr(*args, **kwargs))


def _live_demo() -> Any:
    """The ``demo`` scenario's programs on the live runtime."""
    b = build("demo", {"exports": 40})
    programs = [
        replace(p, main=lambda ctx, main=p.main: [None for _ in main(_Blocking(ctx))])
        for p in b.programs
    ]
    options = replace(b.options, runtime="live", time_scale=0.01, causal_trace=True)
    return repro.run(b.config, programs, options)


#: The four runs: each builds and runs one scenario.
CASES = {
    "demo": lambda: build("demo", {"buddy_help": True}).run(causal_trace=True),
    "chaos": lambda: build("demo", {"seed": 5}).run(
        causal_trace=True, fault_plan=FaultPlan.from_dict(CHAOS)
    ),
    "fig3a": lambda: build("fig3a").run(causal_trace=True),
    "live": _live_demo,
}


@pytest.fixture(scope="module")
def runs() -> dict[str, tuple[list[ProtocolEvent], dict[str, int]]]:
    """Per run, its events and each program's process count."""
    out = {}
    for name, run in CASES.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            events = _capture(monkeypatch)
            result = run()
        nprocs = {prog: p.nprocs for prog, p in result.simulation._programs.items()}
        out[name] = (events, nprocs)
    return out


def _problems(ev: Any, nprocs: dict[str, int]) -> list[str]:
    out = []
    if type(ev) is not ProtocolEvent or len(ev) != 12:
        return [f"not a 12-field ProtocolEvent: {ev!r}"]
    if ev.kind not in KINDS:
        return [f"unknown kind {ev.kind!r}"]
    if not isinstance(ev.who, str) or type(ev.time) is not float:
        out.append("who must be a str and time a float")
    base, _, role = ev.who.partition(".")
    if base not in nprocs:
        out.append(f"who {ev.who!r} names no program")
    if ev.program is not None and ev.program != base:
        out.append(f"program {ev.program!r} is not who's")
    if ev.rank is not None:
        if role == "rep":  # a rep's rank is one of its own program's ranks
            if not 0 <= ev.rank < nprocs.get(base, 0):
                out.append(f"rank {ev.rank!r} is not one of {base}'s")
        elif role.split(".")[0] != f"p{ev.rank}":
            out.append(f"rank {ev.rank!r} is not who's")
    for name in ("request", "ts"):
        value = getattr(ev, name)
        if value is not None and not isinstance(value, float):
            out.append(f"{name} {value!r} is not a float")
    if type(ev.values) is not tuple or len(ev.values) not in VALUES.get(ev.kind, {0}):
        out.append(f"values {ev.values!r} do not fit the kind")
    if ev.cause is not None and type(ev.cause) is not TraceContext:
        out.append(f"cause {ev.cause!r} is not a TraceContext")
    if ev.cid is not None and not isinstance(ev.cid, str):
        out.append(f"cid {ev.cid!r} is not a connection id")
    if ev.region is not None and not isinstance(ev.region, str):
        out.append(f"region {ev.region!r} is not a region name")
    set_ = {name for name in OPTIONAL if getattr(ev, name) is not None}
    must = SETS[ev.kind] - MAYBE.get(ev.kind, set()) - {"cause"}
    if not must <= set_ or not set_ <= SETS[ev.kind]:
        out.append(f"sets {sorted(set_)}, its kind {sorted(SETS[ev.kind])}")
    return out


class TestEventShape:
    def test_every_kind_has_a_declared_shape(self):
        assert set(SETS) == set(KINDS)

    @pytest.mark.parametrize("name", list(CASES))
    def test_every_event_fits_its_kind(self, runs, name):
        events, nprocs = runs[name]
        assert events
        bad = defaultdict(list)
        for ev in events:
            for problem in _problems(ev, nprocs):
                bad[ev.kind].append(problem)
        assert not bad, {kind: problems[:3] for kind, problems in bad.items()}

    def test_the_runs_cover_the_fault_and_buddy_kinds(self, runs):
        kinds = {name: {ev.kind for ev in events} for name, (events, _) in runs.items()}
        assert kinds["chaos"] >= {spine.DUP_DISCARD, spine.RETRANSMIT}
        assert kinds["demo"] >= {spine.BUDDY_SEND, spine.BUDDY_RECV, spine.BUDDY_SKIP}
        assert kinds["live"] >= {spine.EXPORT, spine.MATCH, spine.DELIVER}
        # Only the grid-point compute is none of the four runs' (fig4's).
        assert set(KINDS) - set().union(*kinds.values()) <= {spine.COMPUTE_ELEMENTS}

    def test_a_swapped_field_is_caught(self):
        """A mutation check on the checker itself: a rank and a region
        swapped, a cause in the values, a ts where the request goes."""
        good = spine.new_event((
            spine.IMPORT_REQUEST, "U.p1", 1.0, "c0", 20.0, "U", 1, "d", None, None, (), None,
        ))
        nprocs = {"U": 2, "F": 2}
        assert _problems(good, nprocs) == []
        for bad in (
            good._replace(rank="d", region=1),
            good._replace(values=(TraceContext(0, 1),)),
            good._replace(ts=20.0),
            good._replace(rank=0),
            good._replace(program="F"),
        ):
            assert _problems(bad, nprocs), bad
