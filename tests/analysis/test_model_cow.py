"""Differential test: copy-on-write model states against the former deep copy.

``clone_working`` shares every component with the parent state,
``ModelMachine.apply`` thaws the components the action's footprint
names, and ``ModelMachine.digest`` hashes per-component cached bytes.
The bodies they replaced — deep-copy the whole state for every
transition, re-encode all of it as one nested tuple, prune the dedup
memories a second time while encoding — are kept here as the reference
(the pattern of ``tests/core/test_eviction_oracle.py``).  Hypothesis
walks both down the same schedules, initial state to terminal, in five
worlds; after every action of every sibling on the way the canonical
forms must be equal, the parent untouched, the dedup memories inside
what is in flight and the cached M204 verdicts fresh.
"""

import marshal
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.model import ModelConfig, ModelMachine, directed_worlds
from repro.analysis.model.machine import (
    _enc_answer,
    _ExpRank,
    _ExpRepNode,
    _ImpRank,
    _ImpRepNode,
    _Working,
    clone_working,
)
from repro.core.buffers import BufferEntry
from repro.core.exporter import OpenRequest
from repro.core.rep import _ExpRequestState, _ImpRequestState

WORLDS = dict(directed_worlds())
WALKED = ("clean", "drop-rep", "dup-rep", "crash", "buddy")


# ---------------------------------------------------------------------------
# the oracle: the deep clone and the whole-state encode, as they were
# ---------------------------------------------------------------------------

def _clone_dictobj(obj):
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    return new


def _clone_region(region):
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
    new.connections = {}
    for cid, conn in region.connections.items():
        c = _clone_dictobj(conn)
        c.engine = _clone_dictobj(conn.engine)
        c.engine.history = hist
        c.open_requests = {
            ts: OpenRequest(r.ts, r.window, r.candidate_ts)
            for ts, r in conn.open_requests.items()
        }
        c.answers = dict(conn.answers)
        c.must_send = set(conn.must_send)
        c._buddy_raises = list(conn._buddy_raises)
        c.unconfirmed = dict(conn.unconfirmed)
        new.connections[cid] = c
    return new


def _clone_exp_state(st_):
    new = _ExpRequestState(request_ts=st_.request_ts)
    new.responses = dict(st_.responses)
    new.definitive_ranks = set(st_.definitive_ranks)
    new.finalized = st_.finalized
    new.finalized_case = st_.finalized_case
    new.finalizing_rank = st_.finalizing_rank
    return new


def deep_clone(w):
    """Copy *w* along its whole mutable spine: nothing written through
    the copy can reach *w*, and no cache comes along."""
    comps = {}
    for name, c in w.comps.items():
        if isinstance(c, _ImpRank):
            new = _ImpRank(
                c.retr_left, c.next_req, c.outstanding, dict(c.resolved),
                frozenset(c.seen),
            )
        elif isinstance(c, _ImpRepNode):
            rep = _clone_dictobj(c.rep)
            rep._requests = {
                cid: {
                    ts: _ImpRequestState(ts, set(s.waiting), set(s.asked), s.answer)
                    for ts, s in states.items()
                }
                for cid, states in c.rep._requests.items()
            }
            new = _ImpRepNode(rep, frozenset(c.seen))
        elif isinstance(c, _ExpRepNode):
            rep = _clone_dictobj(c.rep)
            rep._requests = {
                cid: {ts: _clone_exp_state(s) for ts, s in states.items()}
                for cid, states in c.rep._requests.items()
            }
            rep._last_request_ts = dict(c.rep._last_request_ts)
            rep.aggregate_cases = dict(c.rep.aggregate_cases)
            new = _ExpRepNode(rep, frozenset(c.seen))
        else:
            assert isinstance(c, _ExpRank)
            new = _ExpRank(
                _clone_region(c.region), c.pos, c.closed, c.crashed,
                frozenset(c.seen),
            )
        comps[name] = new
    chans = {k: tuple(v) for k, v in w.chans.items()}
    return _Working(comps, chans, w.drop_left, w.dup_left, w.crash_left)


def in_flight(w):
    """dst -> sequence numbers with a wire copy left toward it."""
    out = {}
    for (_src, dst), msgs in w.chans.items():
        if msgs:
            out.setdefault(dst, set()).update(m[-2] for m in msgs)
    return out


def encode(w):
    """Canonical nested-tuple form of the whole of *w*, dedup memories
    pruned to what is in flight while encoding."""
    live = in_flight(w)

    def pruned(dst):
        return tuple(sorted(w.comps[dst].seen & live.get(dst, set())))

    imp, exp = [], []
    for name, c in w.comps.items():
        if isinstance(c, _ImpRank):
            imp.append(
                (
                    c.next_req, c.outstanding, c.retr_left,
                    tuple(sorted(c.resolved.items())), pruned(name),
                )
            )
        elif isinstance(c, _ExpRank):
            conns = []
            for cid, conn in sorted(c.region.connections.items()):
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
                        tuple(
                            (ts, _enc_answer(a))
                            for ts, (_start, _high, a) in sorted(conn.unconfirmed.items())
                        ),
                    )
                )
            buf = tuple(
                (ts, entry.window, entry.sent)
                for ts, entry in sorted(c.region.buffer._entries.items())
            )
            exp.append(
                (
                    c.pos, c.closed, c.crashed, tuple(conns), buf,
                    tuple(sorted(c.region.buffer._sent_ts)), pruned(name),
                )
            )
    irep = tuple(
        (
            cid,
            tuple(
                (
                    ts,
                    tuple(sorted(s.waiting)),
                    tuple(sorted(s.asked)),
                    _enc_answer(s.answer),
                )
                for ts, s in sorted(states.items())
            ),
        )
        for cid, states in sorted(w.comps["IR"].rep._requests.items())
    )
    erep_obj = w.comps["ER"].rep
    erep = tuple(
        (
            cid,
            erep_obj._last_request_ts[cid],
            tuple(
                (
                    ts,
                    tuple(
                        (rank, r.kind.value, r.matched_ts, r.latest_export_ts)
                        for rank, r in sorted(s.responses.items())
                    ),
                    tuple(sorted(s.definitive_ranks)),
                    _enc_answer(s.finalized),
                    s.finalized_case,
                    s.finalizing_rank,
                )
                for ts, s in sorted(states.items())
            ),
        )
        for cid, states in sorted(erep_obj._requests.items())
    )
    chans = tuple((key, tuple(msgs)) for key, msgs in sorted(w.chans.items()) if msgs)
    return (
        tuple(imp), irep, pruned("IR"), erep, pruned("ER"), tuple(exp), chans,
        (w.drop_left, w.dup_left, w.crash_left),
    )


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def cached_form(machine, w):
    """The whole-state form of *w*, read back from the bytes its
    components cache (``digest`` fills them in)."""
    machine.digest(w)
    dec = {name: marshal.loads(c.enc) for name, c in w.comps.items()}
    chans = tuple((key, msgs) for key, msgs in sorted(w.chans.items()) if msgs)
    return (
        tuple(dec[name] for name in machine._imp_ids),
        *dec["IR"],
        *dec["ER"],
        tuple(dec[name] for name in machine._exp_ids),
        chans,
        (w.drop_left, w.dup_left, w.crash_left),
    )


def step(machine, parent, action):
    """Apply *action* to a copy-on-write child of *parent* and to a deep
    clone of it; returns the child after checking it against the oracle."""
    before = encode(parent)
    digest = machine.digest(parent)
    cached = {name: (c, c.enc) for name, c in parent.comps.items()}
    verdicts = {name: parent.comps[name].m204 for name in machine._exp_ids}

    reference = deep_clone(parent)
    machine.apply(reference, action)
    child = clone_working(parent)
    machine.apply(child, action)

    # (i) the cached per-component bytes say what the oracle says
    assert cached_form(machine, child) == encode(reference)
    assert machine.digest(child) == machine.digest(deep_clone(child))
    # (ii) nothing was written through a component the parent shares
    assert encode(parent) == before
    for name, (comp, enc) in cached.items():
        assert parent.comps[name] is comp and comp.enc == enc
        assert marshal.dumps(comp.canon(), 2) == enc, f"{name} changed under its cache"
    assert machine.digest(parent) == digest
    assert {n: parent.comps[n].m204 for n in machine._exp_ids} == verdicts
    # (iii) eager pruning keeps every dedup memory inside what is in flight
    live = in_flight(child)
    for name, comp in child.comps.items():
        assert comp.seen <= live.get(name, set()), f"{name} remembers a dead seq"
    # (iv) a cached M204 verdict is the one a fresh check gives
    assert machine.check_occupancy(child) == machine.check_occupancy(deep_clone(child))
    return child


def walk(machine, rng):
    """One schedule from the initial state to a terminal one, checking
    every sibling on the way (the DFS expands them all from one shared
    parent)."""
    w = machine.initial_working()
    while actions := machine.enabled_actions(w):
        w = rng.choice([step(machine, w, a) for a in actions])


@pytest.fixture(scope="module")
def machines():
    return {name: ModelMachine(WORLDS[name]) for name in WALKED}


@settings(max_examples=50, deadline=None)
@given(world=st.sampled_from(WALKED), rng=st.randoms(use_true_random=False))
def test_cow_states_match_the_deep_copy_oracle(machines, world, rng):
    walk(machines[world], rng)


class TestCanonicalFormCoversSentTs:
    """``was_sent`` outlives freeing, and M206 and the re-asked match's
    lookup read it: two exporter ranks that differ only in whether a
    freed timestamp was sent behave differently, so they must encode
    differently (or the checker merges them, and the transition table,
    which interns components by their bytes, swaps one for the other)."""

    def test_a_sent_timestamp_changes_the_bytes(self):
        machine = ModelMachine(WORLDS["clean"])
        unsent = machine.initial_working().comps["E0"]
        sent = unsent.thaw()
        sent.region.buffer._sent_ts.add(3.5)
        assert sent.region.buffer.was_sent(3.5)
        assert not unsent.region.buffer.was_sent(3.5)
        assert marshal.dumps(sent.canon(), 2) != marshal.dumps(unsent.canon(), 2)


#: One wire duplicate, then a drop of the copy left behind: the drop
#: must forget the seq the first delivery remembered.
DUP_THEN_DROP = [
    ("issue", 0),
    ("deliver", "I0", "IR"),
    ("dup", "IR", "ER"),
    ("deliver", "IR", "ER"),
    ("drop", "IR", "ER"),
]


def _run(machine, schedule):
    w = machine.initial_working()
    for action in schedule:
        assert action in machine.enabled_actions(w)
        w = step(machine, w, action)
    return w


class TestSeededAliasingDefect:
    """A drop's footprint does not name its receiver, so ``apply`` thaws
    it by hand before pruning its dedup memory.  Forget that, and the
    prune writes through the component the parent state still holds."""

    CONFIG = replace(ModelConfig(), crash_budget=0, fault_planes=("rep",))

    def test_the_schedule_prunes_a_remembered_seq(self):
        machine = ModelMachine(self.CONFIG)
        w = _run(machine, DUP_THEN_DROP[:-1])
        assert w.comps["ER"].seen == {("IR", 0)}
        w = _run(machine, DUP_THEN_DROP)
        assert w.comps["ER"].seen == frozenset()

    def test_a_forgotten_thaw_is_caught(self):
        machine = ModelMachine(self.CONFIG)
        real_apply = ModelMachine.apply

        def apply_without_thawing_on_drop(self, w, action):
            if action[0] != "drop":
                return real_apply(self, w, action)
            with mock.patch.object(_Working, "thaw", lambda w, name: w.comps[name]):
                return real_apply(self, w, action)

        with mock.patch.object(ModelMachine, "apply", apply_without_thawing_on_drop):
            with pytest.raises(AssertionError):
                _run(machine, DUP_THEN_DROP)
