"""Differential tests: the transition table against plain ``apply``, and
the incremental digest against whole-state hashing.

``ModelMachine.step`` runs ``apply`` once per distinct local input and
returns the stored effect every later time, with the digest change
stored with it; the explorer builds the child of an effect only when it
is not already covered.  Patched back to ``apply`` on a child
plus a digest of the whole state before and after, the checker runs the
protocol code and hashes every state from scratch on every transition,
through the same seam for hits and misses.  Both sides explore the fast
suite's three worlds and every world of the three mutation suites; they
must reach the same states by the same parents and report the same
statistics, rule hits and counterexamples — equal visited maps mean the
incremental digest of every reached state is the from-scratch one.
The plain side also asserts, on every state it reaches, the invariant
that lets the table key a send on its link alone (seen within in
flight) and that every component is the interned object for its bytes,
which the table's identity keys rely on.

The digest this one replaced, BLAKE2b-128 over the concatenated bytes of
the whole state, is kept below as an oracle: on the clean and buddy
worlds the two must split the visited states into the same classes.
"""

import contextlib
import hashlib
import marshal

import pytest

from repro.analysis.model import (
    ModelConfig,
    ModelMachine,
    directed_worlds,
    mutation_config,
)
from repro.analysis.model.checker import _Explorer
from repro.analysis.model.machine import VIOLATION_ERRORS, clone_working
from tests.analysis.test_model import FAST_BASE

WORLDS = {
    f"{suite}/{name}": cfg
    for suite, base in [
        ("fast", FAST_BASE),
        ("no_dedup", mutation_config("no_dedup")),
        ("no_answer_cache", mutation_config("no_answer_cache")),
        ("no_must_send", mutation_config("no_must_send")),
    ]
    for name, cfg in directed_worlds(base)
}


def explore(cfg):
    """Everything one exhaustive exploration of *cfg* decides."""
    explorer = _Explorer(cfg, max_states=500_000, por=True)
    explorer.run()
    assert explorer.complete
    stats = {
        "states": len(explorer.visited),
        "transitions": explorer.transitions,
        "sleep_skips": explorer.sleep_skips,
        "revisits": explorer.revisits,
        "terminals": explorer.terminals,
        "max_depth": explorer.max_depth,
        "buddy_skips": sum(
            ctx.stats.buddy_skips for ctx in explorer.machine.driver.exporters
        ),
        "rule_hits": explorer.rule_hits,
    }
    return explorer.visited, explorer.parent, stats, explorer.counterexamples


#: What each world must find, so the comparison covers every rule a
#: mutation suite exists for (``no_dedup``'s M203 hits are raised
#: through stored violations); every other world finds nothing.
RULE_HITS = {
    "no_dedup/dup-rep": {"M203": 5_277},
    "no_answer_cache/drop-rep": {"M202": 16},
    "no_must_send/clean": {"M206": 8},
    "no_must_send/buddy": {"M206": 12},
}


def assert_seen_in_flight(w):
    """The seen-within-in-flight invariant (``analysis/model/machine.py``):
    every seq a component remembers rides the link from its sender into
    it.  ``step`` keys a send on that link alone because of it."""
    for name, comp in w.comps.items():
        for seq in comp.seen:
            flying = [m[-2] for m in w.chans[(seq[0], name)]]
            assert seq in flying, f"{name} remembers {seq}, not in flight to it"


def assert_interned(machine, w):
    """Every component of *w* is the one object for its type and its
    canonical bytes, encoded afresh (a stale cached ``enc`` fails too)."""
    for name, comp in w.comps.items():
        key = (type(comp), marshal.dumps(comp.canon(), 2))
        assert machine._interned.get(key) is comp, f"{name} is not interned"


def apply_from_scratch(machine, w, action):
    """``step`` without the table: ``apply`` on a child of *w*, interned
    as every reached state is, and an effect that replaces every slot,
    its digest change read off the whole state before and after.  Every
    state it reaches must keep the seen-within-in-flight invariant and
    hold interned components only."""
    child = clone_working(w)
    machine.apply(child, action)
    assert_seen_in_flight(child)
    comps = {name: machine._intern(comp) for name, comp in child.comps.items()}
    chans = {link: machine._intern_chan(chan) for link, chan in child.chans.items()}
    budgets = tuple((b, getattr(child, b)) for b in ("drop_left", "dup_left", "crash_left"))
    effect = (machine.digest(child) ^ machine.digest(w), comps, chans, budgets, None)
    assert_interned(machine, clone_working(w, effect))
    return effect


@pytest.mark.parametrize("world", list(WORLDS))
def test_table_explores_what_apply_explores(world, monkeypatch):
    visited, parent, stats, counterexamples = explore(WORLDS[world])
    assert stats["rule_hits"] == RULE_HITS.get(world, {})
    monkeypatch.setattr(ModelMachine, "step", apply_from_scratch)
    plain = explore(WORLDS[world])
    assert visited == plain[0]
    assert parent == plain[1]
    assert stats == plain[2]
    assert counterexamples == plain[3]


# ---------------------------------------------------------------------------
# the digest's partition against the concatenated-bytes digest it replaced
# ---------------------------------------------------------------------------

def concatenated_digest(w):
    """The former digest: BLAKE2b-128 over every component's canonical
    bytes, then the channels and the budgets, as one string."""
    parts = [comp.enc or ModelMachine._encode(comp) for comp in w.comps.values()]
    parts.append(
        marshal.dumps(
            (tuple(w.chans.values()), w.drop_left, w.dup_left, w.crash_left), 2
        )
    )
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


@pytest.mark.parametrize("world", ["clean", "buddy"])
def test_digest_partitions_states_as_the_concatenated_digest(world, monkeypatch):
    """Every state the DFS reaches, revisits included: old digest -> new
    digest is one-to-one, so the new rule neither merges nor splits a
    class of the old one."""
    pairs = set()
    step = ModelMachine.step

    def recording_step(machine, w, action):
        effect = step(machine, w, action)
        child = clone_working(w, effect)
        pairs.add((concatenated_digest(child), machine.digest(child)))
        return effect

    monkeypatch.setattr(ModelMachine, "step", recording_step)
    explorer = _Explorer(dict(directed_worlds())[world], 500_000, por=True)
    explorer.run()
    initial = explorer.machine.initial_working()
    pairs.add((concatenated_digest(initial), explorer.machine.digest(initial)))
    assert len({old for old, _ in pairs}) == len(pairs)
    assert len({new for _, new in pairs}) == len(pairs)
    assert len(pairs) == len(explorer.visited)


class TestDigestTraps:
    """What an XOR of per-entry or unsalted hashes would get wrong."""

    @pytest.fixture
    def machine(self):
        return ModelMachine(ModelConfig())

    def child(self, machine, w, *actions):
        w = clone_working(w)
        for action in actions:
            machine.apply(w, action)
        return w

    def test_components_swapped_between_slots_differ(self, machine):
        w = self.child(machine, machine.initial_working(), ("export", 0))
        swapped = clone_working(w)
        swapped.comps["E0"], swapped.comps["E1"] = w.comps["E1"], w.comps["E0"]
        assert machine.digest(swapped) != machine.digest(w)

    def test_an_entry_held_twice_does_not_cancel(self, machine):
        once = self.child(machine, machine.initial_working(), ("issue", 0))
        twice = self.child(machine, once, ("dup", "I0", "IR"))
        twice.dup_left = once.dup_left  # only the channel differs
        link = ("I0", "IR")
        assert twice.chans[link] == once.chans[link] * 2
        empty = clone_working(once)
        empty.chans[link] = ()
        digests = {machine.digest(w) for w in (once, twice, empty)}
        assert len(digests) == 3

    def test_a_budget_alone_differs(self, machine):
        w = machine.initial_working()
        spent = clone_working(w)
        spent.drop_left -= 1
        assert machine.digest(spent) != machine.digest(w)


class TestInternTraps:
    """What interning by ``==`` or keying on a component alone would get
    wrong: the table and the enabled-action cache key on object identity."""

    @pytest.fixture
    def machine(self):
        return ModelMachine(ModelConfig())

    def after(self, machine, *actions):
        w = machine.initial_working()
        for action in actions:
            w = clone_working(w, machine.step(w, action))
        return w

    def test_equal_channels_with_other_bytes_intern_and_key_apart(self, machine):
        w = self.after(machine, ("issue", 0))
        link = ("I0", "IR")
        (entry,) = w.chans[link]
        for a, b in ((4.0, 4), (0.0, -0.0)):
            chans = [machine._intern_chan(((entry[0], ts) + entry[2:],)) for ts in (a, b)]
            assert chans[0] == chans[1] and chans[0] is not chans[1]
            table = len(machine._effects)
            for chan in chans:
                child = clone_working(w)
                child.chans[link] = chan
                with contextlib.suppress(*VIOLATION_ERRORS):
                    machine.step(child, ("deliver", *link))
            assert len(machine._effects) == table + 2

    def test_equal_ranks_share_an_object_yet_enable_apart(self, machine):
        for _ in range(2):  # the second time reads the cached share
            w = machine.initial_working()
            assert w.comps["I0"] is w.comps["I1"]
            assert w.comps["E0"] is w.comps["E1"]
            actions = machine.enabled_actions(w)
            for r in (0, 1):
                for kind in ("issue", "export", "crash"):
                    assert actions.count((kind, r)) == 1

    def test_components_swapped_between_slots_key_apart(self, machine):
        w = self.after(machine, ("export", 0), ("export", 0))
        swapped = clone_working(w)
        swapped.comps["E0"], swapped.comps["E1"] = w.comps["E1"], w.comps["E0"]
        assert {("close", 0), ("export", 1)} <= set(machine.enabled_actions(w))
        assert {("export", 0), ("close", 1)} <= set(machine.enabled_actions(swapped))
        table = len(machine._effects)
        children = [clone_working(x, machine.step(x, ("crash", 0))) for x in (w, swapped)]
        assert len(machine._effects) == table + 2
        assert machine.digest(children[0]) != machine.digest(children[1])

    def test_a_shared_rank_verdict_names_its_slot(self, machine):
        """An M204 verdict is cached on the component, which interning
        may put in both exporter slots: the text names the slot checked."""
        w = machine.initial_working()
        rank = w.comps["E0"].thaw()
        rank.region.on_export(1.5, nbytes=8, memcpy_cost=1.0)
        rank.region.on_request(machine.cid, 4.0)  # no eviction runs after it
        w.comps["E0"] = w.comps["E1"] = rank
        assert machine.check_occupancy(w).startswith("E.p0: buffered object @1.5")
        w.comps["E0"] = machine.initial_working().comps["E0"]
        assert machine.check_occupancy(w).startswith("E.p1: buffered object @1.5")
