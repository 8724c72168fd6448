"""Differential tests: the transition table against plain ``apply``, and
the incremental digest against whole-state hashing.

``ModelMachine.step`` runs ``apply`` once per distinct local input,
installs the stored effect every later time and returns the digest
change stored with it.  Patched back to ``apply`` plus a digest of the
whole state before and after, the checker runs the protocol code and
hashes every state from scratch on every transition.  Both sides
explore the fast suite's three worlds and every world of the three
mutation suites; they must reach the same states by the same parents
and report the same statistics, rule hits and counterexamples — equal
visited maps mean the incremental digest of every reached state is the
from-scratch one.  The plain side also asserts, on every state it
reaches, the invariant that lets the table key a send on its link alone
(seen within in flight).

The digest this one replaced, BLAKE2b-128 over the concatenated bytes of
the whole state, is kept below as an oracle: on the clean and buddy
worlds the two must split the visited states into the same classes.
"""

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
from repro.analysis.model.machine import clone_working
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


def apply_from_scratch(machine, w, action):
    """``step`` without the table: ``apply``, and the digest change read
    off the whole state before and after.  Every state it reaches must
    keep the seen-within-in-flight invariant."""
    before = machine.digest(w)
    machine.apply(w, action)
    assert_seen_in_flight(w)
    return machine.digest(w) ^ before


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
        delta = step(machine, w, action)
        pairs.add((concatenated_digest(w), machine.digest(w)))
        return delta

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
