"""Differential test: the transition table against plain ``apply``.

``ModelMachine.step`` runs ``apply`` once per distinct local input and
installs the stored effect every later time.  Patched back to ``apply``,
the checker runs the protocol code on every transition, as it did
before the table existed.  Both sides explore the fast suite's three
worlds and every world of the three mutation suites; they must reach
the same states by the same parents and report the same statistics,
rule hits and counterexamples.
"""

import pytest

from repro.analysis.model import ModelMachine, directed_worlds, mutation_config
from repro.analysis.model.checker import _Explorer
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


@pytest.mark.parametrize("world", list(WORLDS))
def test_table_explores_what_apply_explores(world, monkeypatch):
    visited, parent, stats, counterexamples = explore(WORLDS[world])
    assert stats["rule_hits"] == RULE_HITS.get(world, {})
    monkeypatch.setattr(ModelMachine, "step", ModelMachine.apply)
    plain = explore(WORLDS[world])
    assert visited == plain[0]
    assert parent == plain[1]
    assert stats == plain[2]
    assert counterexamples == plain[3]
