"""Exhaustive exploration of the control-plane model (M2xx rules).

The checker enumerates every reachable state of a
:class:`~repro.analysis.model.machine.ModelMachine` under all message
interleavings and fault actions within the configured budgets, and
checks six invariants:

=========  ==============================================================
``M201``   no deadlock: a quiescent state with an unresolved import and
           no fault injected is a protocol bug
``M202``   no retransmission livelock: retransmissions must actually
           recover — budget exhaustion with the import still unresolved
           means every re-drive returned to an equivalent stuck state
``M203``   rep aggregation always lands in one of the five legal cases:
           any :class:`ProtocolError` / :class:`PropertyViolationError`
           raised by the real state machines is an illegal transition
``M204``   buffer-ledger occupancy never exceeds the Eq. 1-2 window
           bound (checked structurally on every reached state)
``M205``   every PENDING import eventually resolves (quiescence with a
           PENDING import after faults the protocol claims to absorb)
``M206``   no export skipped or evicted on any schedule is later the
           match: at every terminal state each live exporter rank has
           transferred every MATCH answer it holds
=========  ==============================================================

States are copy-on-write per component and hashed with BLAKE2b-128 over
the components' cached canonical bytes (:meth:`ModelMachine.digest`), so
the visited set stores 16-byte digests, not object graphs, and a
transition re-encodes only what it wrote.  The search is a depth-first
walk with **sleep sets**
(Godefroid): after exploring action *a* from a state, every previously
explored action independent of *a* is put to sleep in *a*'s successor —
permutations of commuting actions are walked once instead of ``n!``
times.  Sleep sets alone never prune *states* (every reachable state is
still visited, so the distinct-state count and the invariant coverage
stay exact); they only prune redundant transitions.  Independence is
footprint disjointness (:meth:`ModelMachine.footprint`), and revisiting
a state with a strictly smaller sleep set re-expands it with the
intersection, preserving completeness under state caching.

Each violation is reported once per rule as an ERROR
:class:`~repro.analysis.report.Finding`, paired with a deterministic
counterexample schedule (the action path from the initial state) that
:mod:`repro.analysis.model.replay` re-executes with causal tracing on
as a ``repro.causal/v1`` DAG.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import Any

from repro.analysis.model.machine import (
    VIOLATION_ERRORS,
    Action,
    ModelConfig,
    ModelMachine,
    _Working,
    clone_working,
)
from repro.analysis.report import Finding, Report, Severity

__all__ = [
    "SCHEMA",
    "CheckResult",
    "SuiteResult",
    "check",
    "check_suite",
    "directed_worlds",
    "RULE_PAPER",
]

#: JSON schema stamped into verify payloads and counterexample schedules.
SCHEMA = "repro.verify/v1"

#: Paper citation per M-rule (used in findings).
RULE_PAPER = {
    "M201": "§3.1 (seven-message protocol)",
    "M202": "§3.1 (request re-drive)",
    "M203": "§4 (five legal cases)",
    "M204": "§4.1, Eq. 1-2",
    "M205": "§4 (Property 1)",
    "M206": "§4.1 (skip rule)",
}

@dataclass
class CheckResult:
    """Outcome of one exhaustive model check."""

    config: ModelConfig
    report: Report
    #: One schedule per reported finding, index-aligned with
    #: ``report.findings``; each replays via ``model.replay``.
    counterexamples: list[dict[str, Any]]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when exploration finished with zero findings."""
        return not self.report.findings

    def to_payload(self) -> dict[str, Any]:
        """The ``repro.verify/v1`` JSON payload for this check."""
        return {
            "schema": SCHEMA,
            "mode": "model",
            "config": self.config.describe(),
            "stats": dict(self.stats),
            "report": self.report.to_dict(),
            "counterexamples": list(self.counterexamples),
        }


@dataclass(slots=True)
class _Frame:
    """One DFS stack entry: a state, the enabled actions not tried from
    it yet and the ones asleep there (its sleep set, plus every action
    already explored from it)."""

    w: _Working
    digest: bytes
    todo: Iterator[Action]
    asleep: set[Action]


class _Explorer:
    def __init__(self, config: ModelConfig, max_states: int, por: bool) -> None:
        self.machine = ModelMachine(config)
        self.config = config
        self.max_states = max_states
        #: action -> every action of the world independent of it (disjoint
        #: footprints); nothing is independent when reduction is off.
        footprints = self.machine.footprints
        self.independent: dict[Action, frozenset[Action]] = {
            a: frozenset(
                b for b, fb in footprints.items() if por and fa.isdisjoint(fb)
            )
            for a, fa in footprints.items()
        }
        self.visited: dict[bytes, frozenset[Action]] = {}
        self.parent: dict[bytes, tuple[bytes, Action]] = {}
        self.report = Report()
        self.counterexamples: list[dict[str, Any]] = []
        self.rule_hits: dict[str, int] = {}
        self.transitions = 0
        self.sleep_skips = 0
        self.revisits = 0
        self.terminals = 0
        self.max_depth = 0
        self.complete = True

    # -- helpers ------------------------------------------------------------
    def _path_to(self, digest: bytes, extra: Action | None) -> list[Action]:
        actions: list[Action] = [] if extra is None else [extra]
        cur = digest
        while cur in self.parent:
            cur, act = self.parent[cur]
            actions.append(act)
        actions.reverse()
        return actions

    def _record(
        self, rule: str, message: str, digest: bytes, extra: Action | None
    ) -> None:
        self.rule_hits[rule] = self.rule_hits.get(rule, 0) + 1
        if self.rule_hits[rule] > 1:
            return  # one counterexample per rule; later hits only counted
        self.report.add(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                paper=RULE_PAPER[rule],
                connection=self.machine.cid,
            )
        )
        actions = self._path_to(digest, extra)
        self.counterexamples.append(
            {
                "schema": SCHEMA,
                "kind": "counterexample",
                "rule": rule,
                "message": message,
                "config": self.config.describe(),
                "actions": [list(a) for a in actions],
            }
        )

    def _inspect(
        self, w: _Working, actions: list[Action], digest: bytes
    ) -> None:
        """Invariant checks on a newly reached state."""
        occupancy = self.machine.check_occupancy(w)
        if occupancy is not None:
            self._record("M204", occupancy, digest, None)
        if not actions:
            self.terminals += 1
            for rule, message in self.machine.classify_terminal(w):
                self._record(rule, message, digest, None)

    # -- main loop ----------------------------------------------------------
    def run(self) -> None:
        machine = self.machine
        visited = self.visited
        independent = self.independent
        sleeps: dict[frozenset[Action], frozenset[Action]] = {}
        w = machine.initial_working()
        digest = machine.digest(w)
        actions = machine.enabled_actions(w)
        visited[digest] = frozenset()
        self._inspect(w, actions, digest)
        if self.max_states <= 1:
            self.complete = False
            return
        stack = [_Frame(w, digest, iter(actions), set())]
        while stack:
            if len(stack) > self.max_depth:
                self.max_depth = len(stack)
            frame = stack[-1]
            asleep = frame.asleep
            for action in frame.todo:
                if action in asleep:
                    self.sleep_skips += 1
                    continue
                # Godefroid: what slept or was explored here and commutes
                # with *action* sleeps in its successor.  (One object per
                # distinct set: the visited map holds a few hundred, not one
                # per state.)
                child_sleep = independent[action] & asleep
                child_sleep = sleeps.setdefault(child_sleep, child_sleep)
                asleep.add(action)
                w = clone_working(frame.w)
                self.transitions += 1
                try:
                    machine.apply(w, action)
                except VIOLATION_ERRORS as exc:
                    self._record(
                        "M203",
                        f"illegal transition {self._label(action)}: {exc}",
                        frame.digest,
                        action,
                    )
                    continue
                digest = machine.digest(w)
                stored = visited.get(digest)
                if stored is None:
                    visited[digest] = child_sleep
                    self.parent[digest] = (frame.digest, action)
                    actions = machine.enabled_actions(w)
                    self._inspect(w, actions, digest)
                    if len(visited) >= self.max_states:
                        self.complete = False
                        return
                elif stored <= child_sleep:
                    continue
                else:
                    # Revisit with new wake-ups: re-expand under the
                    # intersection so no interleaving is lost to caching.
                    merged = stored & child_sleep
                    visited[digest] = child_sleep = sleeps.setdefault(merged, merged)
                    self.revisits += 1
                    actions = machine.enabled_actions(w)
                if actions:
                    stack.append(_Frame(w, digest, iter(actions), set(child_sleep)))
                    break
            else:
                stack.pop()

    @staticmethod
    def _label(action: Action) -> str:
        return "(" + " ".join(str(p) for p in action) + ")"


def check(
    config: ModelConfig | None = None,
    *,
    max_states: int = 500_000,
    por: bool = True,
) -> CheckResult:
    """Exhaustively model-check *config* (default: the bounded 2x2 world).

    Parameters
    ----------
    config:
        The bounded world to explore; defaults to :class:`ModelConfig`'s
        acceptance configuration (2 importer x 2 exporter ranks).
    max_states:
        Safety valve: stop (and mark the result incomplete) after this
        many distinct states.
    por:
        Disable to explore without sleep-set reduction — same states,
        same findings, more transitions (the benchmark baseline).
    """
    cfg = config if config is not None else ModelConfig()
    explorer = _Explorer(cfg, max_states, por)
    t0 = time.perf_counter()
    explorer.run()
    elapsed = time.perf_counter() - t0
    states = len(explorer.visited)
    explorer.report.examined = states
    stats: dict[str, Any] = {
        "states": states,
        "transitions": explorer.transitions,
        "terminals": explorer.terminals,
        "sleep_skips": explorer.sleep_skips,
        "revisits": explorer.revisits,
        "max_depth": explorer.max_depth,
        # Explored exports skipped only because of a buddy answer.
        "buddy_skips": sum(
            ctx.stats.buddy_skips for ctx in explorer.machine.driver.exporters
        ),
        "por": por,
        "complete": explorer.complete,
        "elapsed_sec": elapsed,
        "states_per_sec": states / elapsed if elapsed > 0 else 0.0,
        "rule_hits": dict(sorted(explorer.rule_hits.items())),
    }
    return CheckResult(
        config=cfg,
        report=explorer.report,
        counterexamples=explorer.counterexamples,
        stats=stats,
    )


def directed_worlds(
    base: ModelConfig | None = None,
) -> list[tuple[str, ModelConfig]]:
    """The directed worlds a full verify run explores.

    One fault class per world — and for wire faults, one
    :data:`repro.faults.plan.FRAMEWORK_PLANES` plane per world — so that
    every world stays small enough to explore *exhaustively*.  Together
    the worlds cover every fault the base config budgets for; a world is
    omitted when its budget is zero (e.g. strict mode never drops).
    The last world, ``buddy``, is fault-free and directed at the
    buddy-help skip path instead (omitted without buddy-help).
    """
    cfg = base if base is not None else ModelConfig()
    worlds = [
        (
            "clean",
            replace(
                cfg,
                drop_budget=0,
                dup_budget=0,
                crash_budget=0,
                retransmit_budget=0,
            ),
        )
    ]
    if cfg.drop_budget:
        for plane in cfg.fault_planes:
            worlds.append(
                (
                    f"drop-{plane}",
                    replace(
                        cfg, dup_budget=0, crash_budget=0, fault_planes=(plane,)
                    ),
                )
            )
    if cfg.dup_budget:
        for plane in cfg.fault_planes:
            worlds.append(
                (
                    f"dup-{plane}",
                    replace(
                        cfg,
                        drop_budget=0,
                        crash_budget=0,
                        retransmit_budget=0,
                        fault_planes=(plane,),
                    ),
                )
            )
    if cfg.crash_budget:
        worlds.append(
            (
                "crash",
                replace(
                    cfg, drop_budget=0, dup_budget=0, retransmit_budget=0
                ),
            )
        )
    if cfg.buddy_help and cfg.requests:
        # The clean world again, with two exports strictly inside the
        # first request's acceptable region: a rank that hears the answer
        # early meets the first of them below a threshold only the buddy
        # answer raised, and skips an object *inside* the region (what a
        # rank skips on a buddy answer elsewhere lies below it).
        low, high = cfg.connection_spec().policy.region(cfg.requests[0])
        inside = (low + 0.2 * (high - low), low + 0.6 * (high - low))
        if low < inside[0] < inside[1] < high:
            exports = tuple(ts for ts in cfg.exports if ts < low) + inside
            worlds.append(("buddy", replace(worlds[0][1], exports=exports)))
    return worlds


@dataclass
class SuiteResult:
    """Aggregated outcome of a directed-world verify suite."""

    worlds: list[tuple[str, CheckResult]]
    report: Report
    #: Index-aligned with ``report.findings``; each carries a ``world``
    #: key naming the directed world it was found in.
    counterexamples: list[dict[str, Any]]

    @property
    def clean(self) -> bool:
        """True when every world finished with zero findings."""
        return not self.report.findings

    @property
    def complete(self) -> bool:
        """True when every world was explored exhaustively."""
        return all(r.stats["complete"] for _, r in self.worlds)

    @property
    def total_states(self) -> int:
        """Distinct states summed over the directed worlds."""
        return sum(r.stats["states"] for _, r in self.worlds)

    def to_payload(self) -> dict[str, Any]:
        """The ``repro.verify/v1`` JSON payload for the whole suite."""
        return {
            "schema": SCHEMA,
            "mode": "model-suite",
            "stats": {
                "worlds": len(self.worlds),
                "states": self.total_states,
                "transitions": sum(
                    r.stats["transitions"] for _, r in self.worlds
                ),
                "complete": self.complete,
                "elapsed_sec": sum(
                    r.stats["elapsed_sec"] for _, r in self.worlds
                ),
            },
            "worlds": [
                {
                    "name": name,
                    "config": r.config.describe(),
                    "stats": dict(r.stats),
                }
                for name, r in self.worlds
            ],
            "report": self.report.to_dict(),
            "counterexamples": list(self.counterexamples),
        }


def check_suite(
    base: ModelConfig | None = None,
    *,
    max_states: int = 500_000,
    por: bool = True,
) -> SuiteResult:
    """Run :func:`check` over every directed world of *base*.

    Findings are deduplicated per rule across worlds (the first world
    that exhibits a rule contributes the finding and its replayable
    counterexample; later hits only bump that world's ``rule_hits``).
    """
    results: list[tuple[str, CheckResult]] = []
    merged = Report()
    counterexamples: list[dict[str, Any]] = []
    seen_rules: set[str] = set()
    for name, cfg in directed_worlds(base):
        result = check(cfg, max_states=max_states, por=por)
        results.append((name, result))
        for finding, cex in zip(result.report.findings, result.counterexamples):
            if finding.rule in seen_rules:
                continue
            seen_rules.add(finding.rule)
            merged.add(finding)
            counterexamples.append({**cex, "world": name})
    merged.examined = sum(r.stats["states"] for _, r in results)
    return SuiteResult(
        worlds=results, report=merged, counterexamples=counterexamples
    )
