"""Exhaustive exploration of the control-plane model (M2xx rules).

The checker enumerates every reachable state of a
:class:`~repro.analysis.model.machine.ModelMachine` under all message
interleavings and fault actions within the configured budgets, and
checks five invariants:

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
=========  ==============================================================

States are canonicalized (:meth:`ModelMachine.encode`) and hashed with
BLAKE2b-128 so the visited set stores 16-byte digests, not object
graphs.  The search is a depth-first walk with **sleep sets**
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

import hashlib
import io
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro.analysis.model.machine import (
    VIOLATION_ERRORS,
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
}

Action = tuple[Any, ...]


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


def _digest(canon: tuple[Any, ...]) -> bytes:
    """16-byte stable digest of a canonical state.

    The pickler runs with the memo disabled (``fast`` mode): default
    pickling emits back-references for *shared* sub-objects, so two
    equal canonical states could serialize differently depending on
    object identity (e.g. a wire-level ``dup`` puts the same message
    tuple in a channel twice, while the decoded twin holds two distinct
    equal tuples).  Canonical states are acyclic nested tuples, so
    disabling the memo is safe and makes the digest a function of
    *value* only.
    """
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True  # value-deterministic: no identity-based memo refs
    pickler.dump(canon)
    return hashlib.blake2b(buf.getvalue(), digest_size=16).digest()


@dataclass
class _Frame:
    """One DFS stack entry (children are generated lazily).

    Frames keep their materialized working state so expanding a child is
    one :func:`clone_working` call.
    """

    w: _Working
    digest: bytes
    actions: list[Action]
    sleep: frozenset[Action]
    idx: int = 0
    done: list[Action] = field(default_factory=list)


class _Explorer:
    def __init__(
        self,
        config: ModelConfig,
        max_states: int,
        por: bool,
        max_schedule_actions: int,
    ) -> None:
        self.machine = ModelMachine(config)
        self.config = config
        self.max_states = max_states
        self.por = por
        self.max_schedule_actions = max_schedule_actions
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
        self._footprints: dict[Action, frozenset[Any]] = {}

    # -- helpers ------------------------------------------------------------
    def _footprint(self, a: Action) -> frozenset[Any]:
        fp = self._footprints.get(a)
        if fp is None:
            fp = self.machine.footprint(a)
            self._footprints[a] = fp
        return fp

    def _independent(self, a: Action, b: Action) -> bool:
        return not (self._footprint(a) & self._footprint(b))

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
            terminal = self.machine.classify_terminal(w)
            if terminal is not None:
                self._record(terminal[0], terminal[1], digest, None)

    # -- main loop ----------------------------------------------------------
    def run(self) -> None:
        machine = self.machine
        init_w = machine.initial_working()
        init_canon = machine.encode(init_w)
        init_digest = _digest(init_canon)
        init_actions = machine.enabled_actions(init_w)
        self.visited[init_digest] = frozenset()
        self._inspect(init_w, init_actions, init_digest)
        stack = [
            _Frame(
                w=init_w,
                digest=init_digest,
                actions=init_actions,
                sleep=frozenset(),
            )
        ]
        while stack:
            if len(self.visited) >= self.max_states:
                self.complete = False
                break
            self.max_depth = max(self.max_depth, len(stack))
            frame = stack[-1]
            if frame.idx >= len(frame.actions):
                stack.pop()
                continue
            action = frame.actions[frame.idx]
            frame.idx += 1
            if self.por and action in frame.sleep:
                self.sleep_skips += 1
                continue
            w = clone_working(frame.w)
            self.transitions += 1
            try:
                machine.apply(w, action)
            except VIOLATION_ERRORS as exc:
                frame.done.append(action)
                self._record(
                    "M203",
                    f"illegal transition {self._label(action)}: {exc}",
                    frame.digest,
                    action,
                )
                continue
            child_canon = machine.encode(w)
            child_digest = _digest(child_canon)
            if self.por:
                inherited = [b for b in frame.sleep if b != action]
                inherited.extend(frame.done)
                child_sleep = frozenset(
                    b for b in inherited if self._independent(action, b)
                )
            else:
                child_sleep = frozenset()
            frame.done.append(action)
            stored = self.visited.get(child_digest)
            if stored is None:
                self.visited[child_digest] = child_sleep
                self.parent[child_digest] = (frame.digest, action)
                child_actions = machine.enabled_actions(w)
                self._inspect(w, child_actions, child_digest)
                if child_actions:
                    stack.append(
                        _Frame(
                            w=w,
                            digest=child_digest,
                            actions=child_actions,
                            sleep=child_sleep,
                        )
                    )
            elif self.por and not (stored <= child_sleep):
                # Revisit with new wake-ups: re-expand under the
                # intersection so no interleaving is lost to caching.
                merged = stored & child_sleep
                self.visited[child_digest] = merged
                self.revisits += 1
                child_actions = machine.enabled_actions(w)
                if child_actions:
                    stack.append(
                        _Frame(
                            w=w,
                            digest=child_digest,
                            actions=child_actions,
                            sleep=merged,
                        )
                    )

    @staticmethod
    def _label(action: Action) -> str:
        return "(" + " ".join(str(p) for p in action) + ")"


def check(
    config: ModelConfig | None = None,
    *,
    max_states: int = 500_000,
    por: bool = True,
    max_schedule_actions: int = 10_000,
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
    max_schedule_actions:
        Upper bound on counterexample schedule length (guards the
        parent-pointer walk against pathological depths).
    """
    cfg = config if config is not None else ModelConfig()
    explorer = _Explorer(cfg, max_states, por, max_schedule_actions)
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
