"""Replay model-checker counterexamples as causal DAGs.

A counterexample is a ``repro.verify/v1`` schedule: the exact action
path the explorer took from the initial state to the violation, plus
the :class:`~repro.analysis.model.machine.ModelConfig` it was found
under.  Replaying applies the same actions to a fresh
:class:`~repro.analysis.model.machine.ModelMachine` whose driver has a
:class:`~repro.obs.trace.CausalLog` switched on, so every span comes
from the :class:`~repro.core.protocol.ProtocolDriver` code that
records it in a DES or threaded run — a violation renders as a
``repro.causal/v1`` happens-before DAG (a clickable trace), not a
state dump.

Replay is deterministic: the schedule fixes the interleaving, the
schedule position is the clock, and :class:`CausalLog` allocates span
and trace ids in record order — two replays of the same schedule
produce byte-identical DAG exports (asserted by the determinism tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.model.checker import SCHEMA
from repro.analysis.model.machine import (
    VIOLATION_ERRORS,
    ModelConfig,
    ModelMachine,
)
from repro.obs.trace import CausalLog, CausalReport, build_causal_report
from repro.util.validation import require

__all__ = ["ReplayResult", "replay_schedule"]


def _actions_from(schedule: dict[str, Any]) -> list[tuple[Any, ...]]:
    """Validate a schedule payload and extract its action list."""
    require(
        schedule.get("schema") == SCHEMA,
        f"not a {SCHEMA} schedule: schema={schedule.get('schema')!r}",
    )
    require(
        schedule.get("kind") == "counterexample",
        f"not a counterexample schedule: kind={schedule.get('kind')!r}",
    )
    actions = schedule.get("actions")
    require(isinstance(actions, list) and len(actions) > 0, "empty schedule")
    assert isinstance(actions, list)
    return [tuple(a) for a in actions]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one counterexample schedule."""

    #: The rule the schedule claims to demonstrate.
    rule: str
    #: Causal DAG of the replayed run (``repro.causal/v1``).
    report: CausalReport
    #: The violation the replay reproduced (exception text for M203,
    #: ``None`` for terminal-state rules, whose evidence is the DAG
    #: ending without a resolution).
    error: str | None
    #: Actions actually executed (equals the schedule for terminal
    #: rules; for M203 the final action is the one that raised).
    executed: int

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready form: the DAG plus replay metadata."""
        return {
            "schema": SCHEMA,
            "kind": "replay",
            "rule": self.rule,
            "error": self.error,
            "executed": self.executed,
            "causal": self.report.as_dict(),
        }


def replay_schedule(schedule: dict[str, Any]) -> ReplayResult:
    """Re-execute *schedule* with causal tracing on.

    Action *n* of the schedule runs at time *n*, so span timestamps
    encode schedule positions and the causal DAG reads as a timeline of
    the counterexample.  An M203 schedule ends in the violating call:
    the exception is caught, reported in ``error``, and the spans
    recorded up to that point form the DAG.
    """
    actions = _actions_from(schedule)
    machine = ModelMachine(ModelConfig.from_dict(schedule["config"]))
    driver = machine.driver
    driver.causal = log = CausalLog()
    driver._subscribe()
    w = machine.initial_working()
    error: str | None = None
    executed = 0
    for action in actions:
        executed += 1
        driver.clock = float(executed)
        try:
            machine.apply(w, action)
        except VIOLATION_ERRORS as exc:
            error = (
                f"{type(exc).__name__} at action {executed}/{len(actions)} "
                f"({' '.join(str(p) for p in action)}): {exc}"
            )
            break
    return ReplayResult(
        rule=str(schedule.get("rule", "")),
        report=build_causal_report(log),
        error=error,
        executed=executed,
    )
