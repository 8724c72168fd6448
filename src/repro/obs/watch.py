"""SLO rules as predicates over the fleet aggregate.

A :class:`Rule` states a condition a healthy fleet must satisfy —
``error_rate < 0.01``, ``t_ub_p95 < 1.2 * baseline``,
``demo:resolution_p99 <= 0.5`` — and :func:`evaluate_rules` checks
every rule against an :class:`~repro.obs.fleet.Aggregate` (optionally
relative to a baseline aggregate), one alert record per violation.
``repro watch URL`` drives it against a server: exit 1 when a rule
trips, 0 clean, 2 on usage or connection errors.

Rule grammar::

    [scenario:]metric OP limit
    OP     := < | <= | > | >=
    limit  := NUMBER | NUMBER * baseline | baseline * NUMBER | baseline

Metrics derive from :data:`repro.obs.fleet.FIELDS`: each ``sum`` field
by name, ``<dist>_{p50,p95,p99,mean,count}`` for each ``dist`` field,
plus ``error_rate``, ``sessions_total`` and ``errors``.  A rule with
no scenario prefix applies to every scenario in the aggregate.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.fleet import FIELDS, STATS, Aggregate

__all__ = ["Rule", "evaluate_rules", "metric_value", "parse_rule", "parse_rules"]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_DISTS = tuple(f for f, r, _, _ in FIELDS if r == "dist")
_SUMS = tuple(f for f, r, _, _ in FIELDS if r == "sum")
_PLAIN = ("error_rate", "errors", "sessions_total", *_SUMS)

_RULE_RE = re.compile(
    r"^\s*(?:(?P<scenario>[A-Za-z0-9_.-]+)\s*:)?\s*(?P<metric>[a-z0-9_]+)\s*"
    r"(?P<op><=|>=|<|>)\s*(?P<limit>.+?)\s*$"
)
_LIMIT_RE = re.compile(
    r"^(?:(?P<pre>[0-9.eE+-]+)\s*\*\s*baseline|baseline\s*\*\s*(?P<post>[0-9.eE+-]+)"
    r"|(?P<bare>baseline)|(?P<value>[0-9.eE+-]+))$"
)


@dataclass(frozen=True)
class Rule:
    """One parsed SLO rule: an absolute *threshold* or a *baseline_factor*."""

    text: str
    scenario: str | None  # None: every scenario
    metric: str
    op: str
    threshold: float | None
    baseline_factor: float | None

    @property
    def needs_baseline(self) -> bool:
        """Whether this rule can only be evaluated against a baseline."""
        return self.baseline_factor is not None


def _known(metric: str) -> bool:
    field, _, stat = metric.rpartition("_")
    return metric in _PLAIN or (field in _DISTS and stat in STATS)


def parse_rule(text: str) -> Rule:
    """Parse one rule string; raises :class:`ValueError` when malformed."""
    m = _RULE_RE.match(text)
    if m is None:
        raise ValueError(f"unparseable rule {text!r} (want 'metric OP limit')")
    metric = m.group("metric")
    if not _known(metric):
        raise ValueError(
            f"unknown metric {metric!r} in rule {text!r}; known: {sorted(_PLAIN)} "
            f"and {{{','.join(sorted(_DISTS))}}}_{{{','.join(STATS)}}}"
        )
    lm = _LIMIT_RE.match(m.group("limit"))
    if lm is None:
        raise ValueError(
            f"unparseable limit {m.group('limit')!r} in rule {text!r} "
            "(want a number, 'N * baseline', 'baseline * N' or 'baseline')"
        )
    value, factor = lm.group("value"), lm.group("pre") or lm.group("post") or 1.0
    return Rule(
        text=text.strip(),
        scenario=m.group("scenario"),
        metric=metric,
        op=m.group("op"),
        threshold=None if value is None else float(value),
        baseline_factor=None if value is not None else float(factor),
    )


def parse_rules(texts: Iterable[str]) -> list[Rule]:
    """Parse several rule strings (blank lines and ``#`` comments skipped)."""
    stripped = (text.strip() for text in texts)
    return [parse_rule(t) for t in stripped if t and not t.startswith("#")]


def metric_value(block: dict[str, Any], metric: str) -> float | None:
    """*metric* of one group's payload block (None outside the vocabulary)."""
    if metric in _PLAIN:
        return float(block[metric])
    field, _, stat = metric.rpartition("_")
    return float(block[field]["summary"][stat]) if _known(metric) else None


def evaluate_rules(
    aggregate: Aggregate, rules: Iterable[Rule], baseline: Aggregate | None = None
) -> list[dict[str, Any]]:
    """One alert record per rule violation in *aggregate* (empty: healthy).

    A baseline-relative rule with no *baseline* raises
    :class:`ValueError` — silently skipping a guard rail would defeat
    the watchdog.
    """
    blocks = aggregate.blocks()
    base_blocks = baseline.blocks() if baseline is not None else {}
    alerts: list[dict[str, Any]] = []
    for rule in rules:
        if rule.needs_baseline and baseline is None:
            raise ValueError(
                f"rule {rule.text!r} is baseline-relative but no baseline was given"
            )
        for name in [rule.scenario] if rule.scenario is not None else blocks:
            alert = _check(rule, name, blocks.get(name), base_blocks.get(name))
            if alert is not None:
                alerts.append(alert)
    return alerts


def _check(
    rule: Rule, scenario: str, block: dict[str, Any] | None, base: dict[str, Any] | None
) -> dict[str, Any] | None:
    """The alert *rule* raises on one scenario, or None when it holds."""
    value = limit = base_value = None
    if block is None:  # a pinned scenario that never ran cannot be vouched for
        reason = "scenario absent from rollup"
    elif (value := metric_value(block, rule.metric)) is None:
        reason = f"metric {rule.metric!r} unavailable"
    elif rule.needs_baseline and base is None:
        reason = "no baseline value for scenario"
    else:
        if rule.baseline_factor is not None and base is not None:
            base_value = metric_value(base, rule.metric)
            limit = rule.baseline_factor * (base_value or 0.0)
        else:
            limit = rule.threshold
        if _OPS[rule.op](value, limit):
            return None
        reason = f"{rule.metric} = {value:g} violates '{rule.metric} {rule.op} {limit:g}'"
    record = {"rule": rule.text, "scenario": scenario, "metric": rule.metric,
              "op": rule.op, "value": value, "limit": limit, "message": reason}
    if base_value is not None:
        record["baseline_value"] = base_value
    return record
