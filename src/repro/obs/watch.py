"""SLO watchdog over fleet rollups (schema ``repro.alerts/v1``).

Declarative guard rails for the paper's quantitative claims: a
:class:`Rule` states a condition a healthy fleet must satisfy —

* ``error_rate < 0.01``
* ``t_ub_p95 < 1.2 * baseline``
* ``demo:resolution_p99 <= 0.5``

— and :func:`evaluate_rules` checks every rule against a
``repro.fleet/v1`` payload (optionally relative to a saved *baseline*
payload, mirroring ``repro run --baseline``).  Violations become
``repro.alerts/v1`` records; :class:`Watchdog` evaluates on a cadence
and emits each alert to ordinary telemetry sinks, so alerts land in
the same JSONL/OpenMetrics files operators already scrape.  The
``repro watch URL`` CLI drives the same evaluation and exits 1 when
any rule trips (0 clean, 2 on usage/connection errors) — the same
contract as ``repro run --baseline``.

Rule grammar::

    [scenario:]metric OP limit
    OP     := < | <= | > | >=
    limit  := NUMBER | NUMBER * baseline | baseline * NUMBER | baseline

Metrics: ``error_rate``, ``sessions_total``, ``errors``,
``buddy_saved_total``, ``buddy_skips``, ``telemetry_dropped``, and
``{t_ub,resolution,duration}_{p50,p95,p99,mean,count}``.  A rule
without a scenario prefix applies to every scenario in the payload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "ALERTS_SCHEMA",
    "Rule",
    "Watchdog",
    "evaluate_rules",
    "parse_rule",
    "parse_rules",
]

#: Schema tag stamped on every alert record.
ALERTS_SCHEMA = "repro.alerts/v1"

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Histogram-metric prefixes -> the payload key they live under.
_HIST_KEYS = {
    "t_ub": "t_ub",
    "resolution": "resolution_latency",
    "duration": "duration_seconds",
}

#: Scalar metrics -> how to pull them out of one scenario's dict.
_SCALARS: dict[str, Callable[[dict[str, Any]], float]] = {
    "error_rate": lambda s: float(s.get("error_rate", 0.0)),
    "sessions_total": lambda s: float(s.get("total", 0)),
    "errors": lambda s: float(s.get("errors", 0)),
    "buddy_saved_total": lambda s: float(s.get("buddy_saved_total", 0.0)),
    "buddy_skips": lambda s: float(s.get("buddy_skips", 0)),
    "telemetry_dropped": lambda s: float(
        dict(s.get("telemetry", {})).get("dropped", 0)
    ),
}

_RULE_RE = re.compile(
    r"^\s*(?:(?P<scenario>[A-Za-z0-9_.-]+)\s*:)?\s*"
    r"(?P<metric>[a-z0-9_]+)\s*"
    r"(?P<op><=|>=|<|>)\s*"
    r"(?P<limit>.+?)\s*$"
)
_LIMIT_RE = re.compile(
    r"^(?:(?P<pre>[0-9.eE+-]+)\s*\*\s*baseline"
    r"|baseline\s*\*\s*(?P<post>[0-9.eE+-]+)"
    r"|(?P<bare>baseline)"
    r"|(?P<value>[0-9.eE+-]+))$"
)


@dataclass(frozen=True)
class Rule:
    """One parsed SLO rule."""

    #: The original rule text (echoed in alerts).
    text: str
    #: Scenario the rule is pinned to, or None for every scenario.
    scenario: str | None
    metric: str
    op: str
    #: Absolute limit (None when baseline-relative).
    threshold: float | None
    #: Multiplier over the baseline's value (None when absolute).
    baseline_factor: float | None

    @property
    def needs_baseline(self) -> bool:
        """Whether this rule can only be evaluated against a baseline."""
        return self.baseline_factor is not None


def parse_rule(text: str) -> Rule:
    """Parse one rule string; raises :class:`ValueError` when malformed."""
    m = _RULE_RE.match(text)
    if m is None:
        raise ValueError(f"unparseable rule {text!r} (want 'metric OP limit')")
    metric = m.group("metric")
    if metric not in _SCALARS and _split_hist_metric(metric) is None:
        raise ValueError(
            f"unknown metric {metric!r} in rule {text!r}; known: "
            f"{sorted(_SCALARS)} and "
            f"{{{','.join(sorted(_HIST_KEYS))}}}_{{p50,p95,p99,mean,count}}"
        )
    lm = _LIMIT_RE.match(m.group("limit"))
    if lm is None:
        raise ValueError(
            f"unparseable limit {m.group('limit')!r} in rule {text!r} "
            "(want a number, 'N * baseline', 'baseline * N' or 'baseline')"
        )
    threshold: float | None = None
    factor: float | None = None
    if lm.group("value") is not None:
        threshold = float(lm.group("value"))
    elif lm.group("bare") is not None:
        factor = 1.0
    else:
        factor = float(lm.group("pre") or lm.group("post"))
    return Rule(
        text=text.strip(),
        scenario=m.group("scenario"),
        metric=metric,
        op=m.group("op"),
        threshold=threshold,
        baseline_factor=factor,
    )


def parse_rules(texts: Iterable[str]) -> list[Rule]:
    """Parse several rule strings (blank lines and ``#`` comments skipped)."""
    rules = []
    for text in texts:
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(parse_rule(stripped))
    return rules


def _split_hist_metric(metric: str) -> tuple[str, str] | None:
    """``"t_ub_p95"`` -> ``("t_ub", "p95")`` or None."""
    for prefix, key in _HIST_KEYS.items():
        if metric.startswith(prefix + "_"):
            suffix = metric[len(prefix) + 1 :]
            if suffix in ("p50", "p95", "p99", "mean", "count"):
                return key, suffix
    return None


def metric_value(scenario_payload: dict[str, Any], metric: str) -> float | None:
    """Resolve *metric* inside one scenario's rollup dict (None if absent)."""
    scalar = _SCALARS.get(metric)
    if scalar is not None:
        return scalar(scenario_payload)
    split = _split_hist_metric(metric)
    if split is None:
        return None
    key, suffix = split
    summary = dict(dict(scenario_payload.get(key, {})).get("summary", {}))
    if not summary:
        return None
    return float(summary.get(suffix, 0.0))


def evaluate_rules(
    payload: dict[str, Any],
    rules: Iterable[Rule],
    baseline: dict[str, Any] | None = None,
) -> list[dict[str, Any]]:
    """Check *rules* against a ``repro.fleet/v1`` payload.

    Returns one ``repro.alerts/v1`` record per violation (empty when
    the fleet is healthy).  A baseline-relative rule with no
    *baseline* given raises :class:`ValueError` — silently skipping a
    guard rail would defeat the watchdog.
    """
    scenarios: dict[str, Any] = dict(payload.get("scenarios", {}))
    base_scenarios: dict[str, Any] = dict((baseline or {}).get("scenarios", {}))
    alerts: list[dict[str, Any]] = []
    for rule in rules:
        if rule.needs_baseline and baseline is None:
            raise ValueError(
                f"rule {rule.text!r} is baseline-relative but no baseline was given"
            )
        targets = (
            [rule.scenario] if rule.scenario is not None else sorted(scenarios)
        )
        for name in targets:
            scen = scenarios.get(name)
            if scen is None:
                # A pinned scenario that never ran is itself a finding:
                # the rule cannot be vouched for.
                alerts.append(_alert(rule, name, None, None, None,
                                     reason="scenario absent from rollup"))
                continue
            value = metric_value(scen, rule.metric)
            if value is None:
                alerts.append(_alert(rule, name, None, None, None,
                                     reason=f"metric {rule.metric!r} unavailable"))
                continue
            base_value: float | None = None
            if rule.needs_baseline:
                base_scen = base_scenarios.get(name)
                base_value = (
                    metric_value(base_scen, rule.metric)
                    if base_scen is not None
                    else None
                )
                if base_value is None:
                    alerts.append(_alert(rule, name, value, None, None,
                                         reason="no baseline value for scenario"))
                    continue
                assert rule.baseline_factor is not None
                limit = rule.baseline_factor * base_value
            else:
                assert rule.threshold is not None
                limit = rule.threshold
            if not _OPS[rule.op](value, limit):
                alerts.append(_alert(rule, name, value, limit, base_value))
    return alerts


def _alert(
    rule: Rule,
    scenario: str | None,
    value: float | None,
    limit: float | None,
    baseline_value: float | None,
    reason: str | None = None,
) -> dict[str, Any]:
    message = reason or (
        f"{rule.metric} = {value:g} violates '{rule.metric} {rule.op} "
        f"{limit:g}'" if value is not None and limit is not None else rule.text
    )
    record: dict[str, Any] = {
        "schema": ALERTS_SCHEMA,
        "rule": rule.text,
        "scenario": scenario,
        "metric": rule.metric,
        "op": rule.op,
        "value": value,
        "limit": limit,
        "message": message,
    }
    if baseline_value is not None:
        record["baseline_value"] = baseline_value
    return record


class Watchdog:
    """Evaluates rules against a rollup source on a cadence.

    *fetch* returns the current ``repro.fleet/v1`` payload (e.g.
    ``client.fleet``); every evaluation's violations are emitted to
    the configured telemetry sinks, so alerts ride the exact same
    pipes as ``repro.telemetry/v1`` snapshots.
    """

    def __init__(
        self,
        fetch: Callable[[], dict[str, Any]],
        rules: Iterable[Rule],
        *,
        baseline: dict[str, Any] | None = None,
        sinks: Iterable[Any] = (),
    ) -> None:
        self.fetch = fetch
        self.rules = list(rules)
        self.baseline = baseline
        self.sinks = tuple(sinks)
        #: Alerts emitted over this watchdog's lifetime.
        self.alerts_total = 0
        self.evaluations = 0

    def run_once(self) -> list[dict[str, Any]]:
        """One fetch-and-evaluate pass; returns (and emits) violations."""
        payload = self.fetch()
        alerts = evaluate_rules(payload, self.rules, self.baseline)
        self.evaluations += 1
        self.alerts_total += len(alerts)
        for alert in alerts:
            for sink in self.sinks:
                sink.emit(alert)
        return alerts

    def run(
        self, iterations: int, interval: float, *,
        sleep: Callable[[float], None] | None = None,
    ) -> list[dict[str, Any]]:
        """*iterations* passes, *interval* seconds apart; all violations."""
        import time as _time

        do_sleep = sleep if sleep is not None else _time.sleep
        out: list[dict[str, Any]] = []
        for i in range(iterations):
            out.extend(self.run_once())
            if i + 1 < iterations:
                do_sleep(interval)
        return out
