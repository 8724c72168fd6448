"""SLO rules over the fleet aggregate: rule grammar, evaluation
semantics, and the ``repro watch`` loop that fetches, evaluates and
appends alerts to JSONL."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main
from repro.obs.fleet import Aggregate
from repro.obs.watch import (
    Rule,
    evaluate_rules,
    metric_value,
    parse_rule,
    parse_rules,
)
from repro.serve.client import ServeClient

from tests.obs.test_fleet import LEGACY_BASELINE, SESSIONS, fleet, observe_fleet


class TestParseRule:
    def test_plain_threshold(self):
        rule = parse_rule("error_rate < 0.01")
        assert rule == Rule(
            text="error_rate < 0.01", scenario=None, metric="error_rate",
            op="<", threshold=0.01, baseline_factor=None,
        )
        assert not rule.needs_baseline

    def test_scenario_pin_and_all_ops(self):
        for op in ("<", "<=", ">", ">="):
            rule = parse_rule(f"demo:t_ub_p95 {op} 2")
            assert rule.scenario == "demo"
            assert rule.metric == "t_ub_p95"
            assert rule.op == op
            assert rule.threshold == 2.0

    @pytest.mark.parametrize(
        ("limit", "factor"),
        [("1.2 * baseline", 1.2), ("baseline * 1.2", 1.2), ("baseline", 1.0)],
    )
    def test_baseline_relative_limits(self, limit, factor):
        rule = parse_rule(f"t_ub_p95 <= {limit}")
        assert rule.threshold is None
        assert rule.baseline_factor == factor
        assert rule.needs_baseline

    def test_histogram_metric_suffixes(self):
        for metric in (
            "t_ub_p50", "t_ub_p99", "resolution_mean", "duration_count"
        ):
            assert parse_rule(f"{metric} < 1").metric == metric

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            parse_rule("latency_p95 < 1")
        with pytest.raises(ValueError, match="unknown metric"):
            parse_rule("t_ub_p42 < 1")  # not a known suffix

    def test_unparseable_rule_rejected(self):
        with pytest.raises(ValueError, match="unparseable rule"):
            parse_rule("error_rate !!! 1")

    def test_unparseable_limit_rejected(self):
        with pytest.raises(ValueError, match="unparseable limit"):
            parse_rule("error_rate < two percent")
        with pytest.raises(ValueError, match="unparseable limit"):
            parse_rule("error_rate < 2 * baseline * 2")

    def test_parse_rules_skips_blanks_and_comments(self):
        rules = parse_rules([
            "", "  # a comment", "error_rate < 0.5", "   ",
            "demo:sessions_total >= 1",
        ])
        assert [r.text for r in rules] == [
            "error_rate < 0.5", "demo:sessions_total >= 1",
        ]


class TestMetricValue:
    def test_scalars(self):
        demo = fleet().blocks()["demo"]
        assert metric_value(demo, "error_rate") == pytest.approx(0.25)
        assert metric_value(demo, "sessions_total") == 4.0
        assert metric_value(demo, "errors") == 1.0
        assert metric_value(demo, "buddy_skips") > 0

    def test_histogram_suffixes(self):
        demo = fleet().blocks()["demo"]
        assert metric_value(demo, "t_ub_count") == 3.0
        assert metric_value(demo, "t_ub_mean") == pytest.approx(2.0)
        assert metric_value(demo, "duration_p50") is not None

    def test_unknown_metric_is_none(self):
        assert metric_value(fleet().blocks()["demo"], "nope") is None


class TestEvaluateRules:
    def test_healthy_fleet_no_alerts(self):
        rules = parse_rules([
            "demo:error_rate <= 0.25",
            "demo:t_ub_p95 < 100",
            "sessions_total >= 1",
        ])
        assert evaluate_rules(fleet(), rules) == []

    def test_violation_produces_alert_record(self):
        alerts = evaluate_rules(fleet(), parse_rules(["demo:error_rate <= 0"]))
        assert len(alerts) == 1
        alert = alerts[0]
        assert "schema" not in alert  # the record is an element of a report's alerts block
        assert alert["scenario"] == "demo"
        assert alert["metric"] == "error_rate"
        assert alert["value"] == pytest.approx(0.25)
        assert alert["limit"] == 0.0
        assert "violates" in alert["message"]

    def test_unpinned_rule_fans_out_over_scenarios(self):
        # Both demo and chaos have errors, so both trip.
        alerts = evaluate_rules(fleet(), parse_rules(["errors <= 0"]))
        assert [a["scenario"] for a in alerts] == ["chaos", "demo"]

    def test_absent_pinned_scenario_is_an_alert(self):
        alerts = evaluate_rules(fleet(), parse_rules(["ghost:error_rate <= 1"]))
        assert len(alerts) == 1
        assert alerts[0]["scenario"] == "ghost"
        assert "absent" in alerts[0]["message"]

    def test_unavailable_metric_is_an_alert(self):
        rule = Rule(text="demo:nope < 1", scenario="demo", metric="nope", op="<",
                    threshold=1.0, baseline_factor=None)
        [alert] = evaluate_rules(fleet(), [rule])
        assert alert["message"] == "metric 'nope' unavailable"

    def test_baseline_relative_rule(self):
        agg = fleet()
        # Against itself: p95 <= 1.0 * baseline holds, < it does not.
        assert evaluate_rules(
            agg, parse_rules(["demo:t_ub_p95 <= baseline"]), baseline=agg
        ) == []
        worse = parse_rules(["demo:t_ub_p95 <= 0.5 * baseline"])
        alerts = evaluate_rules(agg, worse, baseline=agg)
        assert len(alerts) == 1
        assert alerts[0]["baseline_value"] == alerts[0]["value"]
        assert alerts[0]["limit"] == pytest.approx(0.5 * alerts[0]["value"])

    def test_baseline_rule_without_baseline_raises(self):
        with pytest.raises(ValueError, match="baseline-relative"):
            evaluate_rules(fleet(), parse_rules(["t_ub_p95 < 2 * baseline"]))

    def test_scenario_missing_from_baseline_is_an_alert(self):
        alerts = evaluate_rules(
            fleet(), parse_rules(["demo:t_ub_p95 <= baseline"]), baseline=Aggregate()
        )
        assert len(alerts) == 1
        assert "no baseline value" in alerts[0]["message"]


URL = "http://127.0.0.1:9"


@pytest.fixture
def served(monkeypatch):
    """``repro watch`` against an in-memory fleet: the payload each
    fetch returns (settable), the fetch count and every sleep."""
    state = {"payload": fleet().as_dict(), "fetches": 0, "slept": []}

    def fetch(_client):
        state["fetches"] += 1
        return state["payload"]

    monkeypatch.setattr(ServeClient, "fleet", fetch)
    monkeypatch.setattr(time, "sleep", state["slept"].append)
    return state


class TestWatchdog:
    """The fetch-evaluate-emit-sleep loop of ``repro watch``."""

    def test_run_once_emits_to_sinks_and_counts(self, served, tmp_path, capsys):
        path = tmp_path / "alerts.jsonl"
        rc = main(["watch", URL, "--json", "--alerts", str(path),
                   "--rule", "demo:error_rate <= 0", "--rule", "demo:sessions_total >= 1"])
        assert rc == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluations"] == served["fetches"] == 1
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert lines == [{"schema": "repro.report/v1", "alerts": payload["alerts"]}]
        assert [a["rule"] for a in payload["alerts"]] == ["demo:error_rate <= 0"]

    def test_run_repeats_without_real_sleeping(self, served, tmp_path, capsys):
        path = tmp_path / "alerts.jsonl"
        rc = main(["watch", URL, "--json", "--iterations", "3", "--interval", "5",
                   "--alerts", str(path), "--rule", "errors <= 0"])
        assert rc == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert served["fetches"] == payload["evaluations"] == 3
        assert len(payload["alerts"]) == 3 * 2  # two scenarios trip per pass
        assert len(path.read_text().splitlines()) == 3 * 2  # one line per alert
        assert served["slept"] == [5.0, 5.0]  # no sleep after the last pass

    def test_clean_fleet_emits_nothing(self, served, tmp_path, capsys):
        path = tmp_path / "alerts.jsonl"
        rc = main(["watch", URL, "--iterations", "2", "--interval", "0",
                   "--alerts", str(path), "--rule", "error_rate <= 0.5"])
        assert rc == EXIT_OK
        assert "fleet healthy" in capsys.readouterr().out
        assert path.read_text() == ""


class TestWatchGuards:
    @pytest.mark.parametrize("flags", [["--iterations", "0"], ["--interval", "-1"]])
    def test_bad_pass_schedule_is_usage_error_before_any_fetch(self, served, capsys, flags):
        rc = main(["watch", URL, "--rule", "error_rate <= 1", *flags])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert served["fetches"] == 0 and served["slept"] == []

    def test_legacy_baseline_gives_the_same_verdict(self, served, tmp_path, capsys):
        # The legacy file and a current-format one over the same sessions
        # agree on a fleet that holds the rule and on one that trips it.
        current = tmp_path / "baseline.json"
        current.write_text(json.dumps(fleet().as_dict()))
        slower = Aggregate()
        observe_fleet(slower, [(s, st, 2 * t, d) for s, st, t, d in SESSIONS])
        rule = ["--rule", "demo:t_ub_p95 <= 1.5 * baseline"]
        for payload, want in ((fleet().as_dict(), EXIT_OK), (slower.as_dict(), EXIT_FINDINGS)):
            served["payload"] = payload
            outs = []
            for base in (LEGACY_BASELINE, current):
                assert main(["watch", URL, "--json", "--baseline", str(base), *rule]) == want
                outs.append(json.loads(capsys.readouterr().out)["alerts"])
            assert outs[0] == outs[1]

    def test_non_aggregate_baseline_is_usage_error(self, served, tmp_path, capsys):
        # A `repro run --json` report is not a fleet baseline.
        base = tmp_path / "report.json"
        base.write_text(json.dumps({"schema": "repro.report/v1", "runs": [{"name": "x"}]}))
        rc = main(["watch", URL, "--baseline", str(base), "--rule", "t_ub_p95 <= baseline"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(base) in err and "not an aggregate payload" in err
        assert served["fetches"] == 0

    def test_corrupt_baseline_is_usage_error(self, served, tmp_path, capsys):
        payload = fleet().as_dict()
        payload["aggregate"]["groups"]["demo"]["t_ub"]["state"]["count"] = -1
        base = tmp_path / "corrupt.json"
        base.write_text(json.dumps(payload))
        rc = main(["watch", URL, "--baseline", str(base), "--rule", "t_ub_p95 <= baseline"])
        assert rc == EXIT_USAGE
        assert "malformed aggregate group 'demo'" in capsys.readouterr().err
        assert served["fetches"] == 0
