"""Cross-session fleet rollups: merge semantics, error accounting,
restart-safe snapshots, and the OpenMetrics rendering behind
``GET /metrics``."""

from __future__ import annotations

import json
import random
import statistics

import pytest

from repro.obs.fleet import FLEET_SCHEMA, FleetRollup, ScenarioRollup
from repro.obs.stream import ExpositionBuilder, validate_openmetrics


def report_for(t_ub: float, *, skips: int = 2, pending_mean: float = 0.1) -> dict:
    """A minimal ``repro.report/v1``-shaped payload with a paper block."""
    return {
        "runs": [
            {
                "scenario": "demo",
                "metrics": {
                    "paper": {
                        "t_ub_total": t_ub,
                        "buddy_saved_total": 0.5,
                        "buddy_skips": skips,
                        "pending_resolution": {"count": 1, "mean": pending_mean},
                    }
                },
            }
        ]
    }


def observe_fleet(rollup: FleetRollup, sessions) -> None:
    for scenario, state, t_ub, duration in sessions:
        rollup.observe_session(
            scenario=scenario,
            state=state,
            report=report_for(t_ub) if state == "done" else None,
            duration=duration,
        )


SESSIONS = [
    ("demo", "done", 1.0, 0.5),
    ("demo", "done", 2.0, 0.7),
    ("demo", "failed", 0.0, 0.1),
    ("demo", "done", 3.0, 0.6),
    ("chaos", "done", 5.0, 1.2),
    ("chaos", "cancelled", 0.0, 0.2),
]


class TestErrorAccounting:
    def test_every_terminal_state_counts_only_done_feeds_latency(self):
        fleet = FleetRollup()
        observe_fleet(fleet, SESSIONS)
        demo = fleet.scenario("demo")
        assert demo.total == 4
        assert demo.errors == 1
        assert demo.error_rate == pytest.approx(0.25)
        # The failed session contributed nothing to any histogram.
        assert demo.t_ub.count == 3
        assert demo.duration.count == 3
        assert demo.t_ub.summary()["max"] == 3.0
        chaos = fleet.scenario("chaos")
        assert chaos.errors == 1 and chaos.t_ub.count == 1

        # A stream far past the reservoir capacity, arriving unordered
        # (Knuth-hash scatter), every ninth session failed: the fold
        # must agree with re-aggregating the full history from scratch.
        sessions = [
            (
                "demo",
                "failed" if k % 9 == 0 else "done",
                1.0 + (k * 2654435761 % 4096) / 1024.0,
                0.01,
            )
            for k in range(2_500)
        ]
        long_run = FleetRollup()
        observe_fleet(long_run, sessions)
        demo = long_run.scenario("demo")
        done = sorted(t for _, state, t, _ in sessions if state == "done")
        assert dict(demo.sessions) == {
            "done": len(done),
            "failed": len(sessions) - len(done),
        }
        assert demo.t_ub.count == len(done)
        exact_p95 = statistics.quantiles(done, n=20, method="inclusive")[-1]
        assert demo.t_ub.quantile(0.95) == pytest.approx(exact_p95, rel=0.15)

    def test_failed_session_report_is_ignored(self):
        # Even if a failed session somehow carries a report, it must
        # not skew the percentiles ("no trustworthy report").
        fleet = FleetRollup()
        fleet.observe_session(
            scenario="demo", state="failed", report=report_for(1e9), duration=9e9
        )
        demo = fleet.scenario("demo")
        assert demo.total == 1 and demo.errors == 1
        assert demo.t_ub.count == 0 and demo.duration.count == 0

    def test_negative_duration_is_dropped(self):
        fleet = FleetRollup()
        fleet.observe_session(
            scenario="demo", state="done", report=report_for(1.0), duration=-5.0
        )
        assert fleet.scenario("demo").duration.count == 0

    def test_totals_block(self):
        fleet = FleetRollup()
        observe_fleet(fleet, SESSIONS)
        totals = fleet.as_dict()["totals"]
        assert totals["sessions"] == 6
        assert totals["errors"] == 2
        assert totals["error_rate"] == pytest.approx(2 / 6)


class TestCommutativity:
    def test_out_of_order_finishes_agree(self):
        # Sessions finish in arbitrary interleavings on a live server;
        # any observation order must produce the same aggregates.
        orders = [SESSIONS, list(reversed(SESSIONS))]
        shuffled = list(SESSIONS)
        random.Random(7).shuffle(shuffled)
        orders.append(shuffled)
        dicts = []
        for order in orders:
            fleet = FleetRollup()
            observe_fleet(fleet, order)
            dicts.append(fleet.as_dict())
        for payload in dicts[1:]:
            assert payload["scenarios"].keys() == dicts[0]["scenarios"].keys()
            for name, scen in payload["scenarios"].items():
                want = dicts[0]["scenarios"][name]
                assert scen["sessions"] == want["sessions"]
                assert scen["error_rate"] == want["error_rate"]
                for hist in ("t_ub", "resolution_latency", "duration_seconds"):
                    got_s, want_s = scen[hist]["summary"], want[hist]["summary"]
                    assert got_s["count"] == want_s["count"]
                    assert got_s["mean"] == pytest.approx(want_s["mean"])
                    assert got_s["p95"] == pytest.approx(want_s["p95"])

    def test_merge_matches_single_store(self):
        left, right, whole = FleetRollup(), FleetRollup(), FleetRollup()
        observe_fleet(left, SESSIONS[:3])
        observe_fleet(right, SESSIONS[3:])
        observe_fleet(whole, SESSIONS)
        merged = left.merge(right)
        got, want = merged.as_dict(), whole.as_dict()
        assert got["totals"] == pytest.approx(want["totals"])
        for name in want["scenarios"]:
            assert (
                got["scenarios"][name]["sessions"]
                == want["scenarios"][name]["sessions"]
            )
            assert got["scenarios"][name]["t_ub"]["summary"]["mean"] == (
                pytest.approx(want["scenarios"][name]["t_ub"]["summary"]["mean"])
            )
        # Merge does not mutate its inputs.
        assert left.scenario("demo").total == 3


class TestRestartSafety:
    def test_dict_roundtrip_is_exact(self):
        fleet = FleetRollup()
        observe_fleet(fleet, SESSIONS)
        payload = json.loads(json.dumps(fleet.as_dict()))
        back = FleetRollup.from_dict(payload)
        assert back.as_dict() == payload

    def test_restored_rollup_keeps_observing(self):
        fleet = FleetRollup()
        observe_fleet(fleet, SESSIONS[:4])
        back = FleetRollup.from_dict(fleet.as_dict())
        observe_fleet(back, SESSIONS[4:])
        straight = FleetRollup()
        observe_fleet(straight, SESSIONS)
        got, want = back.as_dict(), straight.as_dict()
        assert got["totals"] == want["totals"]
        assert (
            got["scenarios"]["chaos"]["sessions"]
            == want["scenarios"]["chaos"]["sessions"]
        )

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="repro.fleet/v1"):
            FleetRollup.from_dict({"schema": "repro.other/v9", "scenarios": {}})


class TestObservationPaths:
    def test_observe_report_counts_each_run(self):
        fleet = FleetRollup()
        fleet.observe_report(
            {"runs": report_for(1.0)["runs"] + report_for(2.0)["runs"]}
        )
        assert fleet.scenario("demo").total == 2
        assert fleet.scenario("demo").t_ub.count == 2

    def test_observe_metrics_snapshot(self, demo_result):
        fleet = FleetRollup()
        fleet.observe_metrics("demo", demo_result.metrics)
        demo = fleet.scenario("demo")
        assert demo.total == 1
        assert demo.t_ub.count == 1
        assert demo.buddy_skips == demo_result.paper_metrics.buddy_skips


class TestOpenMetricsRendering:
    def build_text(self) -> str:
        fleet = FleetRollup()
        observe_fleet(fleet, SESSIONS)
        out = ExpositionBuilder()
        fleet.add_to_exposition(out)
        return out.render()

    def test_exposition_validates(self):
        assert validate_openmetrics(self.build_text()) == []

    def test_series_present(self):
        text = self.build_text()
        assert 'repro_fleet_sessions_total{scenario="demo",state="done"} 3' in text
        assert 'repro_fleet_sessions_total{scenario="demo",state="failed"} 1' in text
        assert 'repro_fleet_error_rate{scenario="demo"} 0.25' in text
        assert 'repro_fleet_t_ub_seconds{scenario="demo",quantile="0.95"}' in text
        assert 'repro_fleet_t_ub_samples_total{scenario="demo"} 3' in text
        assert (
            'repro_fleet_session_duration_seconds{scenario="chaos",quantile="0.5"}'
            in text
        )

    def test_empty_rollup_renders_clean(self):
        out = ExpositionBuilder()
        FleetRollup().add_to_exposition(out)
        assert validate_openmetrics(out.render()) == []


class TestScenarioRollupBasics:
    def test_schema_constant(self):
        assert FLEET_SCHEMA == "repro.fleet/v1"

    def test_empty_scenario_shape(self):
        scen = ScenarioRollup(scenario="x").as_dict()
        assert scen["total"] == 0 and scen["error_rate"] == 0.0
        assert scen["t_ub"]["summary"]["count"] == 0
