"""The fleet aggregate: the row builder's error accounting, merge and
restart algebra, the payload reader (current and legacy), and the
OpenMetrics rendering behind ``GET /metrics``."""

from __future__ import annotations

import json
import random
import statistics
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import validate_report_payload
from repro.obs.fleet import FIELDS, Aggregate
from repro.obs.metrics import RESERVOIR_CAPACITY
from repro.obs.stream import ExpositionBuilder, validate_openmetrics
from repro.serve.registry import SessionRecord
from repro.serve.spec import SessionSpec

#: A ``repro.fleet/v1`` payload written by the previous aggregate over
#: :data:`SESSIONS`, kept verbatim to pin the legacy reader.
LEGACY_BASELINE = Path(__file__).parents[1] / "golden" / "fleet_v1_baseline.json"


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


def session_row(scenario: str, state: str, *, report=None, duration: float = 0.0) -> dict:
    """The registry's row for a session that ran *duration* seconds."""
    record = SessionRecord(
        id="s-test", spec=SessionSpec(scenario=scenario), state=state,
        created=0.0, finished=duration, report=report,
    )
    return record.row()


def observe_fleet(aggregate: Aggregate, sessions) -> None:
    for scenario, state, t_ub, duration in sessions:
        aggregate.add(session_row(
            scenario, state,
            report=report_for(t_ub) if state == "done" else None,
            duration=duration,
        ))


SESSIONS = [
    ("demo", "done", 1.0, 0.5),
    ("demo", "done", 2.0, 0.7),
    ("demo", "failed", 0.0, 0.1),
    ("demo", "done", 3.0, 0.6),
    ("chaos", "done", 5.0, 1.2),
    ("chaos", "cancelled", 0.0, 0.2),
]


def fleet() -> Aggregate:
    out = Aggregate()
    observe_fleet(out, SESSIONS)
    return out


def roundtrip(aggregate: Aggregate) -> Aggregate:
    return Aggregate.from_dict(json.loads(json.dumps(aggregate.as_dict())))


class TestErrorAccounting:
    def test_every_terminal_state_counts_only_done_feeds_latency(self):
        agg = fleet()
        demo = agg.blocks()["demo"]
        assert demo["sessions_total"] == 4
        assert demo["errors"] == 1
        assert demo["error_rate"] == pytest.approx(0.25)
        # The failed session contributed nothing to any histogram.
        assert demo["t_ub"]["summary"]["count"] == 3
        assert demo["duration"]["summary"]["count"] == 3
        assert demo["t_ub"]["summary"]["max"] == 3.0
        chaos = agg.blocks()["chaos"]
        assert chaos["errors"] == 1 and chaos["t_ub"]["summary"]["count"] == 1

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
        long_run = Aggregate()
        observe_fleet(long_run, sessions)
        demo = long_run.groups["demo"]
        done = sorted(t for _, state, t, _ in sessions if state == "done")
        assert dict(demo["sessions"]) == {
            "done": len(done),
            "failed": len(sessions) - len(done),
        }
        assert demo["t_ub"].count == len(done)
        exact_p95 = statistics.quantiles(done, n=20, method="inclusive")[-1]
        assert demo["t_ub"].quantile(0.95) == pytest.approx(exact_p95, rel=0.15)

    def test_failed_session_report_is_ignored(self):
        # Even if a failed session somehow carries a report, it must
        # not skew the percentiles ("no trustworthy report").
        row = session_row("demo", "failed", report=report_for(1e9), duration=9e9)
        assert set(row) == {"scenario", "state", "telemetry_records", "telemetry_dropped"}
        agg = Aggregate()
        agg.add(row)
        demo = agg.blocks()["demo"]
        assert demo["sessions_total"] == 1 and demo["errors"] == 1
        assert demo["t_ub"]["summary"]["count"] == 0
        assert demo["duration"]["summary"]["count"] == 0

    def test_negative_duration_is_dropped(self):
        row = session_row("demo", "done", report=report_for(1.0), duration=-5.0)
        assert "duration" not in row and row["t_ub"] == 1.0

    def test_totals_block(self):
        totals = fleet().as_dict()["aggregate"]["totals"]
        assert totals["sessions_total"] == 6
        assert totals["errors"] == 2
        assert totals["error_rate"] == pytest.approx(2 / 6)
        assert totals["t_ub"]["summary"]["count"] == 4


class TestCommutativity:
    def test_out_of_order_finishes_agree(self):
        # Sessions finish in arbitrary interleavings on a live server;
        # any observation order must produce the same aggregates.
        orders = [SESSIONS, list(reversed(SESSIONS))]
        shuffled = list(SESSIONS)
        random.Random(7).shuffle(shuffled)
        orders.append(shuffled)
        blocks = []
        for order in orders:
            agg = Aggregate()
            observe_fleet(agg, order)
            blocks.append(agg.blocks())
        for got in blocks[1:]:
            assert got.keys() == blocks[0].keys()
            for name, scen in got.items():
                want = blocks[0][name]
                assert scen["sessions"] == want["sessions"]
                assert scen["error_rate"] == want["error_rate"]
                for hist in ("t_ub", "resolution", "duration"):
                    got_s, want_s = scen[hist]["summary"], want[hist]["summary"]
                    assert got_s["count"] == want_s["count"]
                    assert got_s["mean"] == pytest.approx(want_s["mean"])
                    assert got_s["p95"] == pytest.approx(want_s["p95"])

    def test_merge_matches_single_store(self):
        left, right = Aggregate(), Aggregate()
        observe_fleet(left, SESSIONS[:3])
        observe_fleet(right, SESSIONS[3:])
        merged = left.merge(right)
        got, want = merged.as_dict()["aggregate"], fleet().as_dict()["aggregate"]
        for key in ("sessions", "sessions_total", "errors", "error_rate"):
            assert got["totals"][key] == want["totals"][key]
        for name in want["groups"]:
            assert got["groups"][name]["sessions"] == want["groups"][name]["sessions"]
            assert got["groups"][name]["t_ub"]["summary"]["mean"] == (
                pytest.approx(want["groups"][name]["t_ub"]["summary"]["mean"])
            )
        # Merge does not mutate its inputs.
        assert left.blocks()["demo"]["sessions_total"] == 3
        merged.add(session_row("demo", "failed"))
        assert left.blocks()["demo"]["sessions_total"] == 3


class TestRestartSafety:
    def test_dict_roundtrip_is_exact(self):
        payload = json.loads(json.dumps(fleet().as_dict()))
        assert Aggregate.from_dict(payload).as_dict() == payload

    def test_restored_rollup_keeps_observing(self):
        head = Aggregate()
        observe_fleet(head, SESSIONS[:4])
        back = roundtrip(head)
        observe_fleet(back, SESSIONS[4:])
        got, want = back.as_dict()["aggregate"], fleet().as_dict()["aggregate"]
        assert got["totals"] == want["totals"]
        assert got["groups"]["chaos"]["sessions"] == want["groups"]["chaos"]["sessions"]

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="not an aggregate payload"):
            Aggregate.from_dict({"schema": "repro.other/v9", "scenarios": {}})

    def test_report_without_aggregate_block_rejected(self):
        with pytest.raises(ValueError, match="'aggregate' block"):
            Aggregate.from_dict({"schema": "repro.report/v1", "runs": [{"name": "x"}]})
        for bad in ({"sessions": 3}, {"buddy_skips": "3"}, {"t_ub": {"state": {"count": 1}}}):
            with pytest.raises(ValueError, match="malformed aggregate group 'demo'"):
                Aggregate.from_dict({"schema": "repro.report/v1",
                                     "aggregate": {"groups": {"demo": bad}}})

    def test_legacy_payload_reads_to_the_same_groups(self):
        legacy = json.loads(LEGACY_BASELINE.read_text(encoding="utf-8"))
        assert legacy["schema"] == "repro.fleet/v1"
        assert Aggregate.from_dict(legacy).as_dict() == fleet().as_dict()

    def test_legacy_keys_map_to_fields(self):
        agg = Aggregate.from_dict({"schema": "repro.fleet/v1", "scenarios": {"x": {
            "sessions": {"done": 1},
            "resolution_latency": {"state": {"count": 1, "mean": 0.2, "min": 0.2,
                                             "max": 0.2, "reservoir": [0.2]}},
            "telemetry": {"records": 7, "dropped": 2},
        }}})
        block = agg.blocks()["x"]
        assert block["resolution"]["summary"]["p50"] == 0.2
        assert (block["telemetry_records"], block["telemetry_dropped"]) == (7, 2)


#: Finite non-negative samples (T_ub, latencies, durations, savings).
_FLOATS = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)
_INTS = st.integers(min_value=0, max_value=10**6)
_ROWS = st.lists(
    st.fixed_dictionaries(
        {"scenario": st.sampled_from(["demo", "crash", "fig4"]),
         "state": st.sampled_from(["done", "failed", "cancelled"])},
        optional={f: _FLOATS if r == "dist" or f == "buddy_saved_total" else _INTS
                  for f, r, _, _ in FIELDS},
    ),
    max_size=RESERVOIR_CAPACITY - 1,
)


def fold(rows) -> Aggregate:
    out = Aggregate()
    for row in rows:
        out.add(row)
    return out


def assert_same(got: Aggregate, want: Aggregate) -> None:
    """Exact on tallies, integer sums, counts, min/max and reservoir
    multisets; within 1e-9 relative on float sums and means."""
    assert got.groups.keys() == want.groups.keys()
    for key, g in got.groups.items():
        w = want.groups[key]
        assert g["sessions"] == w["sessions"]
        for f, r, _, _ in FIELDS:
            if r == "dist":
                gs, ws = g[f].as_state(), w[f].as_state()
                for k in ("count", "min", "max"):
                    assert gs[k] == ws[k]
                assert sorted(gs["reservoir"]) == sorted(ws["reservoir"])
                assert gs["mean"] == pytest.approx(ws["mean"], rel=1e-9)
            elif isinstance(g[f], int) and isinstance(w[f], int):
                assert g[f] == w[f]
            else:
                assert g[f] == pytest.approx(w[f], rel=1e-9)


class TestAlgebra:
    """Order, partition and restart never change what the fleet reports."""

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_any_permutation_folds_the_same(self, rows, data):
        assert_same(fold(data.draw(st.permutations(rows))), fold(rows))

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_any_split_merged_in_any_order_folds_the_same(self, rows, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5)))
        parts = [fold(rows[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)])]
        order = data.draw(st.permutations(parts))
        assert_same(reduce(Aggregate.merge, order, Aggregate()), fold(rows))

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_restart_at_any_point_folds_the_same(self, rows, data):
        k = data.draw(st.integers(0, len(rows)))
        restarted = roundtrip(fold(rows[:k]))
        for row in rows[k:]:
            restarted.add(row)
        assert_same(restarted, fold(rows))
        assert_same(roundtrip(restarted), fold(rows))


class TestOpenMetricsRendering:
    def build_text(self) -> str:
        out = ExpositionBuilder()
        fleet().add_to_exposition(out)
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

    def test_each_family_is_contiguous(self):
        # Two scenarios: every family's samples follow its own TYPE line.
        lines = self.build_text().splitlines()
        families = [line.split()[2] for line in lines if line.startswith("# TYPE ")]
        assert len(families) == len(set(families)) == 2 + sum(
            2 if r == "dist" else 1 for _, r, _, _ in FIELDS
        )
        current = None
        for line in lines[:-1]:
            if line.startswith("# TYPE "):
                current = line.split()[2]
            elif not line.startswith("#"):
                assert line.split("{")[0].removesuffix("_total") == current

    def test_empty_rollup_renders_clean(self):
        out = ExpositionBuilder()
        Aggregate().add_to_exposition(out)
        assert validate_openmetrics(out.render()) == []


class TestScenarioRollupBasics:
    def test_schema_constant(self):
        payload = fleet().as_dict()
        assert payload["schema"] == "repro.report/v1"
        assert validate_report_payload(payload) == []

    def test_empty_scenario_shape(self):
        totals = Aggregate().as_dict()["aggregate"]["totals"]
        assert totals["sessions_total"] == 0 and totals["error_rate"] == 0.0
        assert totals["t_ub"]["summary"]["count"] == 0
        assert set(totals) == {"sessions", "sessions_total", "errors", "error_rate",
                               *(f for f, _, _, _ in FIELDS)}
