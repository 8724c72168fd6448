"""Bit-exact replay, time-travel queries, and differential replay.

The acceptance contract of the provenance tentpole: a recorded run
must be reproducible byte-for-byte from its log alone (under either
match backend), mid-run state must be materializable at any virtual
time, and an edited replay must surface every divergence as a
structured causal diff — empty when nothing was edited.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.prov import PROV_SCHEMA, ProvenanceError, ProvenanceRecorder, read_log
from repro.obs.replay import (
    diff_causal,
    differential_replay,
    materialize,
    replay,
    verify_replay,
)

CHAOS_PLAN = FaultPlan(seed=11, drop=0.15, dup=0.1, delay_jitter=1e-4)


@pytest.fixture(scope="module")
def plain_log(tmp_path_factory, demo_runner):
    """A vanilla recorded demo run (default backend, no faults)."""
    path = tmp_path_factory.mktemp("replay") / "plain.prov"
    demo_runner(with_tracer=False, provenance=str(path))
    return path


@pytest.fixture(scope="module")
def chaos_log(tmp_path_factory, demo_runner):
    """A recorded run under drops, duplicates and delay jitter."""
    path = tmp_path_factory.mktemp("replay") / "chaos.prov"
    demo_runner(with_tracer=False, provenance=str(path), fault_plan=CHAOS_PLAN)
    return path


class TestBitExactReplay:
    def test_chaos_replay_is_bit_exact(self, chaos_log):
        v = verify_replay(chaos_log)
        assert v["ok"] is True
        assert v["report_identical"] is True
        assert v["causal_identical"] is True
        assert v["report_sha256"] == v["recorded_report_sha256"]
        assert v["causal_sha256"] == v["recorded_causal_sha256"]

    def test_sorted_backend_replay_is_bit_exact(
        self, tmp_path, demo_runner
    ):
        p = tmp_path / "sorted.prov"
        demo_runner(
            with_tracer=False,
            provenance=str(p),
            match_backend="sorted",
            fault_plan=CHAOS_PLAN,
        )
        v = verify_replay(p)
        assert v["ok"] and not v["cross_backend"]
        assert v["replayed_backend"] == "sorted"
        assert v["report_identical"] and v["causal_identical"]

    def test_header_without_the_field_replays_on_the_reference(
        self, tmp_path, demo_runner, monkeypatch
    ):
        # Such a log was recorded by legacy, so that is what must
        # replay it — not today's default.
        import repro.api.facade as facade

        real_run, replayed_on = facade.run, []

        def spy(config, programs, options, **kw):
            replayed_on.append(options.match_backend)
            return real_run(config, programs, options, **kw)

        monkeypatch.setattr(facade, "run", spy)
        p = tmp_path / "old.prov"
        demo_runner(with_tracer=False, provenance=str(p), match_backend="legacy")
        log = read_log(p)
        header = {k: v for k, v in log.header.items() if k != "match_backend"}
        header["options"] = {
            k: v for k, v in header["options"].items() if k != "match_backend"
        }
        v = verify_replay(dataclasses.replace(log, header=header))
        assert v["recorded_backend"] == v["replayed_backend"] == "legacy"
        assert v["ok"] and not v["cross_backend"] and v["report_identical"]
        assert replayed_on == ["legacy"]

    @staticmethod
    def _with_batch_control(src, dst, value):
        """Copy log *src* to *dst* with the retired option in its header."""
        header, _, rest = src.read_text().partition("\n")
        record = json.loads(header)
        record["options"]["batch_control"] = value
        dst.write_text(json.dumps(record, sort_keys=True) + "\n" + rest)
        return dst

    def test_old_log_batch_control_off_verifies_on_causal_digest(self, plain_log, tmp_path):
        # The recorded report digest covered the two retired frame
        # counters, so it cannot be recomputed: no verdict, not MISMATCH.
        old = self._with_batch_control(plain_log, tmp_path / "old.prov", False)
        v = verify_replay(old)
        assert v["ok"] is True
        assert v["causal_identical"] is True
        assert v["report_identical"] is None

    def test_old_log_batch_control_on_is_refused(self, plain_log, tmp_path, capsys):
        from repro.cli import main

        old = self._with_batch_control(plain_log, tmp_path / "framed.prov", True)
        with pytest.raises(ProvenanceError, match="batch_control"):
            verify_replay(old)
        assert main(["replay", str(old)]) == 2
        assert "batch_control" in capsys.readouterr().err

    def test_replay_returns_a_full_run_result(self, plain_log):
        log = read_log(plain_log)
        result = replay(log)
        assert result.sim_time == pytest.approx(log.end["sim_time"])
        assert result.paper_metrics is not None
        assert result.causal.resolutions

    def test_telemetry_active_run_replays_bit_exactly(
        self, tmp_path, demo_runner
    ):
        # The periodic telemetry sampler is a real DES process: its
        # timers consume seq numbers and hold the clock to the last
        # sampling tick.  The log marks it active and replay re-creates
        # it against a null sink — without that, sim_time and the
        # kernel event counters drift.
        class NullSink:
            def emit(self, record):
                pass

            def close(self):
                pass

        p = tmp_path / "telemetry.prov"
        demo_runner(
            with_tracer=False,
            provenance=str(p),
            telemetry_sinks=(NullSink(),),
            telemetry_interval=0.01,
        )
        log = read_log(p)
        assert log.header["options"]["telemetry_active"] is True
        v = verify_replay(log)
        assert v["ok"] and v["report_identical"] and v["causal_identical"]

    def test_cross_backend_decisions_match(self, plain_log):
        # A default (sorted) log replayed on the reference backend:
        # payload bytes may differ (metrics name the backend) but every
        # resolution decision must be identical — the negative control
        # that the byte-identity tests aren't vacuous.
        assert read_log(plain_log).header["match_backend"] != "legacy"
        v = verify_replay(plain_log, match_backend="legacy")
        assert v["cross_backend"] is True
        assert v["decisions_match"] is True
        assert v["report_identical"] is None
        assert v["causal_identical"] is None
        assert v["ok"] is True


class TestTimeTravelQueries:
    def test_ledger_query_materializes_buffer_state(self, plain_log):
        payload = materialize(plain_log, 0.05, "ledger")
        assert payload["schema"] == PROV_SCHEMA
        assert payload["query"] == "ledger"
        assert payload["rows"], "no buffered ledger entries at t=0.05"
        row = payload["rows"][0]
        assert {"program", "rank", "region", "ts", "window", "sent"} <= set(row)

    def test_pending_query_shows_unresolved_frontier(self, plain_log):
        # Early in the run the U importers have issued requests that
        # cannot resolve yet (REGL needs history past the request).
        payload = materialize(plain_log, 0.005, "pending")
        assert payload["rows"], "no pending imports at t=0.005"
        assert all(r["program"] == "U" for r in payload["rows"])

    def test_matches_query_reads_log_without_replaying(self, plain_log):
        log = read_log(plain_log)
        full = materialize(log, float("inf"), "matches")
        assert len(full["rows"]) == len(log.matches)
        early = materialize(log, 0.01, "matches")
        assert len(early["rows"]) < len(full["rows"])
        assert all(row["now"] <= 0.01 for row in early["rows"])

    def test_unknown_query_is_rejected(self, plain_log):
        with pytest.raises(ProvenanceError, match="unknown query"):
            materialize(plain_log, 0.05, "frobnicate")


class TestDifferentialReplay:
    def test_unedited_diff_is_empty_and_identical(self, plain_log):
        d = differential_replay(plain_log)
        assert d["diff"]["empty"] is True
        assert d["diff"]["identical"] is True
        assert d["edits"] == {}

    def test_edited_fault_plan_diff_is_nonempty(self, plain_log):
        d = differential_replay(
            plain_log, fault_plan=FaultPlan(seed=3, drop=0.2, delay_jitter=5e-4)
        )
        assert d["diff"]["empty"] is False
        res = d["diff"]["resolutions"]
        assert res["changed"] or res["added"] or res["removed"]

    def test_edited_tolerance_diff_is_nonempty(self, plain_log):
        d = differential_replay(plain_log, tolerance=0.5)
        assert d["edits"]["tolerance"] == 0.5
        assert d["diff"]["empty"] is False

    def test_fault_plan_path_variant(self, tmp_path, plain_log):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"seed": 3, "drop": 0.2}))
        d = differential_replay(plain_log, fault_plan_path=plan_file)
        assert d["diff"]["empty"] is False

    def test_plan_and_path_together_is_an_error(self, tmp_path, plain_log):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text("{}")
        with pytest.raises(ProvenanceError, match="not both"):
            differential_replay(
                plain_log, fault_plan=CHAOS_PLAN, fault_plan_path=plan_file
            )

    def test_diff_causal_flags_added_and_removed(self):
        base = {
            "resolutions": [
                {
                    "connection": "F.d-U.d",
                    "request": 20.0,
                    "who": "U.0",
                    "answer_kind": "MATCH",
                    "case": "all_match_equal",
                    "retransmits": 0,
                }
            ],
            "buddy_skips": [],
        }
        after = {
            "resolutions": [
                {
                    "connection": "F.d-U.d",
                    "request": 40.0,
                    "who": "U.1",
                    "answer_kind": "MATCH",
                    "case": "all_match_equal",
                    "retransmits": 1,
                }
            ],
            "buddy_skips": [],
        }
        d = diff_causal(base, after)
        assert not d["empty"]
        assert len(d["resolutions"]["removed"]) == 1
        assert len(d["resolutions"]["added"]) == 1
        assert d["resolutions"]["changed"] == []


class TestReplayRefusals:
    def test_live_log_is_audit_only(self, tmp_path):
        p = tmp_path / "live.prov"
        rec = ProvenanceRecorder(p)
        rec.set_header(
            {"schema": PROV_SCHEMA, "t": "header", "runtime": "live"}
        )
        rec.close()
        with pytest.raises(ProvenanceError, match="audit-only"):
            replay(p)

    def test_aborted_log_is_refused(self, tmp_path):
        p = tmp_path / "aborted.prov"
        rec = ProvenanceRecorder(p)
        rec.set_header({"schema": PROV_SCHEMA, "t": "header", "runtime": "des"})
        rec.abort(RuntimeError("boom"))
        rec.close()
        with pytest.raises(ProvenanceError, match="aborted"):
            verify_replay(p)
