"""Tests for the ``python -m repro`` command-line interface."""

import json
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "1.0" in out


class TestFigure4:
    """Figure 4 is ``repro run fig4``: one row per cell."""

    def test_runs_and_reports(self, capsys):
        rc = main(["run", "fig4", "-p", "u_procs=32", "-p", "exports=101"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig4 u_procs=32 exports=101" in out
        assert "skip" in out and "opt iter" in out and "T_ub ms" in out

    def test_no_buddy_flag(self, capsys):
        rc = main(
            ["run", "fig4", "-p", "u_procs=4", "-p", "exports=61", "-p", "buddy_help=false"]
        )
        assert rc == 0
        assert "buddy_help=false" in capsys.readouterr().out

    def test_json_dump(self, capsys):
        rc = main(
            ["run", "fig4", "-p", "u_procs=16", "-p", "exports=61", "-p", "seed=1,2",
             "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["params"] for r in payload["runs"]] == [
            {"u_procs": 16, "exports": 61, "seed": seed} for seed in (1, 2)
        ]
        assert len(payload["runs"][0]["p_s"]["series"]) == 61


class TestTraces:
    """Figures 5, 7 and 8 are ``run --trace`` rows of ``fig5`` and ``fig7``."""

    def test_all_figures(self, capsys):
        assert main(["run", "fig5", "--trace"]) == 0
        assert main(["run", "fig7", "-p", "buddy_help=true,false", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "== fig5\n" in out
        assert "== fig7 buddy_help=true\n" in out
        assert "== fig7 buddy_help=false\n" in out
        assert "receive buddy-help {D@20, YES, D@19.6}." in out

    def test_single_figure(self, capsys):
        assert main(["run", "fig7", "-p", "buddy_help=false", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "== fig7 buddy_help=false" in out
        assert "fig5" not in out and "buddy_help=true" not in out
        # The counts under the trace are p_s.decisions (Figure 8).
        assert "1 skips, 9 memcpys, T_ub = 4" in out

    def test_chrome_export(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["run", "demo", "--chrome", str(path)]) == 0
        assert str(path) in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "M"} <= phases

    def test_chrome_records_the_named_scenario(self, tmp_path, capsys):
        path = tmp_path / "fig5.json"
        assert main(["run", "fig5", "--chrome", str(path), "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["runs"][0]
        # fig5's importer has one rank (demo's has two), and its run
        # lasts 69 virtual seconds (demo's 0.18).
        assert row["chrome"]["threads"] == ["F.p0", "F.p1", "F.rep", "U.p0"]
        events = json.loads(path.read_text())["traceEvents"]
        assert max(e.get("ts", 0) for e in events) > 60e6

    @pytest.mark.parametrize(
        "flag", [["--chrome", "{path}"], ["--causal"]], ids=["chrome", "causal"]
    )
    def test_recording_a_grid_is_a_usage_error(self, flag, tmp_path, capsys):
        path = tmp_path / "out.json"
        argv = ["run", "fig7", "-p", "buddy_help=true,false",
                *[a.format(path=path) for a in flag]]
        assert main(argv) == 2
        assert f"{flag[0]} records one run; the grid has 2 cells" in capsys.readouterr().err
        assert not path.exists()


#: The buddy-help on/off pair of the demo: what ``comparison`` is made of.
DEMO_PAIR = ["run", "demo", "-p", "buddy_help=true,false"]


class TestReport:
    def test_human_output(self, capsys):
        assert main(DEMO_PAIR) == 0
        out = capsys.readouterr().out
        assert "T_ub" in out
        assert "buddy-help" in out

    def test_json_schema_and_positive_saving(self, capsys):
        from repro.obs import REPORT_SCHEMA, validate_report_payload

        assert main([*DEMO_PAIR, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == REPORT_SCHEMA
        assert validate_report_payload(payload) == []
        cmp = payload["comparison"]
        assert cmp["t_ub_saving"] > 0
        # The measured counterfactual equals the real no-help run.
        assert cmp["t_ub_no_help_estimate"] == pytest.approx(
            cmp["t_ub_without_help"]
        )


class TestScenarios:
    def test_runs(self, capsys):
        assert main(["run", "fig3a", "-p", "exports=40"]) == 0
        assert main(["run", "fig3b", "-p", "exports=40", "-p", "buddy_help=true,false"]) == 0
        out = capsys.readouterr().out
        assert "fig3a exports=40" in out
        assert "fig3b exports=40 buddy_help=true" in out
        assert "fig3b exports=40 buddy_help=false" in out


class TestValidateConfig:
    """``lint CONFIG`` is the one config check: ``CouplingConfig.validate``'s
    endpoint rules are lint findings."""

    def test_valid_file(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("A c /x 2\nB c /y 2\n#\nA.r B.r REGL 0.5\n")
        assert main(["lint", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "OK: no findings (1 target(s) examined)" in out

    def test_invalid_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("A c /x 2\nA.r GHOST.r REGL 0.5\n")
        assert main(["lint", str(cfg)]) == 1
        assert "error G101 connection A.r->GHOST.r: unknown importer program 'GHOST'" in (
            capsys.readouterr().out
        )

    def test_region_imported_twice_is_invalid(self, tmp_path, capsys):
        # What lint calls G108 and the runtime refuses at construction.
        cfg = tmp_path / "two.cfg"
        cfg.write_text("A c /a 2\nB c /b 2\nC c /c 2\n#\nA.d C.d REGL 2.5\nB.d C.d REGL 2.5\n")
        assert main(["lint", str(cfg)]) == 1
        assert "C.d is imported over 2 connections" in capsys.readouterr().out
        assert main(["lint", str(cfg), "--json"]) == 1
        (finding,) = json.loads(capsys.readouterr().out)["findings"]
        assert (finding["rule"], finding["severity"]) == ("G108", "error")

    def test_missing_file(self, capsys):
        # Unreadable is a usage error; invalid stays 1.
        assert main(["lint", "/nonexistent/x.cfg"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_warning_surfaced(self, tmp_path, capsys):
        # A syntactically valid config with no connections -> no findings,
        # but exercise the plain-OK path.
        cfg = tmp_path / "warn.cfg"
        cfg.write_text("A c /x 2\n")
        assert main(["lint", str(cfg)]) == 0


class TestExperimentsReport:
    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        rc = main(["experiments", "--exports", "81", "--runs", "1",
                   "--out", str(path)])
        assert rc == 0
        text = path.read_text()
        assert "# Measured reproduction report" in text
        assert "Figure 4" in text
        assert "Figure 5: skip runs of 4 then 7" in text

    def test_report_to_stdout(self, capsys):
        rc = main(["experiments", "--exports", "81", "--runs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| U procs |" in out

    @pytest.fixture
    def no_runs(self, monkeypatch):
        import repro.bench.experiments_report as report

        def never(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(report, "figure4_rows", never)
        monkeypatch.setattr(report, "run_row", never)

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_refused(self, runs, no_runs, capsys):
        assert main(["experiments", "--exports", "81", "--runs", runs]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --runs {runs} is not >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("exports", ["0", "100001"])
    def test_exports_outside_the_fig4_range_refused(self, exports, no_runs, capsys):
        assert main(["experiments", "--exports", exports, "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --exports {exports} is not int 1..100000\n"
        assert captured.out == ""


class TestJsonMode:
    """Every subcommand honours ``--json`` (see docs/cli.md)."""

    def test_version_json(self, capsys):
        assert main(["version", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == "1.0.0"

    def test_figure4_json_stdout(self, capsys):
        rc = main(["run", "fig4", "-p", "u_procs=4", "-p", "exports=61", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["params"]["u_procs"] == 4
        assert len(payload["runs"]) == 1

    def test_traces_json(self, capsys):
        assert main(["run", "fig5", "--trace", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["runs"]
        assert row["p_s"]["trace"][0] == "  1  export D@1.6, call memcpy."
        assert row["p_s"]["decisions"]["skip"] == 11

    def test_scenarios_json(self, capsys):
        assert main(["run", "fig3b", "-p", "exports=40", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["runs"][0]["p_s"]["buffered_fraction"] <= 1.0

    def test_chaos_json(self, capsys):
        plan = '{"seed": 7, "drop": %s, "dup": 0.1, "delay_jitter": 5e-5}'
        rc = main(["run", "resilience", "-p", "exports=9", "-p", "requests=4",
                   "--fault", "null", "--fault", plan % 0.0, "--fault", plan % 0.1,
                   "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["answers_consistent"] is True
        assert rc == 0
        assert len(payload["runs"]) == 3  # fault-free + two drop rates

    def test_validate_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("A c /x 2\nB c /y 2\n#\nA.r B.r REGL 0.5\n")
        assert main(["lint", str(cfg), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["examined"] == 1

    def test_validate_config_json_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("A c /x 2\nA.r GHOST.r REGL 0.5\n")
        assert main(["lint", str(cfg), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 1
        assert payload["findings"][0]["rule"] == "G101"

    def test_lint_json(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("A c /x 2\nB c /y 2\n#\nA.r B.r REGL 0.5\n")
        assert main(["lint", str(cfg), "--json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_experiments_json(self, capsys):
        rc = main(["experiments", "--exports", "81", "--runs", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "# Measured reproduction report" in payload["report_markdown"]


class TestCausalTraceCli:
    def test_causal_report_written(self, tmp_path, capsys):
        path = tmp_path / "causal.json"
        rc = main(["run", "demo", "--causal", str(path), "--json"])
        assert rc == 0
        (row,) = json.loads(capsys.readouterr().out)["runs"]
        assert row["causal"]["path"] == str(path)
        assert row["causal"]["resolutions"] == 4
        assert row["causal"]["buddy_skips"] == 4
        report = json.loads(path.read_text())
        assert report["schema"] == "repro.causal/v1"
        for r in report["resolutions"]:
            assert r["chain"][0] == "request"
            assert r["chain"][-1] == "complete"
            assert sum(r["stages"].values()) == pytest.approx(r["latency"])

    def test_causal_summary_to_stdout(self, capsys):
        rc = main(["run", "demo", "--causal"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "causal trace:" in out
        assert "buddy-skip" in out

    def test_causal_chrome_gains_flow_arrows(self, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace

        chrome = tmp_path / "chrome.json"
        rc = main(
            ["run", "demo", "--causal", str(tmp_path / "c.json"),
             "--chrome", str(chrome)]
        )
        assert rc == 0
        obj = json.loads(chrome.read_text())
        assert validate_chrome_trace(obj) == []
        phases = {e["ph"] for e in obj["traceEvents"]}
        assert {"s", "f"} <= phases
        assert "causal flow arrows" in capsys.readouterr().out

    def test_chrome_without_causal_has_no_flows(self, tmp_path, capsys):
        chrome = tmp_path / "chrome.json"
        assert main(["run", "demo", "--chrome", str(chrome)]) == 0
        obj = json.loads(chrome.read_text())
        assert not {"s", "f"} & {e["ph"] for e in obj["traceEvents"]}


class TestReportBaseline:
    def current_payload(self, capsys) -> dict:
        assert main([*DEMO_PAIR, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_self_baseline_is_clean(self, tmp_path, capsys):
        payload = self.current_payload(capsys)
        base = tmp_path / "base.json"
        base.write_text(json.dumps(payload))
        rc = main([*DEMO_PAIR, "--baseline", str(base), "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["baseline"]["regressions"] == []
        diffed = {row["key"] for row in out["baseline"]["diff"]}
        assert "t_ub_with_help" in diffed and "t_ub_saving" in diffed

    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        payload = self.current_payload(capsys)
        # A baseline that was much better than today: halve the T_ub
        # costs and triple the saving.
        payload["comparison"]["t_ub_with_help"] *= 0.5
        payload["comparison"]["t_ub_saving"] *= 3.0
        base = tmp_path / "base.json"
        base.write_text(json.dumps(payload))
        rc = main([*DEMO_PAIR, "--baseline", str(base), "--json"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert set(out["baseline"]["regressions"]) == {
            "t_ub_with_help", "t_ub_saving"
        }

    def test_within_threshold_passes(self, tmp_path, capsys):
        payload = self.current_payload(capsys)
        payload["comparison"]["t_ub_with_help"] *= 0.95  # 5% drift
        base = tmp_path / "base.json"
        base.write_text(json.dumps(payload))
        assert main([*DEMO_PAIR, "--baseline", str(base), "--json"]) == 0
        capsys.readouterr()

    def test_unreadable_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([*DEMO_PAIR, "--baseline", str(bad)]) == 2
        assert main([*DEMO_PAIR, "--baseline", str(tmp_path / "nope.json")]) == 2
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"schema": "wrong"}))
        assert main([*DEMO_PAIR, "--baseline", str(invalid)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_baseline_without_comparison_is_usage_error(self, tmp_path, capsys):
        # A valid report with nothing to diff against used to print an
        # empty diff and pass; a fleet aggregate payload is refused too.
        assert main(["run", "demo", "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert "comparison" not in single
        for payload in (single, {"schema": "repro.report/v1",
                                 "aggregate": {"groups": {}, "totals": {}}}):
            base = tmp_path / "base.json"
            base.write_text(json.dumps(payload))
            assert main([*DEMO_PAIR, "--baseline", str(base)]) == 2
            err = capsys.readouterr().err
            assert "no comparison block" in err and str(base) in err


class TestMonitor:
    def snapshot(self, t: float, final: bool = False) -> dict:
        return {
            "schema": "repro.telemetry/v1",
            "time": t,
            "final": final,
            "programs": {
                "F": {
                    "ranks": 2, "alive": 0 if final else 2,
                    "last_export_ts": 46.6, "exports": 92,
                    "pending_imports": 0, "imports_completed": 0,
                    "buddy_skips": 4, "t_ub": 4e-6, "compute_time": 0.1,
                }
            },
            "totals": {
                "pending_imports": 0 if final else 2, "buddy_skips": 4,
                "t_ub": 4e-6, "ctl_messages": 23, "ctl_bytes": 1472,
                "data_messages": 8, "data_bytes": 8192,
                "retransmissions": 0, "dup_discards": 0,
            },
        }

    def write_log(self, path, records) -> None:
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )

    def test_shows_latest_snapshot(self, tmp_path, capsys):
        log = tmp_path / "tele.jsonl"
        self.write_log(log, [self.snapshot(0.1), self.snapshot(0.2, final=True)])
        assert main(["monitor", str(log)]) == 0
        out = capsys.readouterr().out
        assert "FINAL" in out and "t=0.200" in out
        assert "F: alive=0/2" in out and "buddy_skips=4" in out

    def test_json_mode_emits_record(self, tmp_path, capsys):
        log = tmp_path / "tele.jsonl"
        self.write_log(log, [self.snapshot(0.1, final=True)])
        assert main(["monitor", str(log), "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["final"] is True

    def test_follow_stops_at_final(self, tmp_path, capsys):
        log = tmp_path / "tele.jsonl"
        self.write_log(log, [self.snapshot(0.1), self.snapshot(0.2, final=True)])
        assert main(["monitor", str(log), "--follow", "--timeout", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("t=0.") == 2  # every snapshot rendered, then stop

    def test_follow_times_out_without_final(self, tmp_path, capsys):
        log = tmp_path / "tele.jsonl"
        self.write_log(log, [self.snapshot(0.1)])
        rc = main(
            ["monitor", str(log), "--follow",
             "--timeout", "0.3", "--interval", "0.05"]
        )
        assert rc == 2  # EXIT_USAGE: gave up waiting, not a finding
        assert "timeout" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "none.jsonl")]) == 2
        assert "no telemetry records" in capsys.readouterr().err

    def test_no_path_and_no_attach_is_usage_error(self, capsys):
        assert main(["monitor"]) == 2
        assert "PATH or --attach" in capsys.readouterr().err

    def test_partial_tail_line_is_skipped(self, tmp_path, capsys):
        log = tmp_path / "tele.jsonl"
        log.write_text(
            json.dumps(self.snapshot(0.1, final=True)) + "\n" + '{"half'
        )
        assert main(["monitor", str(log)]) == 0
        assert "FINAL" in capsys.readouterr().out

    def test_a_finished_gzip_stream_is_read(self, tmp_path, capsys):
        from repro.obs import JsonlSink
        from repro.scenarios import build

        log = tmp_path / "tele.jsonl.gz"
        sink = JsonlSink(str(log))
        build("demo").run(telemetry_sinks=(sink,), telemetry_interval=0.05)
        assert sink.records >= 2
        assert main(["monitor", str(log)]) == 0
        assert "FINAL" in capsys.readouterr().out
        assert main(["monitor", str(log), "--follow", "--timeout", "5"]) == 0
        heads = [x for x in capsys.readouterr().out.splitlines() if not x.startswith(" ")]
        assert len(heads) == sink.records and heads[-1].startswith("FINAL")

    def test_a_gzip_member_still_being_written_has_no_new_record_yet(self, tmp_path, capsys):
        from repro.obs import JsonlSink

        log = tmp_path / "tele.jsonl.gz"
        sink = JsonlSink(str(log))
        try:
            for t in (0.1, 0.2):
                sink.emit(self.snapshot(t))
            assert main(["monitor", str(log), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["time"] == 0.2
            cut = tmp_path / "cut.jsonl.gz"
            cut.write_bytes(log.read_bytes()[:-4])  # inside the last flushed block
            rc = main(["monitor", str(cut), "--follow",
                       "--timeout", "0.2", "--interval", "0.05"])
            assert rc == 2  # waited for a final record, as on a plain file
            captured = capsys.readouterr()
            assert "t=0.100" in captured.out and "timeout" in captured.err
        finally:
            sink.close()


    def test_follow_reads_each_record_of_a_growing_gzip_stream_once(
        self, tmp_path, capsys, monkeypatch
    ):
        """20 000 records appended in bursts while ``--follow`` polls:
        every record is shown once, in order, and decoded once."""
        import threading
        import time

        from repro.obs import JsonlSink

        log = tmp_path / "tele.jsonl.gz"
        n, burst = 20_000, 500
        sink = JsonlSink(str(log))
        sink.emit({"time": 0.0, "final": False})

        def grow():
            for i in range(1, n):
                sink.emit({"time": float(i), "final": i == n - 1})
                if i % burst == 0:
                    time.sleep(0.005)  # a poll lands mid-stream
            sink.close()

        decoded = 0
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            nonlocal decoded
            decoded += 1
            return loads(text, *args, **kwargs)

        writer = threading.Thread(target=grow)
        monkeypatch.setattr(json, "loads", counting_loads)
        writer.start()
        try:
            rc = main(["monitor", str(log), "--follow", "--json",
                       "--interval", "0.002", "--timeout", "60"])
        finally:
            writer.join()
            monkeypatch.undo()
        assert rc == 0
        assert decoded == n  # no record is parsed twice
        shown = [json.loads(line)["time"] for line in capsys.readouterr().out.splitlines()]
        assert shown == [float(i) for i in range(n)]


class TestRecordReplay:
    def test_record_offers_every_scenario_but_the_process_killer(self, tmp_path, capsys):
        from repro.scenarios import scenario_names

        parser = build_parser()
        for name in scenario_names():
            assert parser.parse_args(["run", name, "--provenance", "x.prov"])
        # crash_hard would os._exit(17) this process: a usage error instead.
        log = tmp_path / "x.prov"
        assert main(["run", "crash_hard", "--provenance", str(log)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario 'crash_hard'")
        assert not log.exists()

    def test_record_then_verify_round_trip(self, tmp_path, capsys):
        log = tmp_path / "run.prov"
        plan = '{"seed": 5, "drop": 0.1, "dup": 0.05, "delay_jitter": 2e-4}'
        rc = main(["run", "demo", "-p", "seed=5", "--fault", plan, "--provenance", str(log)])
        assert rc == 0
        assert f"recorded -> {log}" in capsys.readouterr().out
        rc = main(["replay", str(log), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["report_identical"] and payload["causal_identical"]

    def test_cross_backend_replay(self, tmp_path, capsys):
        log = tmp_path / "run.prov"
        assert main(["run", "demo", "--provenance", str(log), "--json"]) == 0
        capsys.readouterr()
        # The log was recorded on the default (sorted) engine.
        rc = main(["replay", str(log), "--match-backend", "legacy", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cross_backend"] and payload["decisions_match"]

    def test_time_travel_query(self, tmp_path, capsys):
        log = tmp_path / "run.prov"
        assert main(["run", "demo", "--provenance", str(log), "--json"]) == 0
        capsys.readouterr()
        rc = main(
            ["replay", str(log), "--at", "0.02", "--query", "ledger", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == "ledger"
        assert payload["rows"]

    def test_edit_tolerance_diff(self, tmp_path, capsys):
        log = tmp_path / "run.prov"
        assert main(["run", "demo", "--provenance", str(log), "--json"]) == 0
        capsys.readouterr()
        rc = main(["replay", str(log), "--edit-tolerance", "0.5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edits"] == {"tolerance": 0.5}
        assert payload["diff"]["empty"] is False

    def test_edit_with_unknown_plan_key_is_usage_error(self, tmp_path, capsys):
        log, plan = tmp_path / "run.prov", tmp_path / "plan.json"
        assert main(["run", "demo", "--provenance", str(log), "--json"]) == 0
        plan.write_text('{"dropp": 0.3}')
        assert main(["replay", str(log), "--edit", str(plan)]) == 2
        assert "unknown fault_plan keys ['dropp']" in capsys.readouterr().err

    def test_missing_log_is_usage_error(self, tmp_path, capsys):
        rc = main(["replay", str(tmp_path / "nope.prov")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_garbage_log_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.prov"
        bad.write_text("this is not a provenance log\n")
        rc = main(["replay", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestExitCodeContract:
    """Exit 1 means findings, never a crash (``docs/cli.md``)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "demo", "--provenance", "{path}"],
            ["run", "fig5", "--chrome", "{path}"],
            ["run", "fig5", "--causal", "{path}"],
            ["experiments", "--exports", "21", "--runs", "1", "--out", "{path}"],
            ["verify", "--max-states", "200", "--mutate", "no_answer_cache",
             "--cex", "{path}"],
        ],
        ids=["record", "run-chrome", "run-causal",
             "experiments-out", "verify-cex"],
    )
    def test_unwritable_output_path_is_a_usage_error(self, argv, tmp_path, capsys):
        path = str(tmp_path / "no" / "such" / "dir" / "out")
        assert main([a.format(path=path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_any_other_crash_is_a_traceback_and_exit_2(self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.cli, "_cmd_version", boom)
        assert main(["version"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_bench_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb", ["figure4", "scenarios", "chaos", "record", "report", "traces", "trace"]
    )
    def test_verbs_folded_into_run_are_usage_errors(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_validate_config_folded_into_lint_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate-config", "x.cfg"])
        assert exc.value.code == 2
        assert "invalid choice: 'validate-config'" in capsys.readouterr().err

    def test_match_backend_flags_read_the_one_registry_and_default(self):
        from repro.match import DEFAULT_MATCH_BACKEND, MATCH_BACKENDS

        parser = build_parser()
        assert parser.parse_args(["verify"]).match_backend == DEFAULT_MATCH_BACKEND
        # replay defaults to whatever the log recorded, not to a name.
        assert parser.parse_args(["replay", "x.prov"]).match_backend is None
        for name in MATCH_BACKENDS:
            for argv in (["verify"], ["replay", "x.prov"]):
                args = parser.parse_args([*argv, "--match-backend", name])
                assert args.match_backend == name

    def test_subcommands_match_docstring_and_docs(self):
        (sub,) = build_parser()._subparsers._group_actions
        # An alias maps to its primary's parser, whose prog names the primary.
        parsed = {p.prog.split()[-1] for p in sub.choices.values()}
        in_docstring = set(re.findall(r"(?m)^``([a-z0-9-]+)``", repro.cli.__doc__))
        cli_md = Path(__file__).resolve().parents[1] / "docs" / "cli.md"
        in_docs = set(re.findall(r"(?m)^### `repro ([a-z0-9-]+)`", cli_md.read_text()))
        assert parsed == in_docstring == in_docs
