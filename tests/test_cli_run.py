"""``repro run``: grid parsing, usage errors, failed cells, and parity
with the bench runners the verb replaced."""

import json

import pytest

import repro.bench.rows
from repro.cli import _parse_grid, main

#: The resilience sweep's fault plan at drop rate *drop*.
CHAOS = '{"seed": 7, "drop": %s, "dup": 0.1, "delay_jitter": 5e-5, "reorder": 0.1}'


def run_json(argv, capsys):
    """``main(argv + --json)`` → (exit code, payload)."""
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestGridParsing:
    def test_whole_json_value_is_one_value(self):
        assert _parse_grid(["imports=[20.0,40.0]", "buddy_help=true"]) == {
            "imports": [[20.0, 40.0]],
            "buddy_help": [True],
        }

    def test_comma_list_is_one_value_per_piece(self):
        assert _parse_grid(["u_procs=4,8,16"]) == {"u_procs": [4, 8, 16]}
        assert _parse_grid(["imports=[20.0],[40.0]"]) == {"imports": [[20.0], [40.0]]}

    def test_bare_strings_stay_strings(self):
        assert _parse_grid(["buddy_help=False"]) == {"buddy_help": ["False"]}
        assert _parse_grid(["x=a,1"]) == {"x": ["a", 1]}

    @pytest.mark.parametrize("bad", ["exports", "=3"])
    def test_malformed_pair_refused(self, bad):
        with pytest.raises(ValueError, match="expected KEY=VALUE"):
            _parse_grid([bad])

    def test_repeated_key_refused(self):
        with pytest.raises(ValueError, match="given twice"):
            _parse_grid(["seed=1", "seed=2"])

    def test_cells_are_the_cartesian_product(self, capsys):
        code, payload = run_json(
            ["run", "demo", "-p", "exports=8", "-p", "seed=1,2",
             "-p", "buddy_help=true,false"],
            capsys,
        )
        assert code == 0
        assert [r["params"] for r in payload["runs"]] == [
            {"exports": 8, "seed": s, "buddy_help": b}
            for s in (1, 2) for b in (True, False)
        ]
        assert "comparison" not in payload  # four cells, not a buddy pair


class TestUsageErrors:
    """Each exits 2 with one ``error:`` line before anything runs."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["run", "demo", "-p", "bogus=1"], "valid params are buddy_help (bool)"),
            (["run", "demo", "-p", "buddy_help=False"], "is not bool"),
            (["run", "nope"], "registered scenarios"),
            (["run", "demo", "--fault", '{"dropp": 0.1}'], "unknown fault_plan keys"),
            (["run", "demo", "--fault", "[1]"], "JSON object or null"),
            (["run", "crash_hard"], "kills the process"),
            (["run", "demo", "-p", "seed=1,2", "--provenance", "x.prov"],
             "--provenance records one run"),
            (["run", "demo", "--baseline", "x.json"], "differ only in buddy_help"),
        ],
        ids=["unknown-param", "wrong-type", "unknown-scenario", "bad-fault-key",
             "fault-not-object", "crash-hard", "provenance-grid", "baseline-no-pair"],
    )
    def test_refused_before_running(self, argv, needle, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def never(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(repro.bench.rows, "fold_run", never)
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert needle in lines[0]
        assert captured.out == ""
        assert not (tmp_path / "x.prov").exists()


class TestFailedCell:
    def test_crash_is_a_row_with_an_error_and_exit_1(self, tmp_path, capsys):
        log = tmp_path / "crash.prov"
        code = main(["run", "crash", "-p", "seed=1", "--provenance", str(log), "--json"])
        captured = capsys.readouterr()
        assert code == 1
        (row,) = json.loads(captured.out)["runs"]
        assert row["error"] == "RuntimeError: injected crash after 10 exports"
        assert captured.err.splitlines() == [f"FAIL: crash seed=1: {row['error']}"]
        # The log is the aborted-run log, which replay refuses.
        assert main(["replay", str(log)]) == 2
        assert "aborted run" in capsys.readouterr().err

    def test_a_failed_cell_does_not_stop_the_grid(self, capsys):
        code, payload = run_json(
            ["run", "crash", "-p", "crash_after=0,100", "-p", "exports=12"], capsys
        )
        assert code == 1
        failed, clean = payload["runs"]
        assert "error" in failed and "error" not in clean
        assert clean["p_s"]["decisions"]


class TestParity:
    """Every removed verb's numbers, bit-identical through ``run``."""

    def test_fig4_rows_equal_run_figure4_once(self, capsys):
        from repro.bench.figure4 import run_figure4_once
        from repro.scenarios import Figure4Spec

        spec = Figure4Spec(u_procs=16, exports=61, seed=7)
        code, payload = run_json(
            ["run", "fig4", "-p", "u_procs=16", "-p", "exports=61", "-p", "seed=7000,7001"],
            capsys,
        )
        assert code == 0
        for index, row in enumerate(payload["runs"]):
            want = run_figure4_once(spec, run_index=index)
            ps = row["p_s"]
            assert ps["series"] == want.series
            assert ps["decisions"] == want.decisions
            assert ps["t_ub"] == want.t_ub
            assert ps["optimal_iteration"] == want.optimal_iteration
            assert ps["skip_fraction"] == want.skip_fraction
            assert row["metrics"]["paper"]["buddy_helps_sent"] == want.buddy_messages
            assert row["sim_time"] == want.sim_time

    @pytest.mark.parametrize("buddy", [True, False])
    def test_fig3_rows_equal_the_buffering_runners(self, buddy, capsys):
        from repro.bench.scenarios import run_exporter_slower, run_importer_slower

        flag = json.dumps(buddy)
        code, payload = run_json(
            ["run", "fig3a", "-p", "exports=60", "-p", f"buddy_help={flag}"], capsys
        )
        assert code == 0
        rows = payload["runs"]
        code, payload = run_json(
            ["run", "fig3b", "-p", "exports=60", "-p", "buddy_help=true,false"], capsys
        )
        assert code == 0
        rows.append(payload["runs"][0 if buddy else 1])
        wants = [run_importer_slower(60, buddy), run_exporter_slower(60, buddy)]
        for row, want in zip(rows, wants):
            ps = row["p_s"]
            assert ps["buffered_fraction"] == want.buffered_fraction
            assert ps["skip_fraction"] == want.skip_fraction
            assert ps["t_ub"] == want.buffer_stats.t_ub
            assert ps["export_time"] == want.exporter_export_time_total
            assert ps["decisions"] == want.decisions
            assert len(row["answers"]["0"]) == want.requests
            assert row["sim_time"] == want.sim_time

    def chaos_argv(self):
        return ["run", "resilience", "-p", "exports=16", "-p", "requests=6",
                "--fault", "null", "--fault", CHAOS % 0.0, "--fault", CHAOS % 0.2]

    def test_fault_grid_equals_run_resilience_sweep(self, capsys):
        from repro.bench.resilience import run_resilience_sweep

        code, payload = run_json(self.chaos_argv(), capsys)
        assert code == 0
        assert payload["answers_consistent"] is True
        sweep = run_resilience_sweep(drop_rates=(0.0, 0.2), exports=16, requests=6, seed=7)
        assert len(payload["runs"]) == len(sweep.runs) == 3
        for row, want in zip(payload["runs"], sweep.runs):
            assert row["answers_match"] is True
            assert row["answers"] == {
                str(rank): [list(a) for a in log] for rank, log in want.answers.items()
            }
            assert row["mean_answer_latency"] == want.mean_answer_latency
            assert row["p_s"]["t_ub"] == want.t_ub
            assert row["p_s"]["decisions"].get("skip", 0) == want.skip_count
            assert row["counters"]["retransmissions"] == want.retransmissions
            assert row["counters"]["dup_discards"] == want.dup_discards
            assert row["sim_time"] == want.sim_time
        assert payload["runs"][0]["fault_plan"] is None
        assert payload["runs"][2]["fault_plan"]["drop"] == 0.2

    def test_a_divergent_cell_exits_1(self, monkeypatch, capsys):
        real = repro.bench.rows.fold_run

        def divergent(result):
            fold = real(result)
            if result.options.fault_plan is not None and result.options.fault_plan.drop:
                request_ts, _ = fold.answers[0][0]
                fold.answers[0][0] = (request_ts, -1.0)
            return fold

        monkeypatch.setattr(repro.bench.rows, "fold_run", divergent)
        code, payload = run_json(self.chaos_argv(), capsys)
        assert code == 1
        assert payload["answers_consistent"] is False
        assert [r["answers_match"] for r in payload["runs"]] == [True, True, False]

    def test_demo_pair_comparison_equals_the_report(self, capsys):
        from repro.obs import validate_report_payload
        from repro.scenarios import build

        code, payload = run_json(["run", "demo", "-p", "buddy_help=true,false"], capsys)
        assert code == 0
        assert validate_report_payload(payload) == []
        on = build("demo", {"buddy_help": True}).run().paper_metrics
        off = build("demo", {"buddy_help": False}).run().paper_metrics
        assert payload["comparison"] == {
            "t_ub_with_help": on.t_ub_total,
            "t_ub_without_help": off.t_ub_total,
            "t_ub_saving": off.t_ub_total - on.t_ub_total,
            "t_ub_no_help_estimate": on.t_ub_no_help_estimate,
        }
        # Either order of the two cells is the same comparison.
        code, swapped = run_json(["run", "demo", "-p", "buddy_help=false,true"], capsys)
        assert swapped["comparison"] == payload["comparison"]
