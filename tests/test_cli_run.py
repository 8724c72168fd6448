"""``repro run``: grid parsing, usage errors, failed cells, and the
checks made across a grid's rows."""

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
    """The checks ``run`` makes over its rows: answer consistency across
    fault plans and the buddy-help pair's comparison block.  (Each row is
    :func:`repro.bench.rows.run_row`; the goldens pin its numbers.)"""

    def chaos_argv(self):
        return ["run", "resilience", "-p", "exports=16", "-p", "requests=6",
                "--fault", "null", "--fault", CHAOS % 0.0, "--fault", CHAOS % 0.2]

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
        assert payload["runs"][0]["fault_plan"] is None
        assert payload["runs"][2]["fault_plan"]["drop"] == 0.2

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

    def test_fig7_pair_is_figures_7_and_8(self, capsys):
        """Figures 7 and 8 as one ``run``: ``p_s`` wastes nothing with help
        and four unit memcpys without; rank 0, past the request before it
        arrives, churns four either way."""
        code, payload = run_json(["run", "fig7", "-p", "buddy_help=true,false"], capsys)
        assert code == 0
        assert [r["p_s"]["t_ub"] for r in payload["runs"]] == [0.0, 4.0]
        comparison = payload["comparison"]
        assert comparison["t_ub_with_help"] == 4.0
        assert comparison["t_ub_without_help"] == 8.0
        assert comparison["t_ub_no_help_estimate"] == comparison["t_ub_without_help"]
