"""CLI surface of the coupling service: sessions subcommands and
``repro monitor --attach`` exit-code contract, against a live server."""

from __future__ import annotations

import json
from typing import Iterator

import pytest

from repro.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main
from repro.obs import validate_report_payload
from repro.serve import ServeConfig

from tests.serve.conftest import ServerHandle, start_server


@pytest.fixture(scope="module")
def cli_server() -> Iterator[ServerHandle]:
    handle, stop = start_server(
        ServeConfig(workers=2, max_sessions=32, drain_timeout=20.0)
    )
    try:
        yield handle
    finally:
        stop()


def submit(cli_server: ServerHandle, capsys, *extra: str) -> str:
    rc = main(
        ["sessions", "submit", "--url", cli_server.url, "--json",
         "--param", "exports=12", "--param", "imports=[4.0, 8.0]",
         "--param", "seed=3", *extra]
    )
    assert rc == EXIT_OK
    return json.loads(capsys.readouterr().out)["id"]


class TestSessionsCli:
    def test_submit_wait_report_roundtrip(self, cli_server, capsys):
        sid = submit(cli_server, capsys, "--label", "cli-roundtrip")
        assert main(["sessions", "wait", sid, "--url", cli_server.url]) == EXIT_OK
        capsys.readouterr()
        assert main(["sessions", "report", sid, "--url", cli_server.url]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.report/v1"
        assert report["runs"][0]["name"] == "cli-roundtrip"

    def test_submit_wait_flag_blocks_until_done(self, cli_server, capsys):
        rc = main(
            ["sessions", "submit", "--url", cli_server.url, "--wait",
             "--param", "exports=12", "--param", "imports=[4.0, 8.0]"]
        )
        assert rc == EXIT_OK
        assert "done" in capsys.readouterr().out

    def test_param_values_are_checked_not_coerced(self, cli_server, capsys):
        # "False" is a string, not JSON false: it used to run buddy-help ON.
        for pair in ("buddy_help=False", "exports=46.9", "exprots=3"):
            rc = main(
                ["sessions", "submit", "--url", cli_server.url, "--param", pair]
            )
            assert rc == EXIT_USAGE
            assert "valid params are" in capsys.readouterr().err
        sid = submit(cli_server, capsys, "--param", "buddy_help=false")
        assert main(["sessions", "wait", sid, "--url", cli_server.url]) == EXIT_OK
        capsys.readouterr()

    def test_list_shows_sessions(self, cli_server, capsys):
        sid = submit(cli_server, capsys, "--label", "cli-list")
        main(["sessions", "wait", sid, "--url", cli_server.url])
        capsys.readouterr()
        assert main(["sessions", "list", "--url", cli_server.url]) == EXIT_OK
        out = capsys.readouterr().out
        assert sid in out and "cli-list" in out

    def test_report_of_unfinished_session_is_findings(self, cli_server, capsys):
        sid = submit(cli_server, capsys)
        # 409 (no report yet) must map to EXIT_FINDINGS, not a usage error —
        # unless the tiny session already finished, in which case OK.
        rc = main(["sessions", "report", sid, "--url", cli_server.url])
        assert rc in (EXIT_OK, EXIT_FINDINGS)
        main(["sessions", "wait", sid, "--url", cli_server.url])
        capsys.readouterr()

    def test_unreachable_server_is_usage_error(self, capsys):
        rc = main(["sessions", "list", "--url", "http://127.0.0.1:1"])
        assert rc == EXIT_USAGE
        assert "cannot reach" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("pairs", "error"),
        [
            (["seed=1", "seed=2"], "error: param 'seed' given twice\n"),
            (["u_procs=4,8"], "error: --param u_procs takes one value, got 2\n"),
        ],
        ids=["repeated-key", "comma-list"],
    )
    def test_one_value_per_param_is_checked_before_any_request(
        self, pairs, error, monkeypatch, capsys
    ):
        from repro.serve.client import ServeClient

        requests: list[tuple] = []
        monkeypatch.setattr(ServeClient, "_request", lambda *a, **k: requests.append(a))
        argv = ["sessions", "submit", "--url", "http://127.0.0.1:1"]
        for pair in pairs:
            argv += ["--param", pair]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == error
        assert requests == []


class TestMonitorAttachCli:
    def test_attach_streams_to_final_and_exits_ok(self, cli_server, capsys):
        sid = submit(cli_server, capsys, "--interval", "0.01")
        rc = main(["monitor", "--attach", f"{cli_server.url}/sessions/{sid}"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "FINAL" in out

    def test_attach_without_session_picks_latest(self, cli_server, capsys):
        submit(cli_server, capsys)
        rc = main(["monitor", "--attach", cli_server.url])
        assert rc == EXIT_OK
        capsys.readouterr()

    def test_attach_unknown_session_is_usage_error(self, cli_server, capsys):
        rc = main(
            ["monitor", "--attach", f"{cli_server.url}/sessions/s-0-nope"]
        )
        assert rc == EXIT_USAGE
        capsys.readouterr()

    def test_attach_unreachable_is_usage_error(self, capsys):
        # Bare base URL: fails while listing sessions.
        rc = main(["monitor", "--attach", "http://127.0.0.1:1"])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err
        # Session URL: fails inside the stream; once the reconnect
        # budget (here zero) is exhausted the contract is still 2.
        rc = main([
            "monitor", "--attach", "http://127.0.0.1:1/sessions/s-1-x",
            "--retries", "0",
        ])
        assert rc == EXIT_USAGE
        assert "connection error" in capsys.readouterr().err

class TestWatchCli:
    @pytest.fixture(autouse=True)
    def _seeded_fleet(self, cli_server, capsys):
        # One finished demo session so the rollup has a scenario to
        # evaluate; earlier classes may have added more — every rule
        # below is pinned to tolerate that.
        sid = submit(cli_server, capsys, "--label", "watch-seed")
        main(["sessions", "wait", sid, "--url", cli_server.url])
        capsys.readouterr()

    def test_clean_fleet_exits_ok(self, cli_server, capsys):
        rc = main([
            "watch", cli_server.url,
            "--rule", "demo:sessions_total >= 1",
            "--rule", "demo:t_ub_p95 >= 0",
        ])
        assert rc == EXIT_OK
        assert "fleet healthy" in capsys.readouterr().out

    def test_tripped_rule_exits_findings(self, cli_server, capsys):
        rc = main(
            ["watch", cli_server.url, "--rule", "demo:sessions_total < 1"]
        )
        assert rc == EXIT_FINDINGS
        captured = capsys.readouterr()
        assert "ALERT [demo]" in captured.out
        assert "SLO rule(s) violated" in captured.err

    def test_json_payload_shape(self, cli_server, capsys):
        rc = main([
            "watch", cli_server.url, "--json",
            "--rule", "demo:errors <= 0",
            "--rule", "demo:sessions_total < 1",
        ])
        assert rc == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.report/v1"
        assert validate_report_payload(payload) == []
        assert payload["rules"] == [
            "demo:errors <= 0", "demo:sessions_total < 1",
        ]
        assert payload["evaluations"] == 1
        assert [a["rule"] for a in payload["alerts"]] == [
            "demo:sessions_total < 1"
        ]

    def test_rules_file_and_alerts_jsonl(self, cli_server, capsys, tmp_path):
        rules = tmp_path / "slo.rules"
        rules.write_text(
            "# fleet SLOs\n\ndemo:sessions_total < 1\ndemo:errors <= 0\n"
        )
        alerts_path = tmp_path / "alerts.jsonl"
        rc = main([
            "watch", cli_server.url,
            "--rules-file", str(rules), "--alerts", str(alerts_path),
        ])
        assert rc == EXIT_FINDINGS
        capsys.readouterr()
        lines = [json.loads(x) for x in alerts_path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["schema"] == "repro.report/v1"
        assert [a["rule"] for a in lines[0]["alerts"]] == ["demo:sessions_total < 1"]

    def test_malformed_rule_is_usage_error(self, cli_server, capsys):
        rc = main(["watch", cli_server.url, "--rule", "bogus_metric < 1"])
        assert rc == EXIT_USAGE
        assert "unknown metric" in capsys.readouterr().err

    def test_no_rules_is_usage_error(self, cli_server, capsys):
        rc = main(["watch", cli_server.url])
        assert rc == EXIT_USAGE
        assert "at least one --rule" in capsys.readouterr().err

    def test_baseline_relative_rule_without_baseline_is_usage_error(
        self, cli_server, capsys
    ):
        rc = main([
            "watch", cli_server.url, "--rule", "demo:t_ub_p95 <= 1.2 * baseline"
        ])
        assert rc == EXIT_USAGE
        assert "baseline" in capsys.readouterr().err

    def test_baseline_file_drives_relative_rule(self, cli_server, capsys, tmp_path):
        baseline = tmp_path / "fleet-baseline.json"
        baseline.write_text(json.dumps(cli_server.client.fleet()))
        rc = main([
            "watch", cli_server.url, "--baseline", str(baseline),
            "--rule", "demo:t_ub_p95 <= 1.5 * baseline",
        ])
        assert rc == EXIT_OK
        capsys.readouterr()

    def test_unreachable_server_is_usage_error(self, capsys):
        rc = main([
            "watch", "http://127.0.0.1:1", "--rule", "error_rate <= 1"
        ])
        assert rc == EXIT_USAGE
        capsys.readouterr()


class TestMonitorAttachCrash:
    def test_attach_crashed_session_still_ends_ok_on_final(self, cli_server, capsys):
        # The aborted final snapshot is still a final snapshot: the
        # stream completed, so monitor exits 0; `sessions wait` is the
        # command that reports the failure.
        rc = main(
            ["sessions", "submit", "--url", cli_server.url, "--json",
             "--scenario", "crash", "--param", "exports=12",
             "--param", "imports=[4.0, 8.0]", "--param", "crash_after=5"]
        )
        assert rc == EXIT_OK
        sid = json.loads(capsys.readouterr().out)["id"]
        rc = main(["monitor", "--attach", f"{cli_server.url}/sessions/{sid}"])
        assert rc == EXIT_OK
        capsys.readouterr()
        assert main(["sessions", "wait", sid, "--url", cli_server.url]) == EXIT_FINDINGS
        capsys.readouterr()
