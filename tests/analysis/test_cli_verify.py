"""Tests for the ``repro verify`` CLI and the shared exit-code contract."""

import json

import pytest

from repro.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main

CLEAN_PROGRAM = "def main(ctx):\n    ctx.export('r', 1.0)\n"
BAD_PROGRAM = (
    "def main(ctx):\n"
    "    if ctx.rank == 0:\n"
    "        ctx.export('r', 1.0)\n"
)


def _clean_verify_args():
    # Truncated exploration: still exercises every world end to end
    # but stays fast; the unmutated protocol yields no findings either
    # way.  Full exhaustive runs live in test_model.py.
    return ["verify", "--max-states", "1500"]


@pytest.mark.parametrize(
    "argv_builder, expected",
    [
        # lint and verify share one contract: 0 clean, 1 findings,
        # 2 usage-or-internal errors.
        (lambda tmp: ["lint", str(tmp / "clean.py")], EXIT_OK),
        (lambda tmp: ["lint", str(tmp / "bad.py")], EXIT_FINDINGS),
        (lambda tmp: ["lint", str(tmp / "missing.py")], EXIT_USAGE),
        (lambda tmp: _clean_verify_args(), EXIT_OK),
        (lambda tmp: ["verify", "--mutate", "no_answer_cache"], EXIT_FINDINGS),
        (lambda tmp: ["verify", "--replay", str(tmp / "missing.json")], EXIT_USAGE),
    ],
    ids=[
        "lint-clean",
        "lint-findings",
        "lint-usage",
        "verify-clean",
        "verify-findings",
        "verify-usage",
    ],
)
def test_shared_exit_codes(tmp_path, capsys, argv_builder, expected):
    (tmp_path / "clean.py").write_text(CLEAN_PROGRAM)
    (tmp_path / "bad.py").write_text(BAD_PROGRAM)
    assert main(argv_builder(tmp_path)) == expected


class TestVerifyCommand:
    def test_json_payload(self, capsys):
        assert main(_clean_verify_args() + ["--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.verify/v1"
        assert payload["mode"] == "model-suite"
        assert payload["stats"]["states"] > 0
        assert payload["report"]["findings"] == []

    def test_mutation_reports_rule_and_writes_cex(self, tmp_path, capsys):
        out = tmp_path / "cex.json"
        code = main(
            ["verify", "--mutate", "no_answer_cache", "--cex", str(out)]
        )
        assert code == EXIT_FINDINGS
        assert "M202" in capsys.readouterr().out
        cexs = json.loads(out.read_text())
        assert cexs and cexs[0]["rule"] == "M202"

    def test_replay_round_trip(self, tmp_path, capsys, no_answer_cache_suite):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(no_answer_cache_suite.counterexamples[0]))
        assert main(["verify", "--replay", str(sched)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_replay_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(["verify", "--replay", str(bad)]) == EXIT_USAGE
        assert "bad schedule" in capsys.readouterr().err

    def test_races_mode_on_stock_runtime(self, capsys):
        assert main(["verify", "--races"]) == EXIT_OK
        assert "shared-state accesses" in capsys.readouterr().out

    def test_mutate_choices_match_registry(self):
        from repro.analysis.model import MUTATIONS
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--mutate", "bogus"])
        for name in MUTATIONS:
            assert parser.parse_args(["verify", "--mutate", name]).mutate == name
