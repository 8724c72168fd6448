"""Tests for the ``repro lint`` CLI subcommand."""

import json

import pytest

from repro.cli import main

BAD_PROGRAM = (
    "def main(ctx):\n"
    "    if ctx.rank == 0:\n"
    "        ctx.export('r', 1.0)\n"
)

BAD_CONFIG = """
F c0 /bin/F 4
#
F.r GHOST.r REGL 2.5
"""


class TestLintCommand:
    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("def main(ctx):\n    ctx.export('r', 1.0)\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_seeded_violation_exits_one_with_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_PROGRAM)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "P101" in out
        assert "Wu & Sussman, IPDPS 2007" in out

    def test_config_file_routed_to_graph_pass(self, tmp_path, capsys):
        cfg = tmp_path / "system.cfg"
        cfg.write_text(BAD_CONFIG)
        assert main(["lint", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "G101" in out
        assert "GHOST" in out

    def test_directory_mixes_both_passes(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_PROGRAM)
        (tmp_path / "system.cfg").write_text(BAD_CONFIG)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "P101" in out and "G101" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_PROGRAM)
        assert main(["lint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] == 1
        assert payload["findings"][0]["rule"] == "P101"
        assert "citation" in payload["findings"][0]

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_shipped_examples_are_clean(self, capsys):
        # The acceptance bar: repro lint examples/ must stay clean.
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples"
        assert main(["lint", str(examples)]) == 0
        assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_warnings_do_not_fail_the_exit_code(tmp_path, capsys, fmt):
    cfg = tmp_path / "warn.cfg"
    cfg.write_text(
        "F c0 /bin/F 4\n"
        "U c1 /bin/U 4\n"
        "#\n"
        "F.r U.r REGL 2.5\n"
        "#@ export F.typo period=1.0\n"  # dangling region: warning only
    )
    json_flag = ["--json"] if fmt == "json" else []
    assert main(["lint", *json_flag, str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "G101" in out
