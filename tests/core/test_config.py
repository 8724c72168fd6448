"""Tests for the Figure-2 configuration parser and validation."""

import pytest

from repro.core.config import (
    ConnectionSpec,
    Endpoint,
    load_config,
    parse_config,
)
from repro.core.exceptions import ConfigError
from repro.match.policies import PolicyKind

PAPER_EXAMPLE = """
P0 cluster0 /home/meou/bin/P0 16
P1 cluster1 /home/meou/bin/P1 8
P2 cluster1 /home/meou/bin/P2 32
P4 cluster1 /home/meou/bin/P4 4
#
P0.r1 P1.r1 REGL 0.2
P0.r1 P2.r3 REG 0.1
P0.r2 P4.r2 REGU 0.3
"""

#: One region (``C.d``) imported from two exporters: lint rule G108.
TWO_EXPORTERS = "A c /a 2\nB c /b 2\nC c /c 2\n#\nA.d C.d REGL 2.5\nB.d C.d REGL 2.5\n"


class TestParsing:
    def test_paper_example(self):
        cfg = parse_config(PAPER_EXAMPLE)
        assert set(cfg.programs) == {"P0", "P1", "P2", "P4"}
        assert cfg.programs["P0"].nprocs == 16
        assert cfg.programs["P0"].cluster == "cluster0"
        assert cfg.programs["P0"].executable == "/home/meou/bin/P0"
        assert len(cfg.connections) == 3
        c0 = cfg.connections[0]
        assert str(c0.exporter) == "P0.r1"
        assert str(c0.importer) == "P1.r1"
        assert c0.policy.kind is PolicyKind.REGL
        assert c0.policy.tolerance == 0.2

    def test_policies_parsed_per_connection(self):
        cfg = parse_config(PAPER_EXAMPLE)
        kinds = [c.policy.kind for c in cfg.connections]
        assert kinds == [PolicyKind.REGL, PolicyKind.REG, PolicyKind.REGU]

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nA c /x 2\n  \n# another\nB c /y 2\n#\nA.r B.r EXACT\n")
        assert set(cfg.programs) == {"A", "B"}
        assert cfg.connections[0].policy.kind is PolicyKind.EXACT

    def test_program_extra_tokens_preserved(self):
        cfg = parse_config("A c /x 2 --flag opt\n")
        assert cfg.programs["A"].extra == ("--flag", "opt")

    def test_overlapping_flag(self):
        cfg = parse_config("A c /x 2\nB c /y 2\n#\nA.r B.r REGL 0.5 overlapping\n")
        assert cfg.connections[0].disjoint_regions is False

    def test_disjoint_default(self):
        cfg = parse_config("A c /x 2\nB c /y 2\nA.r B.r REGL 0.5\n")
        assert cfg.connections[0].disjoint_regions is True

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "coupling.cfg"
        path.write_text(PAPER_EXAMPLE)
        cfg = load_config(path)
        assert len(cfg.connections) == 3

    def test_region_name_may_contain_dots(self):
        ep = Endpoint.parse("P0.fields.temperature")
        assert ep.program == "P0"
        assert ep.region == "fields.temperature"


class TestParseErrors:
    def test_bad_program_line(self):
        with pytest.raises(ConfigError, match="program line needs"):
            parse_config("A cluster0\n")

    def test_bad_nprocs(self):
        with pytest.raises(ConfigError, match="bad process count"):
            parse_config("A c /x twelve\n")

    def test_zero_nprocs(self):
        with pytest.raises(ConfigError):
            parse_config("A c /x 0\n")

    def test_duplicate_program(self):
        with pytest.raises(ConfigError, match="duplicate program"):
            parse_config("A c /x 2\nA c /y 3\n")

    def test_bad_policy(self):
        with pytest.raises(ConfigError, match="unknown match policy"):
            parse_config("A.r B.r WRONG 0.2\n")

    def test_bad_endpoint(self):
        with pytest.raises(ConfigError, match="bad endpoint"):
            parse_config("A.r .broken REGL 0.2\n")


class TestQueries:
    def test_connections_exporting_importing(self):
        cfg = parse_config(PAPER_EXAMPLE)
        assert len(cfg.connections_exporting("P0")) == 3
        assert len(cfg.connections_exporting("P0", "r1")) == 2
        assert len(cfg.connections_importing("P1", "r1")) == 1
        assert cfg.connections_importing("P0") == []

    def test_is_region_exported(self):
        cfg = parse_config(PAPER_EXAMPLE)
        assert cfg.is_region_exported("P0", "r1")
        assert not cfg.is_region_exported("P0", "r99")


class TestValidation:
    def test_paper_example_valid(self):
        assert parse_config(PAPER_EXAMPLE).validate() == []

    def test_unknown_program_in_connection(self):
        cfg = parse_config("A c /x 2\nA.r GHOST.r REGL 0.1\n")
        with pytest.raises(ConfigError, match="unknown importer program"):
            cfg.validate()

    def test_duplicate_connection(self):
        cfg = parse_config("A c /x 2\nB c /y 2\nA.r B.r REGL 0.1\nA.r B.r REGL 0.2\n")
        with pytest.raises(ConfigError, match="duplicate connection"):
            cfg.validate()

    def test_self_coupling_rejected(self):
        cfg = parse_config("A c /x 2\nA.r1 A.r2 REGL 0.1\n")
        with pytest.raises(ConfigError, match="couples a program to itself"):
            cfg.validate()

    def test_region_imported_over_two_connections_rejected(self):
        cfg = parse_config(TWO_EXPORTERS)
        with pytest.raises(ConfigError, match="C.d is imported over 2 connections"):
            cfg.validate()

    def test_runtime_refuses_it_at_construction(self):
        # Before any program registers: only the config knows the rule.
        from repro.core.coupler import CoupledSimulation

        with pytest.raises(ConfigError, match="at most one exporter"):
            CoupledSimulation(TWO_EXPORTERS)

    def test_declared_exports_mismatch(self):
        cfg = parse_config(PAPER_EXAMPLE)
        with pytest.raises(ConfigError, match="does not export region"):
            cfg.validate(declared_exports={"P0": ["other"]})

    def test_unimported_export_is_warning_not_error(self):
        cfg = parse_config(PAPER_EXAMPLE)
        warnings = cfg.validate(
            declared_exports={"P0": ["r1", "r2", "r_unused"]}
        )
        assert any("r_unused" in w for w in warnings)

    def test_import_without_exporter_is_error(self):
        cfg = parse_config(PAPER_EXAMPLE)
        with pytest.raises(ConfigError, match="has no exporter"):
            cfg.validate(declared_imports={"P1": ["r1", "r_orphan"]})

    def test_connection_str(self):
        conn = parse_config("A c /x 1\nB c /y 1\nA.r B.r REGL 0.5\n").connections[0]
        assert str(conn) == "A.r B.r REGL 0.5"
        assert conn.connection_id == "A.r->B.r"
        over = ConnectionSpec(
            exporter=conn.exporter,
            importer=conn.importer,
            policy=conn.policy,
            disjoint_regions=False,
        )
        assert str(over).endswith("overlapping")
