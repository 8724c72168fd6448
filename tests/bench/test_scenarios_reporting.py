"""Tests for the Figure-3 scenarios and the reporting helpers."""

import pytest

from repro.bench.reporting import (
    downsample,
    format_series,
    format_table,
    mean_series,
    sparkline,
    summarize_runs,
)
from repro.bench.rows import run_row
from repro.scenarios import build


def fig3(scenario, exports=100, buddy_help=True):
    """The ``repro run`` row of scenario ``fig3a`` / ``fig3b``."""
    return run_row(scenario, build(scenario, {"exports": exports, "buddy_help": buddy_help}))


class TestFigure3Scenarios:
    def test_importer_slower_buffers_everything(self):
        row = fig3("fig3a")
        assert row["p_s"]["buffered_fraction"] == pytest.approx(1.0)
        assert row["p_s"]["skip_fraction"] == 0.0
        # p_s (rank 1 of the exporter E) paid a memcpy for every export.
        (buffered,) = [
            s["value"] for s in row["metrics"]["metrics"]
            if s["name"] == "buffer.buffered" and s["labels"]["rank"] == "1"
        ]
        assert buffered == 100

    def test_importer_slower_insensitive_to_buddy(self):
        on = fig3("fig3a", buddy_help=True)
        off = fig3("fig3a", buddy_help=False)
        assert on["p_s"]["decisions"] == off["p_s"]["decisions"]

    def test_exporter_slower_buddy_skips(self):
        assert fig3("fig3b")["p_s"]["skip_fraction"] > 0.3

    def test_exporter_slower_buddy_beats_no_buddy(self):
        on = fig3("fig3b", buddy_help=True)["p_s"]
        off = fig3("fig3b", buddy_help=False)["p_s"]
        assert on["skip_fraction"] > off["skip_fraction"]
        assert on["t_ub"] <= off["t_ub"]
        assert on["export_time"] < off["export_time"]

    def test_request_count(self):
        row = fig3("fig3a")
        assert len(row["answers"]["0"]) == 5  # requests at 20, 40, 60, 80, 100


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["name", "value"], [["a", 1.25], ["bb", 33]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "1.25" in lines[2]

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_float_formatting(self):
        out = format_table(["x"], [[0.000123456]])
        assert "0.0001235" in out


class TestSeriesRendering:
    def test_downsample_preserves_short_series(self):
        assert downsample([1.0, 2.0], points=10) == [1.0, 2.0]

    def test_downsample_bucket_means(self):
        series = [0.0] * 50 + [10.0] * 50
        ds = downsample(series, points=2)
        assert ds == [0.0, 10.0]

    def test_downsample_length(self):
        assert len(downsample(list(range(1000)), points=40)) == 40

    def test_sparkline_shape(self):
        flat = sparkline([1.0] * 100)
        assert len(set(flat)) == 1
        rising = sparkline(list(range(100)), points=8)
        assert rising[0] != rising[-1]

    def test_format_series_contains_summary(self):
        out = format_series("test", [1.0, 2.0, 3.0], unit="ms")
        assert "test:" in out
        assert "n=3" in out
        assert "mean=2" in out
        assert "shape:" in out

    def test_summarize_runs(self):
        s = summarize_runs([[1.0, 2.0], [3.0, 4.0]])
        assert s.count == 2
        assert s.mean == pytest.approx(2.5)

    def test_summarize_runs_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])
        with pytest.raises(ValueError, match="series must be non-empty"):
            summarize_runs([[]])

    def test_mean_series_truncates_to_the_shortest_run(self):
        assert mean_series([[1.0, 2.0, 9.0], [3.0, 4.0]]) == [2.0, 3.0]
        with pytest.raises(ValueError):
            mean_series([])
