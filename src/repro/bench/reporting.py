"""Plain-text reporting for the benchmark harness.

The paper's evaluation is a set of time-series plots; benchmarks print
the same information as compact ASCII: summary tables per phase and
down-sampled series rendered as rows of numbers (and a unicode
sparkline for quick visual shape checks in terminal logs).
"""

from __future__ import annotations

from typing import Sequence

from repro.util.stats import SeriesSummary
from repro.util.validation import require

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width table with right-aligned numeric cells."""
    require(len(headers) > 0, "table needs headers")
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        require(len(row) == len(headers), "row width mismatch")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def downsample(series: Sequence[float], points: int = 40) -> list[float]:
    """Bucket-mean down-sampling preserving the series shape."""
    require(points > 0, "points must be positive")
    n = len(series)
    if n <= points:
        return list(series)
    out = []
    for b in range(points):
        lo = b * n // points
        hi = max(lo + 1, (b + 1) * n // points)
        chunk = series[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def sparkline(series: Sequence[float], points: int = 60) -> str:
    """A one-line unicode sketch of the series shape."""
    data = downsample(series, points)
    lo, hi = min(data), max(data)
    if hi <= lo:
        return _SPARK_CHARS[0] * len(data)
    span = hi - lo
    return "".join(
        _SPARK_CHARS[min(len(_SPARK_CHARS) - 1, int((x - lo) / span * len(_SPARK_CHARS)))]
        for x in data
    )


def format_series(
    name: str, series: Sequence[float], unit: str = "s", points: int = 40
) -> str:
    """Summary line + sparkline + down-sampled values for one series."""
    s = SeriesSummary.from_series(list(series))
    lines = [
        f"{name}: n={s.count} mean={s.mean:.4g}{unit} min={s.minimum:.4g}"
        f" max={s.maximum:.4g} head={s.head_mean:.4g} body={s.body_mean:.4g}"
        f" tail={s.tail_mean:.4g}",
        f"  shape: {sparkline(series, points)}",
    ]
    return "\n".join(lines)


def mean_series(series_list: Sequence[Sequence[float]]) -> list[float]:
    """Elementwise mean across repeated runs, over the shortest's length."""
    require(len(series_list) > 0, "need at least one run")
    n = min(len(s) for s in series_list)
    return [sum(s[i] for s in series_list) / len(series_list) for i in range(n)]


def summarize_runs(series_list: Sequence[Sequence[float]]) -> SeriesSummary:
    """Summary of the elementwise-mean series across repeated runs."""
    mean = mean_series(series_list)
    require(len(mean) > 0, "series must be non-empty")
    return SeriesSummary.from_series(mean)
