"""Watching changes nothing: no observer moves a run's result.

The paper's results are measured virtual times and counts (``T_ub``,
the per-iteration export cost, ``sim_time``).  Every registered
scenario but ``crash_hard`` (which kills its process) is run unwatched,
then under each watcher alone and under all of them at once: the
``repro run`` row must be the unwatched one, JSON-equal (for ``crash``,
the same error), and with provenance on, every log line but the header
(which names the options) must be byte-identical whatever else watches.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.rows import run_row
from repro.scenarios import Cell, scenario_names, scenario_params
from repro.util.tracing import Tracer

#: The chaos plan CI runs ``resilience`` under.
CHAOS = {"seed": 7, "drop": 0.05, "dup": 0.1, "delay_jitter": 5e-5, "reorder": 0.1}


class MemorySink:
    """An in-memory telemetry sink."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


def _telemetry(interval: float) -> Callable[[Path], dict[str, Any]]:
    return lambda _: {"telemetry_sinks": (MemorySink(),), "telemetry_interval": interval}


#: Watcher → the run options that switch it on (given a log path).
WATCHERS: dict[str, Callable[[Path], dict[str, Any]]] = {
    "tracer": lambda _: {"tracer": Tracer()},
    "causal": lambda _: {"causal_trace": True},
    "telemetry@0.05": _telemetry(0.05),
    "telemetry@0.25": _telemetry(0.25),
    "provenance": lambda path: {"provenance": str(path)},
    "sanitize": lambda _: {"sanitize": "report"},
    "record_operations": lambda _: {"record_operations": True},
}

#: Every watcher at once (one telemetry interval: a run has one).
ALL = tuple(w for w in WATCHERS if w != "telemetry@0.25")

CASES = [
    (name, seed)
    for name in scenario_names()
    if name != "crash_hard"
    for seed in ((1, 2) if "seed" in scenario_params(name) else (None,))
]


def cell(name: str, seed: int | None) -> Cell:
    params = {} if seed is None else {"seed": seed}
    if name == "resilience+chaos":
        return Cell("resilience", params, CHAOS)
    return Cell(name, params)


def outcome(c: Cell, watchers: tuple[str, ...], path: Path) -> tuple[Any, list[str] | None]:
    """The row (or the error) of *c* under *watchers*, and the log's
    lines after the header when provenance is one of them."""
    overrides: dict[str, Any] = {}
    for watcher in watchers:
        overrides.update(WATCHERS[watcher](path))
    try:
        got: Any = json.loads(json.dumps(run_row(c.name, c.build(), **overrides)))
    except RuntimeError as exc:
        got = (type(exc).__name__, str(exc))
    for sink in overrides.get("telemetry_sinks", ()):
        # Watched, not skipped: the sink saw the run.
        assert sink.records, watchers
    if "provenance" not in watchers:
        return got, None
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert json.loads(header)["t"] == "header"
    return got, lines


@pytest.mark.parametrize(("name", "seed"), CASES)
def test_every_watcher_leaves_the_row_as_it_is(name, seed, tmp_path):
    c = cell(name, seed)
    unwatched, _ = outcome(c, (), tmp_path / "none.prov")
    for watcher in WATCHERS:
        got, _ = outcome(c, (watcher,), tmp_path / f"{watcher}.prov")
        assert got == unwatched, watcher
    got, all_lines = outcome(c, ALL, tmp_path / "all.prov")
    assert got == unwatched, "all watchers"
    _, lines = outcome(c, ("provenance",), tmp_path / "alone.prov")
    assert all_lines == lines


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(["demo", "fig3b", "resilience+chaos"]),
    seed=st.sampled_from([1, 2, 3]),
    watchers=st.sets(st.sampled_from(sorted(WATCHERS)), min_size=1),
)
def test_any_set_of_watchers_leaves_the_row_as_it_is(name, seed, watchers, tmp_path_factory):
    if {"telemetry@0.05", "telemetry@0.25"} <= watchers:
        watchers = watchers - {"telemetry@0.25"}
    c = cell(name, seed)
    path = tmp_path_factory.mktemp("watched")
    got, got_lines = outcome(c, tuple(sorted(watchers)), path / "some.prov")
    assert got == outcome(c, (), path / "none.prov")[0]
    if got_lines is not None:
        assert got_lines == outcome(c, ("provenance",), path / "alone.prov")[1]
