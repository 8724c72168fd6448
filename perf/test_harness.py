"""Tests of the benchmark's own machinery.

Run explicitly (tier-1 collects ``tests/`` only):

    python3 -m pytest perf/test_harness.py -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import calibrate, compare, harness, layers, run, tracing  # noqa: E402
from perf.workloads import WORKLOADS, RepOut, Workload  # noqa: E402
from perf.workloads.base import Timed  # noqa: E402
from perf.workloads.match import reference_counts  # noqa: E402
from perf.workloads.verify import VerifyWorlds  # noqa: E402


# -- statistics --------------------------------------------------------------
def test_quartiles_are_those_of_statistics_quantiles():
    values = [4.0, 1.0, 3.0, 2.0, 10.0, 6.0, 5.0, 9.0, 8.0, 7.0]
    q1, q2, q3 = harness.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == statistics.median(values) == 5.5
    assert harness.spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_quartiles_of_one_value_have_no_spread():
    assert harness.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert harness.spread([3.0]) == 0.0


def test_failed_ratio_counts_failures_against_attempts():
    assert harness.failed_ratio(200, 0) == 0.0
    assert harness.failed_ratio(200, 5) == 0.025
    assert harness.failed_ratio(0, 0) == 1.0  # nothing attempted is not a pass


# -- self time -----------------------------------------------------------------
class Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock(monkeypatch):
    fake = Clock()
    monkeypatch.setattr(tracing, "perf_counter", fake)
    return fake


def test_self_time_subtracts_nested_spans(clock):
    tracer = tracing.Tracer()

    def inner():
        clock.t += 5

    inner_w = tracer.wrap("low", "inner", inner)

    def outer():
        clock.t += 1
        inner_w()
        inner_w()
        clock.t += 2

    tracer.wrap("high", "outer", outer)()
    summary = tracer.summary()
    assert summary["layers"]["high"] == {"calls": 1, "self_s": 3, "total_s": 13}
    assert summary["layers"]["low"] == {"calls": 2, "self_s": 10, "total_s": 10}
    assert summary["top_level_s"] == 13 and summary["spans"] == 3


def test_generator_is_timed_per_resumption_not_across_waits(clock):
    tracer = tracing.Tracer()
    inner_w = tracer.wrap("low", "inner", lambda: setattr(clock, "t", clock.t + 5))

    def proc():
        clock.t += 1
        got = yield "first"
        clock.t += 2
        inner_w()
        yield got
        clock.t += 4
        return "done"

    gen = tracer.wrap("high", "proc", proc)()
    assert next(gen) == "first"
    clock.t += 100  # the virtual-time wait between resumptions is nobody's busy time
    assert gen.send("echo") == "echo"
    clock.t += 100
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    summary = tracer.summary()
    assert summary["layers"]["high"] == {"calls": 1, "self_s": 7, "total_s": 12}
    assert summary["layers"]["low"]["self_s"] == 5
    assert summary["top_level_s"] == 12 and summary["spans"] == 4


def test_generator_wrapper_passes_throw_and_close_through(clock):
    tracer = tracing.Tracer()
    seen = []

    def proc():
        try:
            yield 1
        except KeyError:
            seen.append("thrown")
            yield 2
        finally:
            seen.append("closed")

    gen = tracer.wrap("high", "proc", proc)()
    assert next(gen) == 1
    assert gen.throw(KeyError()) == 2
    gen.close()
    assert seen == ["thrown", "closed"]


def test_install_wraps_every_copy_and_uninstall_restores():
    import repro
    from repro.api import facade
    from repro.core.coupler import ProcessContext

    originals = (facade.run, repro.run, ProcessContext.__dict__["export"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert repro.run is facade.run is not originals[0]
        assert ProcessContext.__dict__["export"].__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (facade.run, repro.run, ProcessContext.__dict__["export"]) == originals


def test_missing_entry_points_are_counted_not_fatal():
    tracer = tracing.Tracer()
    tracer.install({"x": ("repro.des.core:Simulator.no_such", "repro.nope:f", "repro.des.core:g")})
    assert len(tracer.missing) == 3 and tracer.names == []


def test_layer_metrics_average_over_traced_repetitions():
    summary = {
        "layers": {"des": {"calls": 2.0, "self_s": 3.0, "total_s": 8.0}},
        "totals": {"run": 8.0},
        "calls": {},
        "top_level_s": 8.0,
        "spans": 10,
        "missing": ["gone"],
    }
    untraced = [RepOut(2.0, 1, 1)]
    traced = [RepOut(4.0, 1, 1), RepOut(6.0, 1, 1)]
    out = layers.metrics(summary, untraced, traced, {"des.events_dispatched": 30.0}, {})
    assert set(out) == set(layers.PER_LAYER)
    assert out["des.self_s"] == 1.5 and out["api.run_s"] == 4.0
    assert out["des.events_per_self_s"] == 20.0
    assert out["trace.overhead_ratio"] == 2.5
    assert out["trace.unattributed_share"] == pytest.approx(0.2)
    assert out["trace.wrappers_missing"] == 1.0
    with pytest.raises(KeyError):
        layers.metrics(summary, untraced, traced, {"no.such_metric": 1.0}, {})


# -- output checks -----------------------------------------------------------
class Failing(Workload):
    name = "failing"

    def rep(self) -> RepOut:
        return RepOut(0.5, work=10, ops=4, failures=["failing/always: on purpose"], stolen=0.1)


def test_child_reports_every_failed_operation(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "failing", Failing)
    monkeypatch.setattr(harness, "stolen_seconds", lambda: 0.0)
    monkeypatch.setattr(harness, "kernel_seconds", lambda: calibrate.NOMINAL_S / 2)
    assert harness.run_child("failing", 0, 0.0, trace=False, setup_only=False) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == harness.READY
    result = json.loads(lines[-1][len(harness.RESULT):])
    # One failure from the warm-up repetition, one from the measured one.
    assert result["attempted"] == 4 and len(result["failures"]) == 2
    assert result["repetitions"] == 1
    assert result["raw"]["wall_s"] == 0.5 and result["raw"]["work_per_s"] == 20.0
    # 0.1 s of the 0.5 s stolen, on a host running the kernel twice as fast as nominal.
    assert result["metrics"]["cal_wall_s"] == pytest.approx(0.8)
    assert result["metrics"]["cal_work_per_s"] == pytest.approx(12.5)


def test_timed_reads_stolen_time_around_the_block_only(monkeypatch):
    from perf.workloads import base

    ticks = iter([3.0, 3.25, 9.0])
    monkeypatch.setattr(base, "stolen_seconds", lambda: next(ticks))
    with Timed() as t:
        pass
    assert t.stolen == 0.25 and t.seconds >= 0.0


def test_serve_burst_reports_p95_of_corrected_session_latencies():
    reps = [RepOut(1.0, 10, 10, latencies=[0.01 * i for i in range(1, 11)]),
            RepOut(1.0, 10, 10, latencies=[0.01 * i for i in range(11, 21)])]
    wall_s = WORKLOADS["serve_burst"].wall_s
    assert wall_s(None, reps, [1.0, 1.0]) == pytest.approx(0.19)
    assert wall_s(None, reps, [0.5, 1.0]) == pytest.approx(0.19)
    assert wall_s(None, reps, [1.0, 0.25]) == pytest.approx(0.09)


def test_check_only_names_the_workload_and_check(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "failing", Failing)
    assert run.check_only(["failing"], 0) == 1
    assert "FAILED failing/always: on purpose" in capsys.readouterr().out


def test_wrong_expected_state_count_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(VerifyWorlds.EXPECTED_STATES, ("clean", 1), 1371)
    assert run.main(["--check-only", "--workload", "verify_worlds"]) == 1
    assert "verify_worlds/state_count clean: 1372 != 1371" in capsys.readouterr().out


def test_check_only_passes_on_every_workload(capsys):
    assert run.main(["--check-only", "--seed", "5"]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_match_reference_on_a_hand_worked_case():
    import numpy as np

    exports = np.array([1.0, 2.0, 4.0])
    requests = np.array([0.5, 1.1, 1.5, 2.25, 3.9, 4.0, 4.1])
    # 0.5: nothing at or below it; 1.1 and 2.25: within 0.25 of 1.0 and 2.0;
    # 1.5 and 3.9: nearest below is too old; 4.0: exact; 4.1: beyond the newest.
    assert reference_counts(exports, requests, 4.0) == (3, 3, 1)


# -- the contract --------------------------------------------------------------
def test_every_workload_of_benchmark_json_is_registered_and_in_order():
    assert [w["name"] for w in harness.SPEC["workloads"]] == list(WORKLOADS)


# -- compare -------------------------------------------------------------------
@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([1.00, 1.01, 1.02], [1.20, 1.21, 1.22], "lower", "worse"),
        # Every run of B beats every run of A, but three pairs carry no claim.
        ([1.00, 1.01, 1.02], [0.90, 0.91, 0.92], "lower", "same"),
        # Ten pairs, B wins nine, medians apart by more than A's spread.
        ([1.00 + i / 100 for i in range(10)], [0.90 + i / 100 for i in range(9)] + [1.2],
         "lower", "better"),
        # B wins only eight of ten.
        ([1.0 + i / 1000 for i in range(10)], [0.95 + i / 1000 for i in range(8)] + [1.05, 1.05],
         "lower", "same"),
        # B wins all ten, by less than A's own spread.
        ([1.00 + i / 100 for i in range(10)], [0.99 + i / 100 for i in range(10)], "lower", "same"),
        ([1.00, 1.01, 1.02], [1.03, 1.04, 1.05], "lower", "same"),
        ([100.0, 101.0, 102.0], [80.0, 81.0, 82.0], "higher", "worse"),
        # Wide and interleaved: the medians differ by 30% and mean nothing.
        ([1.0, 1.5, 2.0, 2.5], [1.2, 1.9, 2.4, 3.0], "lower", "unresolved"),
        # Wide but every run of B beats every run of A: resolved, though three pairs claim nothing.
        ([2.0, 3.0, 4.0], [1.0, 1.2, 1.9], "lower", "same"),
        ([1.0], [1.05], "lower", "same"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10) == expected
