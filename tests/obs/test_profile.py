"""The sampling profiler (a library tool): phase attribution and the
start/stop lifecycle."""

from __future__ import annotations

import time

import pytest

from repro.obs.profile import PHASES, Profile, SamplingProfiler, phase_of


def busy_run(profiler: SamplingProfiler, seconds: float = 0.12) -> Profile:
    """Sample a tight pure-python loop for *seconds*."""
    profiler.start()
    try:
        deadline = time.perf_counter() + seconds
        acc = 0
        while time.perf_counter() < deadline:
            acc += sum(range(200))
    finally:
        profile = profiler.stop()
    return profile


class TestPhaseOf:
    @pytest.mark.parametrize(
        ("module", "phase"),
        [
            ("repro.match.engine", "match"),
            ("repro.match", "match"),
            ("repro.match.aggregate", "rep_aggregation"),
            ("repro.core.rep", "rep_aggregation"),
            ("repro.data.redistribute", "redistribution"),
            ("repro.data.schedule", "redistribution"),
            ("repro.des.core", "des_dispatch"),
            ("repro.core.wire", "wire"),
        ],
    )
    def test_prefix_mapping(self, module, phase):
        assert phase_of(module) == phase

    def test_non_phase_modules_map_to_none(self):
        assert phase_of("repro.obs.metrics") is None
        assert phase_of("json.decoder") is None

    def test_prefix_must_be_a_module_boundary(self):
        # "repro.matchmaker" is not under "repro.match".
        assert phase_of("repro.matchmaker") is None

    def test_every_phase_is_reachable(self):
        reachable = {phase_of(m) for m in (
            "repro.match", "repro.core.rep", "repro.data.schedule",
            "repro.des", "repro.core.wire",
        )}
        assert reachable == set(PHASES) - {"other"}


class TestSamplingProfiler:
    def test_busy_loop_produces_samples(self):
        profile = busy_run(SamplingProfiler(interval=0.001))
        assert profile.samples > 0
        assert profile.interval == 0.001
        assert profile.duration > 0
        assert sum(profile.phases.values()) == profile.samples
        # The test module is not framework code: samples land in
        # "other", proving attribution defaults rather than crashes.
        assert profile.phases.get("other", 0) > 0

    def test_start_twice_raises(self):
        p = SamplingProfiler()
        p.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                p.start()
        finally:
            p.stop()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError, match="never started"):
            SamplingProfiler().stop()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval=0.0)

    def test_restartable_after_stop(self):
        p = SamplingProfiler(interval=0.001)
        first = busy_run(p, seconds=0.05)
        second = busy_run(p, seconds=0.05)
        # Counts accumulate across start/stop pairs of the same object;
        # each stop() returns the running total so far.
        assert second.samples >= first.samples


class TestProfile:
    def test_phase_fraction(self):
        profile = Profile(
            samples=4, interval=0.01, duration=0.1,
            stacks={"a;b": 3, "a;c": 1}, phases={"match": 1, "other": 3},
        )
        assert profile.phase_fraction("match") == 0.25
        assert profile.phase_fraction("wire") == 0.0
        empty = Profile(samples=0, interval=0.01, duration=0.0)
        assert empty.phase_fraction("match") == 0.0
