"""The ``repro.api`` facade.

The contract under test: ``options=RunOptions(...)`` is the only
construction path of both runtimes (the old keyword arguments raise
:class:`TypeError`), and the facade produces the same run as a
hand-built simulation.
"""

from __future__ import annotations

import warnings
from typing import Any, Generator

import numpy as np
import pytest

import repro
from repro import Program, RunOptions, run
from repro.core.coupler import CoupledSimulation, ProcessContext, RegionDef
from repro.core.live import LiveCoupledSimulation
from repro.data.decomposition import BlockDecomposition
from repro.match import DEFAULT_MATCH_BACKEND, MATCH_BACKENDS
from repro.util.tracing import Tracer

CONFIG = (
    "E c0 /bin/E 2\n"
    "I c1 /bin/I 2\n"
    "#\n"
    "E.d I.d REGL 2.5\n"
)
SHAPE = (16, 16)


def _e_main(ctx: ProcessContext) -> Generator[Any, Any, None]:
    for k in range(8):
        yield from ctx.export("d", 1.0 + k)
        yield from ctx.compute(1e-3)


def _i_main(answers: dict[int, list[tuple[float, float | None]]]):
    def main(ctx: ProcessContext) -> Generator[Any, Any, None]:
        got: list[tuple[float, float | None]] = []
        for j in range(1, 5):
            yield from ctx.compute(5e-4)
            ts = 2.0 * j
            m, _block = yield from ctx.import_("d", ts)
            got.append((ts, m))
        answers[ctx.rank] = got

    return main


def _regions(grid: tuple[int, int]) -> dict[str, RegionDef]:
    return {"d": RegionDef(BlockDecomposition(SHAPE, grid))}


def _trace_key(tracer: Tracer) -> list[tuple[Any, ...]]:
    return [(e.kind, e.who, e.time, e.timestamp) for e in tracer.events]


class TestDeprecationShim:
    """The constructor-kwargs shim is deleted, not deprecated."""

    def test_options_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CoupledSimulation(CONFIG, options=RunOptions(seed=3))
            LiveCoupledSimulation(CONFIG, options=RunOptions(runtime="live"))

    @pytest.mark.parametrize("cls", [CoupledSimulation, LiveCoupledSimulation])
    def test_legacy_constructor_arguments_are_gone(self, cls):
        """``options=RunOptions(...)`` is the only construction path."""
        with pytest.raises(TypeError):
            cls(CONFIG, buddy_help=False)
        with pytest.raises(TypeError):
            cls(CONFIG, RunOptions())  # options is keyword-only
        with pytest.raises(TypeError):
            cls(CONFIG, seed=1, options=RunOptions())


class TestRunFacade:
    def test_des_run_returns_result_with_counters(self):
        answers: dict[int, list[tuple[float, float | None]]] = {}
        result = run(
            CONFIG,
            [
                Program("E", main=_e_main, regions=_regions((2, 1))),
                Program("I", main=_i_main(answers), regions=_regions((1, 2))),
            ],
            RunOptions(seed=5),
        )
        assert result.sim_time > 0.0
        assert result.counters["data_messages"] > 0
        assert result.counters["ctl_messages"] > 0
        assert answers[0] == answers[1]
        assert result.options.seed == 5
        assert result.context("E", 0).rank == 0

    def test_facade_matches_hand_built_simulation(self):
        answers_a: dict[int, list[tuple[float, float | None]]] = {}
        answers_b: dict[int, list[tuple[float, float | None]]] = {}
        tracer_a, tracer_b = Tracer(), Tracer()

        result = run(
            CONFIG,
            [
                Program("E", main=_e_main, regions=_regions((2, 1))),
                Program("I", main=_i_main(answers_a), regions=_regions((1, 2))),
            ],
            RunOptions(seed=7, tracer=tracer_a),
        )

        cs = CoupledSimulation(CONFIG, options=RunOptions(seed=7, tracer=tracer_b))
        cs.add_program("E", main=_e_main, regions=_regions((2, 1)))
        cs.add_program("I", main=_i_main(answers_b), regions=_regions((1, 2)))
        cs.run()

        assert answers_a == answers_b
        assert result.sim_time == cs.sim.now
        assert _trace_key(tracer_a) == _trace_key(tracer_b)

    def test_live_run_through_facade(self):
        answers: dict[int, list[tuple[float, float | None]]] = {}

        def e_main(ctx) -> None:
            for k in range(6):
                ctx.export("d", 1.0 + k)
                ctx.compute(1e-3)

        def i_main(ctx) -> None:
            got: list[tuple[float, float | None]] = []
            for j in range(1, 4):
                ctx.compute(5e-4)
                ts = 2.0 * j
                m, _block = ctx.import_("d", ts)
                got.append((ts, m))
            answers[ctx.rank] = got

        result = run(
            CONFIG,
            [
                Program("E", main=e_main, regions=_regions((2, 1))),
                Program("I", main=i_main, regions=_regions((1, 2))),
            ],
            RunOptions(runtime="live", time_scale=0.01),
        )
        assert result.sim_time == 0.0
        assert answers[0] == [(2.0, 2.0), (4.0, 4.0), (6.0, 6.0)]
        # Property 1 is checkable on the live runtime too, when recorded.
        with pytest.raises(ValueError, match="record_operations"):
            result.check_property1()

    def test_until_rejected_on_live_runtime(self):
        with pytest.raises(ValueError, match="until"):
            run(CONFIG, [], RunOptions(runtime="live"), until=1.0)

    def test_config_path_accepted(self, tmp_path):
        path = tmp_path / "coupling.cfg"
        path.write_text(CONFIG)
        answers: dict[int, list[tuple[float, float | None]]] = {}
        result = run(
            path,
            [
                Program("E", main=_e_main, regions=_regions((2, 1))),
                Program("I", main=_i_main(answers), regions=_regions((1, 2))),
            ],
        )
        assert result.sim_time > 0.0
        assert answers[0] == answers[1]

    def test_fault_stats_surface(self):
        from repro.faults import FaultPlan

        answers: dict[int, list[tuple[float, float | None]]] = {}
        result = run(
            CONFIG,
            [
                Program("E", main=_e_main, regions=_regions((2, 1))),
                Program("I", main=_i_main(answers), regions=_regions((1, 2))),
            ],
            RunOptions(seed=5, fault_plan=FaultPlan(seed=3, drop=0.05)),
        )
        stats = result.fault_stats
        assert stats is not None
        assert stats["eligible"] > 0


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_names_present(self):
        for name in ("run", "build", "Program", "RunOptions", "RunResult",
                     "load_config", "FaultPlan", "Tracer"):
            assert name in repro.__all__

    def test_observability_names_present(self):
        for name in ("MetricsSnapshot", "PaperMetrics", "SpanRecorder",
                     "TimelineSet"):
            assert name in repro.__all__


class TestObservabilitySurface:
    @staticmethod
    def _run() -> repro.RunResult:
        answers: dict = {}
        return run(
            CONFIG,
            [
                Program("E", main=_e_main, regions=_regions((2, 1))),
                Program("I", main=_i_main(answers), regions=_regions((1, 2))),
            ],
            RunOptions(seed=3),
        )

    def test_metrics_property_caches_and_carries_paper_block(self):
        result = self._run()
        snap = result.metrics
        assert snap is result.metrics
        assert isinstance(snap, repro.MetricsSnapshot)
        assert snap.paper is not None
        assert snap.paper is result.paper_metrics
        assert snap.value("net.messages", plane="ctl") == result.counters[
            "ctl_messages"
        ]

    def test_timeline_property(self):
        result = self._run()
        tls = result.timeline
        assert tls is result.timeline
        assert isinstance(tls, repro.TimelineSet)
        assert tls.span_count() > 0

    def test_live_runtime_supports_observability(self):
        answers: dict = {}

        def e_main(ctx) -> None:
            for k in range(6):
                ctx.export("d", 1.0 + k)
                ctx.compute(1e-3)

        def i_main(ctx) -> None:
            for j in range(1, 4):
                ctx.compute(5e-4)
                answers.setdefault(ctx.rank, []).append(ctx.import_("d", 2.0 * j)[0])

        result = run(
            CONFIG,
            [
                Program("E", main=e_main, regions=_regions((2, 1))),
                Program("I", main=i_main, regions=_regions((1, 2))),
            ],
            RunOptions(runtime="live", time_scale=0.01),
        )
        # Wall-clock runs still collect counters and paper T_ub; span
        # reconstruction degrades gracefully (no per-event virtual at=).
        snap = result.metrics
        assert snap.paper is not None
        assert snap.paper.t_ub_total >= 0.0
        assert result.timeline.span_count() >= 0


class TestRunOptionsValidation:
    def test_frozen(self):
        opts = RunOptions()
        with pytest.raises(AttributeError):
            opts.seed = 1  # type: ignore[misc]

    def test_bad_runtime_rejected(self):
        with pytest.raises(ValueError):
            RunOptions(runtime="mpi")

    def test_bad_buffer_policy_rejected(self):
        with pytest.raises(ValueError):
            RunOptions(buffer_policy="drop")

    def test_telemetry_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            RunOptions(telemetry_interval=0.0)
        with pytest.raises(ValueError):
            RunOptions(telemetry_interval=-1.0)

    def test_telemetry_sinks_coerced_to_tuple(self):
        class Sink:
            def emit(self, record):
                pass

            def close(self):
                pass

        sink = Sink()
        opts = RunOptions(telemetry_sinks=[sink])
        assert opts.telemetry_sinks == (sink,)
        assert RunOptions().telemetry_sinks == ()
        assert RunOptions().causal_trace is False

    def test_match_backend_default_and_valid_values(self):
        assert RunOptions().match_backend == DEFAULT_MATCH_BACKEND == "sorted"
        for name in MATCH_BACKENDS:
            assert RunOptions(match_backend=name).match_backend == name

    def test_unknown_match_backend_rejected_eagerly(self):
        from repro.core.exceptions import ConfigError

        with pytest.raises(ConfigError, match="match_backend"):
            RunOptions(match_backend="quantum")


class TestMatchBackendThreading:
    """``RunOptions.match_backend`` must reach the runtimes' engines."""

    @pytest.mark.parametrize("backend", ["legacy", "sorted"])
    def test_des_runtime_uses_selected_backend(self, backend):
        answers: dict[int, list[tuple[float, float | None]]] = {}
        cs = CoupledSimulation(
            CONFIG, options=RunOptions(seed=3, match_backend=backend)
        )
        cs.add_program("E", main=_e_main, regions=_regions((2, 1)))
        cs.add_program("I", main=_i_main(answers), regions=_regions((1, 2)))
        cs.run()
        assert cs.match_backend == backend
        for rank in range(2):
            ctx = cs.context("E", rank)
            conns = ctx.export_states["d"].connections
            assert conns, "exporter should have at least one connection"
            for conn in conns.values():
                assert conn.engine.backend_name == backend

    def test_backends_produce_identical_des_runs(self):
        # The real acceptance test is the seed-replay goldens; this is
        # the fast in-tree version of the same claim.
        def run_with(backend: str) -> tuple[dict, float, list]:
            answers: dict[int, list[tuple[float, float | None]]] = {}
            tracer = Tracer()
            cs = CoupledSimulation(
                CONFIG,
                options=RunOptions(
                    seed=11, match_backend=backend, tracer=tracer
                ),
            )
            cs.add_program("E", main=_e_main, regions=_regions((2, 1)))
            cs.add_program("I", main=_i_main(answers), regions=_regions((1, 2)))
            cs.run()
            return answers, cs.sim.now, _trace_key(tracer)

        a_answers, a_time, a_trace = run_with("legacy")
        b_answers, b_time, b_trace = run_with("sorted")
        assert a_answers == b_answers
        assert a_time == b_time
        assert a_trace == b_trace

    @pytest.mark.parametrize("backend", ["legacy", "sorted"])
    def test_live_runtime_uses_selected_backend(self, backend):
        sim = LiveCoupledSimulation(
            CONFIG,
            options=RunOptions(
                runtime="live", time_scale=0.01, match_backend=backend
            ),
        )
        assert sim.match_backend == backend
