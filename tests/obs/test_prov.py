"""Provenance recording: the ``repro.prov/v1`` log format.

Covers header serialization round-trips (options, presets, fault
plans, decompositions), the recorder lifecycle (header → rows → end,
abort), the structural validator, gzip transparency for both the
provenance writer and :class:`JsonlSink`, and the live runtime's
audit-only logs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro
from repro.costs.presets import PAPER_CLUSTER
from repro.data.decomposition import BlockCyclicDecomposition, BlockDecomposition
from repro.obs import prov
from repro.faults.plan import FaultPlan
from repro.match import DEFAULT_MATCH_BACKEND
from repro.obs.prov import (
    PROV_SCHEMA,
    ProvenanceError,
    ProvenanceRecorder,
    decomp_from_dict,
    open_text,
    options_from_dict,
    options_to_dict,
    payload_digest,
    preset_from_dict,
    read_log,
    validate_provenance_log,
)
from repro.obs.stream import JsonlSink

@pytest.fixture(scope="module")
def recorded(tmp_path_factory, demo_runner):
    """One recorded demo run: (log path, RunResult)."""
    path = tmp_path_factory.mktemp("prov") / "demo.prov"
    result = demo_runner(with_tracer=False, provenance=str(path))
    return path, result


class TestSerializationRoundTrips:
    def test_options_round_trip(self):
        opts = repro.RunOptions(
            buddy_help=False,
            seed=17,
            retransmit_timeout=0.5,
            max_retransmits=3,
            match_backend="sorted",
        )
        rebuilt = options_from_dict(options_to_dict(opts))
        assert options_to_dict(rebuilt) == options_to_dict(opts)

    def test_preset_round_trip(self):
        p = PAPER_CLUSTER
        rebuilt = preset_from_dict(dataclasses.asdict(p))
        assert rebuilt == p

    def test_fault_plan_round_trip(self):
        plan = FaultPlan(
            seed=9, drop=0.2, dup=0.1, delay_jitter=1e-4, planes=frozenset({"ctl"})
        )
        rebuilt = FaultPlan.from_dict(plan.describe())
        assert rebuilt.describe() == plan.describe()

    def test_decomp_round_trips(self):
        block = BlockDecomposition((16, 16), (2, 2))
        cyclic = BlockCyclicDecomposition((32,), 4, 8)
        for d in (block, cyclic):
            rebuilt = decomp_from_dict(
                json.loads(json.dumps(prov._decomp_to_dict(d)))
            )
            assert type(rebuilt) is type(d)
            assert rebuilt.global_shape == d.global_shape
            assert rebuilt.nprocs == d.nprocs

    def test_payload_digest_is_stable_and_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert payload_digest(a) == payload_digest(b)
        assert payload_digest(a) != payload_digest({"x": 2, "y": [1, 2]})


class TestRecordedLog:
    def test_header_captures_run_inputs(self, recorded):
        path, _ = recorded
        log = read_log(path)
        h = log.header
        assert h["schema"] == PROV_SCHEMA
        assert h["runtime"] == "des"
        assert set(h["programs"]) == {"F", "U"}
        assert h["programs"]["F"]["nprocs"] == 2
        assert "F.d U.d REGL 2.5" in h["config"]
        # Recording forces causal tracing on (differential replay
        # needs the DAG), and the header stores the effective value.
        assert h["options"]["causal_trace"] is True

    def test_all_row_kinds_present(self, recorded):
        path, _ = recorded
        log = read_log(path)
        assert log.wire, "no wire rows recorded"
        assert log.matches, "no match rows recorded"
        assert log.sched, "no scheduling rows recorded"
        assert log.ops_for("F") and log.ops_for("U")
        kinds = {op["op"] for ops in log.ops_for("F").values() for op in ops}
        assert "export" in kinds and "compute" in kinds

    def test_fault_plan_run_records_rng_draws(self, tmp_path, demo_runner):
        # The demo couples with plain compute(seconds) and never draws;
        # a fault plan routes every drop/dup/jitter decision through a
        # named registry stream, so those draws must land in the log.
        p = tmp_path / "faulty.prov"
        demo_runner(
            with_tracer=False,
            provenance=str(p),
            fault_plan=FaultPlan(seed=7, drop=0.1, delay_jitter=1e-4),
        )
        log = read_log(p)
        assert log.rng, "no RNG rows recorded under a fault plan"
        assert all(len(trace) >= 1 for trace in log.rng.values())

    def test_end_records_payload_digests(self, recorded):
        path, _ = recorded
        log = read_log(path)
        assert not log.aborted
        assert log.end["report_sha256"]
        assert log.end["causal_sha256"]

    def test_validator_accepts_good_log(self, recorded):
        path, _ = recorded
        assert validate_provenance_log(read_log(path)) == []

    def test_validator_flags_garbage(self, tmp_path):
        p = tmp_path / "bad.prov"
        p.write_text('{"schema": "other/v1", "t": "header"}\n')
        with pytest.raises(ProvenanceError):
            read_log(p)

    def test_match_rows_are_backend_tagged(self, recorded):
        path, _ = recorded
        log = read_log(path)
        assert log.header["match_backend"] == DEFAULT_MATCH_BACKEND
        assert {row["backend"] for row in log.matches} == {DEFAULT_MATCH_BACKEND}

    def test_legacy_backend_log_is_tagged(self, tmp_path, demo_runner):
        p = tmp_path / "legacy.prov"
        demo_runner(with_tracer=False, provenance=str(p), match_backend="legacy")
        log = read_log(p)
        assert log.header["match_backend"] == "legacy"
        assert {row["backend"] for row in log.matches} == {"legacy"}

    def test_sorted_backend_log_is_tagged(self, tmp_path, demo_runner):
        p = tmp_path / "sorted.prov"
        demo_runner(with_tracer=False, provenance=str(p), match_backend="sorted")
        log = read_log(p)
        assert log.header["match_backend"] == "sorted"
        assert {row["backend"] for row in log.matches} == {"sorted"}


class TestRecorderLifecycle:
    def test_abort_leaves_readable_partial_log(self, tmp_path):
        p = tmp_path / "aborted.prov"
        rec = ProvenanceRecorder(p)
        rec.set_header({"schema": PROV_SCHEMA, "t": "header", "runtime": "des"})
        rec.on_wire(0.0, 1, ("F", 0), ("U", 0), "DataPiece", "data", 64)
        rec.abort(RuntimeError("boom"))
        rec.close()
        log = read_log(p)
        assert log.aborted
        assert log.end["error"].startswith("RuntimeError")
        assert len(log.wire) == 1

    def test_run_abort_writes_aborted_log(self, tmp_path):
        p = tmp_path / "crash.prov"

        def bad_main(ctx):
            yield from ctx.compute(0.001)
            raise RuntimeError("mid-run failure")

        config = "F c0 /bin/F 1\nU c1 /bin/U 1\n#\nF.d U.d REGL 2.5\n"
        from repro.core.coupler import RegionDef

        with pytest.raises(RuntimeError, match="mid-run failure"):
            repro.run(
                config,
                [
                    repro.Program(
                        "F",
                        main=bad_main,
                        regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 1)))},
                    ),
                    repro.Program(
                        "U",
                        regions={"d": RegionDef(BlockDecomposition((4, 4), (1, 1)))},
                    ),
                ],
                repro.RunOptions(provenance=str(p)),
            )
        log = read_log(p)
        assert log.aborted
        assert log.end["error"].startswith("RuntimeError")
        # An aborted log is structurally valid — the partial prefix is
        # still readable (append-only format); only replay refuses it.
        assert validate_provenance_log(log) == []

    def test_close_is_idempotent(self, tmp_path):
        rec = ProvenanceRecorder(tmp_path / "idem.prov")
        rec.set_header({"schema": PROV_SCHEMA, "t": "header", "runtime": "des"})
        rec.close()
        rec.close()
        assert rec.closed


class TestGzip:
    def test_open_text_round_trip(self, tmp_path):
        p = tmp_path / "x.txt.gz"
        with open_text(p, "w") as fh:
            fh.write("hello\n")
        with open_text(p, "a") as fh:
            fh.write("world\n")
        with open_text(p, "r") as fh:
            assert fh.read() == "hello\nworld\n"
        # Really compressed, not a plain file with a .gz name.
        assert p.read_bytes()[:2] == b"\x1f\x8b"

    def test_provenance_log_gzip_round_trip(self, tmp_path, demo_runner):
        p = tmp_path / "run.prov.gz"
        demo_runner(with_tracer=False, provenance=str(p))
        log = read_log(p)
        assert validate_provenance_log(log) == []
        assert log.wire and log.sched

    def test_jsonl_sink_gzip_round_trip(self, tmp_path, demo_runner):
        p = tmp_path / "tele.jsonl.gz"
        sink = JsonlSink(p)
        demo_runner(
            with_tracer=False, telemetry_sinks=(sink,), telemetry_interval=0.05
        )
        with open_text(p, "r") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) >= 2
        assert lines[-1]["final"] is True


class TestLiveAudit:
    def test_live_run_records_audit_log(self, tmp_path):
        # Live mains are plain callables, not generators.
        config = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"

        def e_main(ctx):
            for k in range(6):
                ctx.export("d", 1.0 + k)
                ctx.compute(1e-3)

        def i_main(ctx):
            for j in range(1, 4):
                ctx.compute(5e-4)
                ctx.import_("d", 2.0 * j)

        from repro.core.coupler import RegionDef

        p = tmp_path / "live.prov"
        repro.run(
            config,
            [
                repro.Program(
                    "E",
                    main=e_main,
                    regions={"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))},
                ),
                repro.Program(
                    "I",
                    main=i_main,
                    regions={"d": RegionDef(BlockDecomposition((16, 16), (1, 2)))},
                ),
            ],
            repro.RunOptions(
                runtime="live", time_scale=0.01, provenance=str(p)
            ),
        )
        log = read_log(p)
        assert log.runtime == "live"
        assert not log.aborted
        assert log.wire and log.matches
        kinds = {op["op"] for ops in log.ops_for("E").values() for op in ops}
        assert "export" in kinds
