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

import numpy as np
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
from repro.scenarios import Figure4Spec, build
from repro.util.rng import _substream_seed

@pytest.fixture(scope="module")
def recorded(tmp_path_factory, demo_runner):
    """One recorded demo run: (log path, RunResult)."""
    path = tmp_path_factory.mktemp("prov") / "demo.prov"
    result = demo_runner(with_tracer=False, provenance=str(path))
    return path, result


@pytest.fixture(scope="module")
def faulty(tmp_path_factory, demo_runner):
    """A demo log recorded under a fault plan, so it has ``rng`` rows too."""
    path = tmp_path_factory.mktemp("prov") / "faulty.prov"
    demo_runner(
        with_tracer=False,
        provenance=str(path),
        fault_plan=FaultPlan(seed=7, drop=0.1, delay_jitter=1e-4),
    )
    return path


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


class TestRecordedDraws:
    """Every ``rng`` row is the bare generator's draw, call for call.

    Each stream's values are re-drawn one call at a time from a bare
    NumPy generator on the same substream seed, and the row counts are
    tied to what drew: one jittered cost per export or iteration, five
    fault draws per eligible send.
    """

    @staticmethod
    def _redraw(seed, stream, n, draw):
        bare = np.random.default_rng(_substream_seed(seed, stream))
        return [draw(bare) for _ in range(n)]

    def test_figure4_jitter_rows(self, tmp_path):
        path = tmp_path / "fig4.prov"
        build("fig4", {"u_procs": 4, "exports": 41, "seed": 3}).run(
            provenance=str(path)
        )
        log = read_log(path)
        lo, hi = 1.0 - Figure4Spec.jitter, 1.0 + Figure4Spec.jitter
        assert sorted(log.rng) == sorted(
            f"compute/{program}.{rank}" for program, rank in log.ops
        )
        for (program, rank), ops in log.ops.items():
            trace = log.rng[f"compute/{program}.{rank}"]
            costed = sum(op["op"] in ("export", "compute_elements") for op in ops)
            assert len(trace) == costed > 0
            assert trace.methods == ("uniform",)
            assert not trace.codes.any()
            assert trace.values.tolist() == self._redraw(
                3, trace.stream, costed, lambda g: g.uniform(lo, hi)
            )

    def test_chaos_fault_rows(self, tmp_path):
        path = tmp_path / "chaos.prov"
        plan = FaultPlan(seed=5, drop=0.1, dup=0.05, delay_jitter=2e-4)
        result = build("demo", {"seed": 5}).run(
            provenance=str(path), fault_plan=plan
        )
        log = read_log(path)
        assert log.rng and all(name.startswith("faults/") for name in log.rng)
        assert sum(len(t) for t in log.rng.values()) == 5 * result.fault_stats["eligible"]
        for trace in log.rng.values():
            assert len(trace) % 5 == 0
            assert trace.methods == ("random",)
            assert trace.values.tolist() == self._redraw(
                plan.seed, trace.stream, len(trace), lambda g: g.random()
            )


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


def _rewrite(path, out, t, edit, *, where=lambda row: True):
    """Copy log *path* to *out* with *edit* applied to the first *t* row."""
    done = False
    with open(out, "w", encoding="utf-8") as fh:
        for line in path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if not done and row["t"] == t and where(row):
                edit(row)
                done = True
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    assert done
    return out


class TestCorruptRows:
    """A damaged row is a ProvenanceError or a listed problem, never a traceback."""

    @pytest.mark.parametrize(
        "t, edit",
        [
            ("op", lambda row: row.pop("p")),
            ("op", lambda row: row.update(r="x")),
            ("sched", lambda row: row.update(times=row["times"][:-3])),
            ("sched", lambda row: row.update(seqs=7)),
            ("rng", lambda row: row.pop("methods")),
        ],
        ids=["op-no-p", "op-rank-x", "sched-b64-cut", "sched-not-text", "rng-no-methods"],
    )
    def test_read_log_names_the_line(self, tmp_path, faulty, t, edit):
        from repro.cli import main

        src = faulty
        bad = _rewrite(src, tmp_path / "bad.prov", t, edit)
        lineno = 1 + [
            json.loads(line)["t"] for line in src.read_text().splitlines()
        ].index(t)
        with pytest.raises(ProvenanceError, match=f"bad.prov:{lineno}: malformed {t}"):
            read_log(bad)
        assert main(["replay", str(bad)]) == 2

    def test_export_without_ts_is_reported(self, recorded, tmp_path, capsys):
        from repro.cli import main

        path, _ = recorded
        bad = _rewrite(
            path,
            tmp_path / "bad.prov",
            "op",
            lambda row: row.pop("ts"),
            where=lambda row: row["op"] == "export",
        )
        assert validate_provenance_log(read_log(bad)) == [
            "ops[F.0][0]: export missing ts"
        ]
        assert main(["replay", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_every_op_field_is_required(self, recorded, tmp_path):
        path, _ = recorded
        issued = {op["op"] for ops in read_log(path).ops.values() for op in ops}
        assert issued == {"export", "compute", "import_begin", "import_wait"}
        for kind in issued:
            for name in prov.OP_FIELDS[kind]:
                bad = _rewrite(
                    path,
                    tmp_path / "bad.prov",
                    "op",
                    lambda row: row.pop(name),
                    where=lambda row: row["op"] == kind,
                )
                (problem,) = validate_provenance_log(read_log(bad))
                assert problem.endswith(f"{kind} missing {name}")

    def test_truncation_is_aborted_or_an_error(self, recorded, tmp_path):
        """Cut anywhere, a log reads as aborted (problems listed) or raises
        ProvenanceError — never any other exception."""
        path, _ = recorded
        data = path.read_bytes()
        cuts = {i + 1 for i, b in enumerate(data) if b == 0x0A} | set(
            range(0, len(data), 97)
        )
        cuts.discard(len(data))
        aborted = refused = 0
        cut = tmp_path / "cut.prov"
        for n in sorted(cuts):
            cut.write_bytes(data[:n])
            try:
                log = read_log(cut)
            except ProvenanceError:
                refused += 1
                continue
            assert log.aborted and validate_provenance_log(log), n
            aborted += 1
        lines = data.count(b"\n")
        assert aborted >= lines - 1  # every line boundary past the header
        assert refused > 0
        assert aborted + refused == len(cuts)


class TestRecordingCost:
    """Counts, not timings: interpreter calls spent after a recorded run ends.

    ``close`` encodes a column at a time, so its calls per row fall as
    the log grows (0.17 on the 2000-export run ``prov_record`` times);
    the per-row writer it replaced made 9.15 at any size.  ``finalize``
    digests a report whose collection tallies before it asks the
    registry (14 487 calls on this run when it asked per export record).
    """

    #: ≈10% above the measured 832 calls for 1524 rows, and 5546 calls.
    CLOSE_CALLS_PER_ROW = 0.60
    FINALIZE_CALLS = 6100

    def test_calls_after_the_run_stay_under_the_ceilings(self, tmp_path, monkeypatch):
        import sys

        from repro.scenarios import build

        counts = {}

        def counted(name):
            inner = getattr(ProvenanceRecorder, name)

            def method(self, *args):
                calls = 0

                def count(frame, event, arg):
                    nonlocal calls
                    if event == "call" or event == "c_call":
                        calls += 1

                previous = sys.getprofile()
                sys.setprofile(count)
                try:
                    return inner(self, *args)
                finally:
                    sys.setprofile(previous)
                    counts[name] = calls

            monkeypatch.setattr(ProvenanceRecorder, name, method)

        counted("finalize")
        counted("close")
        path = tmp_path / "cost.prov"
        params = {"exports": 300, "imports": [20.0 * (j + 1) for j in range(14)]}
        build("demo", params).run(provenance=str(path), causal_trace=True)
        log = read_log(path)
        rows = len(log.wire) + len(log.matches) + sum(map(len, log.ops.values()))
        assert rows == 1524
        assert counts["close"] / rows < self.CLOSE_CALLS_PER_ROW, (
            f"{counts['close']} calls in close() for {rows} rows: "
            "a per-row call crept back into the writer"
        )
        assert counts["finalize"] < self.FINALIZE_CALLS, (
            f"{counts['finalize']} calls in finalize(): "
            "report collection went back to a lookup per record"
        )


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
