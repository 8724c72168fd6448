"""Provenance recording: the ``repro.prov/v2`` log format.

Covers header serialization round-trips (options, presets, fault
plans, decompositions), the recorder lifecycle (header → rows → end,
abort), the structural validator, gzip transparency for both the
provenance writer and :class:`JsonlSink`, and the live runtime's
audit-only logs.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.costs.presets import PAPER_CLUSTER
from repro.data.decomposition import BlockCyclicDecomposition, BlockDecomposition
from repro.obs import prov
from repro.faults.plan import FaultPlan
from repro.match import DEFAULT_MATCH_BACKEND
from repro.obs.prov import (
    CAUSAL_DIGEST,
    PROV_SCHEMA,
    PROV_SCHEMA_V1,
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
from repro.obs.replay import verify_replay
from repro.obs.stream import JsonlSink
from repro.scenarios import Figure4Spec, build
from repro.util.rng import _substream_seed
from tests.callcount import count_calls

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

    def test_end_names_the_causal_digest_rule(self, recorded, tmp_path):
        path, _ = recorded
        assert read_log(path).end["causal_digest"] == CAUSAL_DIGEST
        out = _rewrite(path, tmp_path / "rule.prov", "end",
                       lambda row: row.update(causal_digest="columns"))
        assert validate_provenance_log(read_log(out)) == [
            "end.causal_digest must be 'blocks', got 'columns'"
        ]
        with pytest.raises(ProvenanceError, match="unknown causal_digest 'columns'"):
            verify_replay(out)

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

    def test_a_failing_digest_aborts_the_log_and_raises(self, tmp_path, monkeypatch):
        def broken(report):
            raise RuntimeError("digest failed")

        monkeypatch.setattr(prov, "causal_digest", broken)
        p = tmp_path / "digest.prov"
        with pytest.raises(RuntimeError, match="digest failed"):
            build("demo").run(provenance=str(p))
        log = read_log(p)
        assert log.aborted and log.end["error"] == "RuntimeError: digest failed"
        assert log.end["causal_sha256"] is None and log.wire and log.ops
        assert validate_provenance_log(log) == []

    def test_close_is_idempotent(self, tmp_path):
        rec = ProvenanceRecorder(tmp_path / "idem.prov")
        rec.set_header({"schema": PROV_SCHEMA, "t": "header", "runtime": "des"})
        rec.close()
        rec.close()
        assert rec.closed


def _rewrite(path, out, t, edit, *, where=lambda row: True):
    """Copy log *path* to *out* with *edit* applied to the first *t* line."""
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


def _edit_column(name, change):
    """An edit replacing block column *name* by ``change(values)``."""

    def edit(row):
        row["cols"][name] = prov._column(change(prov._values(row["cols"][name])))

    return edit


def _has(name):
    return lambda row: name in row["cols"]


class TestCorruptRows:
    """A damaged block is a ProvenanceError naming its line or one listed
    problem, and ``repro replay`` exits 2 — never a traceback."""

    @pytest.mark.parametrize(
        "t, edit",
        [
            ("ops", lambda row: row.pop("p")),
            ("ops", lambda row: row.update(r="x")),
            ("ops", lambda row: row["cols"]["op"].__setitem__(1, row["cols"]["op"][1][:-3])),
            ("wire", lambda row: row["cols"].update(seq=["f4", ""])),
            ("rng", lambda row: row.update(values=row["values"][:-3])),
            ("rng", lambda row: row.update(codes=7)),
            ("rng", lambda row: row.pop("methods")),
        ],
        ids=[
            "op-no-p", "op-rank-x", "ops-b64-cut", "wire-bad-code",
            "rng-b64-cut", "rng-not-text", "rng-no-methods",
        ],
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

    @pytest.mark.parametrize(
        "t, where, edit, problem",
        [
            (
                "wire", _has("nbytes"), lambda row: row["cols"].pop("nbytes"),
                "wire: no nbytes column",
            ),
            (
                "ops", _has("compute.seconds"), lambda row: row["cols"].pop("compute.seconds"),
                "ops[F.0]: no compute.seconds column",
            ),
            (
                "ops", _has("compute.seconds"),
                _edit_column("op", lambda v: ["sleep" if k == "compute" else k for k in v]),
                "ops[F.0]: unknown op 'sleep'",
            ),
        ],
        ids=["missing-column", "kind-without-column", "unknown-kind"],
    )
    def test_validator_lists_one_problem(
        self, recorded, tmp_path, capsys, t, where, edit, problem
    ):
        from repro.cli import main

        path, _ = recorded
        bad = _rewrite(path, tmp_path / "bad.prov", t, edit, where=where)
        assert validate_provenance_log(read_log(bad)) == [problem]
        assert main(["replay", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_export_without_ts_is_reported(self, recorded, tmp_path, capsys):
        """An export block whose ts column lost a value: a short column."""
        from repro.cli import main

        path, _ = recorded
        bad = _rewrite(
            path,
            tmp_path / "bad.prov",
            "ops",
            _edit_column("export.ts", lambda values: values[:-1]),
            where=_has("export.ts"),
        )
        assert validate_provenance_log(read_log(bad)) == [
            "ops[F.0]: export.ts column has 45 values, not 46"
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
                column = f"{kind}.{name}"
                bad = _rewrite(
                    path,
                    tmp_path / "bad.prov",
                    "ops",
                    lambda row: row["cols"].pop(column),
                    where=_has(column),
                )
                (problem,) = validate_provenance_log(read_log(bad))
                assert problem.endswith(f"no {column} column")

    def test_truncation_is_aborted_or_an_error(self, faulty, tmp_path):
        """Cut at every line boundary, in the middle of every line and every
        97 bytes, a log reads as aborted (problems listed) or raises
        ProvenanceError — never any other exception."""
        data = faulty.read_bytes()
        starts = [0] + [i + 1 for i, b in enumerate(data) if b == 0x0A]
        cuts = set(starts) | set(range(0, len(data), 97))
        cuts |= {(a + b) // 2 for a, b in zip(starts, starts[1:])}
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
        assert refused >= lines - 1  # every cut inside a line
        assert aborted + refused == len(cuts)

    def test_a_flipped_byte_is_read_or_refused(self, faulty, tmp_path):
        """One byte flipped at a quarter, half and three quarters of every
        block line, within ASCII and out of UTF-8: read (problems or
        none) or ProvenanceError, and a log with no problems still builds
        its rows."""
        data = faulty.read_bytes()
        starts = [0] + [i + 1 for i, b in enumerate(data) if b == 0x0A]
        flipped = tmp_path / "flip.prov"
        refused = 0
        for a, b in zip(starts[1:], starts[2:]):
            for at in (a + (b - a) // 4, (a + b) // 2, b - (b - a) // 4):
                for mask in (0x01, 0x80):
                    damaged = bytearray(data)
                    damaged[at] ^= mask
                    flipped.write_bytes(bytes(damaged))
                    try:
                        log = read_log(flipped)
                    except ProvenanceError:
                        refused += 1
                        continue
                    if not validate_provenance_log(log):
                        for block in (*log.ops.values(), log.wire, log.matches):
                            assert len(list(block)) == len(block)
        assert refused > 0


class TestRecordingCost:
    """Counts, not timings: interpreter calls spent after a recorded run ends.

    ``close`` encodes one column per block field, so its calls per row
    fall as the log grows; the per-kind line templates it replaced made
    832 calls here (0.55 per row), and the per-row writer before them
    9.15 per row at any size.  ``finalize`` digests a report whose
    collection tallies before it asks the registry (14 487 calls on this
    run when it asked per export record), and the causal trace's
    columns as blocks (5 546 calls when it built a dict per span and
    digested their JSON).
    """

    #: ≈8% above the measured 380 calls for 1524 rows, and ≈9% above
    #: 4 386 calls (504 and 4 574 before rows were kept as columns, op
    #: rows per process, with no sort or ``groupby`` at close, and a
    #: column's base64 was encoded from its buffer in one call).
    CLOSE_CALLS_PER_ROW = 0.27
    FINALIZE_CALLS = 4790

    def test_calls_after_the_run_stay_under_the_ceilings(self, tmp_path, monkeypatch):
        counts = {}

        def counted(name):
            inner = getattr(ProvenanceRecorder, name)

            def method(self, *args):
                counts[name], value = count_calls(inner, self, *args)
                return value

            monkeypatch.setattr(ProvenanceRecorder, name, method)

        path = tmp_path / "cost.prov"
        params = {"exports": 300, "imports": [20.0 * (j + 1) for j in range(14)]}
        # An untimed run first: the first finalize in a process pays the
        # report path's lazy imports, which are not what is counted.
        build("demo", params).run(provenance=str(path), causal_trace=True)
        counted("finalize")
        counted("close")
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


#: ``repro run demo -p exports=40 -p seed=5 --fault CHAOS --provenance F``
#: recorded in the v1 per-row format, CHAOS being the chaos plan
#: ``{"seed":5,"drop":0.1,"dup":0.05,"delay_jitter":2e-4}``.
V1_LOG = Path(__file__).parents[1] / "golden" / "prov_v1_demo.prov.gz"
V2_LOG = Path(__file__).parents[1] / "golden" / "prov_v2_demo.prov.gz"
#: The same run watched by a ``JsonlSink`` every 0.05 s, recorded while
#: telemetry was a DES process (header ``telemetry_active: true``).
TELEMETRY_LOG = Path(__file__).parents[1] / "golden" / "prov_v2_telemetry.prov.gz"


class TestV1Log:
    """A log written before blocks reads into the same blocks."""

    def test_reads_validates_and_replays(self):
        log = read_log(V1_LOG)
        assert log.header["schema"] == PROV_SCHEMA_V1
        assert validate_provenance_log(log) == []
        verdict = verify_replay(log)
        assert verdict["ok"] and verdict["report_identical"] and verdict["causal_identical"]

    def test_rows_equal_a_v2_recording(self, tmp_path):
        old = read_log(V1_LOG)
        path = tmp_path / "v2.prov"
        plan = FaultPlan.from_dict(old.header["fault_plan"])
        build("demo", {"exports": 40, "seed": 5}).run(provenance=str(path), fault_plan=plan)
        new = read_log(path)
        assert new.header["schema"] == PROV_SCHEMA
        assert sum(map(len, new.ops.values())) == 172 and len(new.wire) == 109
        assert new.ops == old.ops
        assert new.wire == old.wire and new.matches == old.matches
        assert new.rng.keys() == old.rng.keys() and new.rng
        for name, trace in new.rng.items():
            was = old.rng[name]
            assert trace.methods == was.methods
            assert np.array_equal(trace.codes, was.codes)
            assert np.array_equal(trace.values, was.values)
        # The causal digest is the one end field a v2 recording changes:
        # it names its rule (``causal_digest``), a v1 log predates it.
        digest = {"causal_sha256", "causal_digest"}
        assert new.end["causal_digest"] == CAUSAL_DIGEST and "causal_digest" not in old.end
        assert {k: v for k, v in new.end.items() if k not in digest} == {
            k: v for k, v in old.end.items() if k not in digest
        }


class TestV2Log:
    """A v2 log written before the causal digest named its rule (the
    ``demo`` at ``exports=40 seed=5`` under the chaos plan): its
    ``causal_sha256`` digests the ``repro.causal/v1`` payload."""

    def test_reads_validates_and_replays_under_the_legacy_rule(self):
        log = read_log(V2_LOG)
        assert log.header["schema"] == PROV_SCHEMA and "causal_digest" not in log.end
        assert validate_provenance_log(log) == []
        verdict = verify_replay(log)
        assert verdict["ok"] and verdict["report_identical"] and verdict["causal_identical"]

    def test_its_sched_line_is_read_past(self, tmp_path):
        """The log carries the kernel's heap placements, which no log
        records now: read_log skips that line, and every other row line
        is the one a recording of the same run writes today."""
        def rows(lines):
            return [line for line in lines if json.loads(line)["t"] not in ("header", "end")]

        with gzip.open(V2_LOG, "rt", encoding="utf-8") as fh:
            old = rows(fh.read().splitlines())
        assert [json.loads(line)["t"] for line in old].count("sched") == 1
        path = tmp_path / "now.prov"
        plan = FaultPlan.from_dict(read_log(V2_LOG).header["fault_plan"])
        build("demo", {"exports": 40, "seed": 5}).run(provenance=str(path), fault_plan=plan)
        now = rows(path.read_text(encoding="utf-8").splitlines())
        assert now == [line for line in old if json.loads(line)["t"] != "sched"]


class TestTelemetryLog:
    """A log recorded while telemetry was a DES process: its report
    digest covers the sampler's events and clock hold, which no run
    makes now, so it verifies on the causal digest alone."""

    def test_reads_validates_and_replays_on_the_causal_digest(self):
        log = read_log(TELEMETRY_LOG)
        assert log.header["options"]["telemetry_active"] is True
        assert log.end["sim_time"] == 0.2
        assert validate_provenance_log(log) == []
        verdict = verify_replay(log)
        assert verdict["ok"] is True
        assert verdict["report_identical"] is None
        assert verdict["causal_identical"] is True
        assert verdict["sim_time"] < log.end["sim_time"]


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
        assert log.wire and log.ops

    @pytest.mark.parametrize("at", [100, 1000], ids=["crc", "deflate"])
    def test_damaged_gzip_is_refused(self, tmp_path, at):
        """A flipped byte in a ``.gz`` log fails its CRC or its deflate
        stream: a ProvenanceError either way, never a ``zlib.error``."""
        data = bytearray(V1_LOG.read_bytes())
        data[at] ^= 0x55
        bad = tmp_path / "bad.prov.gz"
        bad.write_bytes(bytes(data))
        with pytest.raises(ProvenanceError, match="cannot read"):
            read_log(bad)

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
        # The live runtime records a causal DAG too, so its log is digested.
        assert log.end["causal_sha256"] and log.end["causal_digest"] == CAUSAL_DIGEST
        kinds = {op["op"] for ops in log.ops_for("E").values() for op in ops}
        assert "export" in kinds
