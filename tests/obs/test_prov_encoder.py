"""Differential oracle for the provenance block writer and reader.

``ProvenanceRecorder.close`` writes op, wire and match rows as column
blocks, and :func:`read_log` hands each row back as a dict.  The per-row
writer of the v1 format — one ``json.dumps(row, sort_keys=True)`` per
row, from the dict each call site used to build — lives on here as
:func:`reference_lines`.  Both are fed the same recorded tuples: the
rows read back from the blocks must equal the rows the reference lines
parse to.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import spine
from repro.obs import prov
from repro.obs.prov import OP_FIELDS, PROV_SCHEMA, ProvenanceRecorder, read_log
from repro.obs.trace import TraceContext

HEADER = {"schema": PROV_SCHEMA, "t": "header", "runtime": "des"}


# -- the reference: the per-row writer, verbatim ---------------------------
def _op_row(kind, fields):
    """The dict the pre-column call sites handed to ``on_op``."""
    if kind == "compute":
        (seconds,) = fields
        return {"op": "compute", "seconds": seconds}
    if kind == "compute_elements":
        elements, scale = fields
        return {"op": "compute_elements", "elements": elements, "scale": scale}
    if kind == "export":
        region, ts, dtype = fields
        return {"op": "export", "region": region, "ts": ts, "dtype": dtype}
    region, ts = fields
    return {"op": kind, "region": region, "ts": ts}


def reference_lines(ops, wire, match):
    out = []
    by_rank = {}
    for program, rank, kind, fields in ops:
        by_rank.setdefault((program, rank), []).append(_op_row(kind, fields))
    for (program, rank), rows in sorted(by_rank.items()):
        for op in rows:
            row = {"t": "op", "p": program, "r": rank}
            row.update(op)
            out.append(json.dumps(row, sort_keys=True) + "\n")
    for now, seq, src, dst, msg, plane, nbytes, trace in wire:
        out.append(
            json.dumps(
                {
                    "t": "wire",
                    "now": now,
                    "seq": seq,
                    "src": list(src) if isinstance(src, tuple) else src,
                    "dst": list(dst) if isinstance(dst, tuple) else dst,
                    "msg": msg,
                    "plane": plane,
                    "nbytes": nbytes,
                    "trace": None
                    if trace is None
                    else [trace.trace_id, trace.span_id],
                },
                sort_keys=True,
            )
            + "\n"
        )
    for now, cid, rank, request_ts, kind, latest, backend in match:
        out.append(
            json.dumps(
                {
                    "t": "match",
                    "now": now,
                    "cid": cid,
                    "rank": rank,
                    "request_ts": request_ts,
                    "kind": kind,
                    "latest": latest,
                    "backend": backend,
                },
                sort_keys=True,
            )
            + "\n"
        )
    return out


def written_rows(path, ops, wire, match):
    """The rows :func:`read_log` returns after the recorder wrote them."""
    rec = ProvenanceRecorder(path)
    rec.set_header(HEADER)
    for program, rank, kind, fields in ops:
        rec.on_op(program, rank, kind, *fields)
    for row in wire:
        rec.on_wire(*row)
    for row in match:
        rec.on_match(*row)
    rec.close()
    log = read_log(path)
    return [row for block in (*log.ops.values(), log.wire, log.matches) for row in block]


def reference_rows(ops, wire, match):
    return [json.loads(line) for line in reference_lines(ops, wire, match)]


def same_rows(ops, wire, match, path):
    """Whether the rows read back are the reference rows as JSON text:
    ``==`` would take ``-0.0`` for ``0.0`` and ``1`` for ``1.0``, and
    would not take NaN for itself."""
    written = written_rows(path, ops, wire, match)
    reference = reference_rows(ops, wire, match)
    return json.dumps(written, sort_keys=True) == json.dumps(reference, sort_keys=True)


# -- generated rows ------------------------------------------------------------
names = st.one_of(
    st.sampled_from(
        ["d", 'q"uote', "back\\slash", "per%cent %s %%", "a, b", "cl}ose{", "Ω-région", ""]
    ),
    st.text(alphabet='ab"\\%, }{é☃\x00\n', max_size=6),
)
times = st.one_of(
    st.integers(-(10**6), 10**18),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e-7, 1e22, 1e16, 5e-324, 20.0, np.float64(1e-7)]),
)
clocks = st.one_of(times, st.sampled_from([math.inf, -math.inf, math.nan]))
ranks = st.integers(0, 3)
#: Each op kind's fields, in ``OP_FIELDS`` order.
op_fields = {
    "compute": st.tuples(clocks),
    "compute_elements": st.tuples(st.integers(0, 10**9), times),
    "export": st.tuples(names, times, st.sampled_from([None, "float64", "int32"])),
    "import_begin": st.tuples(names, times),
    "import_wait": st.tuples(names, times),
}
ops = st.one_of([st.tuples(st.just(kind), fields) for kind, fields in op_fields.items()])
op_rows = st.lists(
    st.tuples(names, ranks, ops).map(lambda x: (x[0], x[1], x[2][0], x[2][1])),
    max_size=24,
)
addresses = st.one_of(names, st.tuples(st.sampled_from(["cpl", "rep", "ctl"]), names, ranks))
traces = st.one_of(
    st.none(), st.builds(TraceContext, st.integers(0, 10**6), st.integers(0, 10**6))
)
wire_rows = st.lists(
    st.tuples(
        clocks, st.integers(0, 10**9), addresses, addresses, names,
        st.sampled_from(["ctl", "data"]), st.integers(0, 10**9), traces,
    ),
    max_size=12,
)
match_rows = st.lists(
    st.tuples(clocks, names, ranks, times, names, clocks, names), max_size=12
)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("encoder") / "rows.prov"


class TestEncoderOracle:
    @settings(max_examples=150)
    @given(ops=op_rows, wire=wire_rows, match=match_rows)
    def test_rows_equal_the_per_row_writers(self, log_path, ops, wire, match):
        assert same_rows(ops, wire, match, log_path)

    def test_kinds_interleaved_on_one_rank_keep_recorded_order(self, log_path):
        ops = [
            ("F", 0, "export", ("d", 1.6, None)),
            ("F", 0, "compute", (0.001,)),
            ("U", 1, "import_begin", ("d", 20)),
            ("F", 0, "export", ("d", np.float64(2.6), "float64")),
            ("U", 1, "import_wait", ("d", 20)),
            ("F", 0, "compute_elements", (4096, -0.0)),
            ("F", 0, "compute", (math.inf,)),
        ]
        rows = written_rows(log_path, ops, [], [])
        assert rows == reference_rows(ops, [], [])
        assert [row["op"] for row in rows] == [
            "export", "compute", "export", "compute_elements", "compute",
            "import_begin", "import_wait",
        ]

    def test_a_column_holding_the_item_separator_is_still_exact(self, log_path):
        # ``ts`` is a number in every run; a value holding ", " is one
        # table entry like any other.
        ops = [("F", 0, "import_begin", ("d", "1, 2")), ("F", 0, "import_begin", ("d", 3))]
        assert written_rows(log_path, ops, [], []) == reference_rows(ops, [], [])

    def test_values_keep_their_json_type(self, log_path):
        """An int stays an int beside an equal float, an int past int64
        and a bool are kept, and -0.0 keeps its sign in a float column
        and beside 0.0 in a mixed one — inside a tuple too."""
        ops = [
            ("F", 0, "import_begin", ("d", 1)),
            ("F", 0, "import_begin", ("d", 1.0)),
            ("F", 0, "import_begin", ("d", True)),
            ("F", 0, "compute_elements", (10**20, -0.0)),
            ("F", 1, "import_begin", ("d", 0.0)),
            ("F", 1, "import_begin", ("d", -0.0)),
            ("F", 1, "import_begin", ("d", "a")),
            ("F", 2, "import_begin", ("d", (0.0,))),
            ("F", 2, "import_begin", ("d", (-0.0,))),
            ("F", 2, "import_begin", ("d", (1,))),
            ("F", 2, "import_begin", ("d", (1.0,))),
            ("F", 2, "import_begin", ("d", (True,))),
            ("F", 2, "import_begin", ("d", ((1, "x"), 2))),
            ("F", 2, "import_begin", ("d", ((1.0, "x"), 2))),
            ("F", 2, "import_begin", ("d", "a")),
        ]
        rows = written_rows(log_path, ops, [], [])
        assert json.dumps(rows, sort_keys=True) == json.dumps(
            reference_rows(ops, [], []), sort_keys=True
        )

    def test_rows_are_built_on_access(self, log_path):
        ops = [("F", 0, "export", ("d", 1.6, None)), ("F", 0, "compute", (0.001,))]
        written_rows(log_path, ops, [], [])
        block = read_log(log_path).ops["F", 0]
        assert len(block) == 2 and "rows" not in vars(block)
        assert block[1] == {"t": "op", "p": "F", "r": 0, "op": "compute", "seconds": 0.001}
        assert list(block.items()) == [("export", ("d", 1.6, None)), ("compute", (0.001,))]

    def test_seeded_mutation_is_caught(self, log_path, monkeypatch):
        """A table whose indices land one entry off: caught."""
        ops = [("F", 0, "export", ("d", 1.6, None)), ("F", 0, "compute", (0.001,))]
        wire = [(0.5, 1, ("cpl", "F", 0), ("rep", "F"), "ProcResponse", "ctl", 64, None)]
        column = prov._column

        def rotated(values):
            out = column(values)
            if len(out) == 3:
                out[2] = out[2][1:] + out[2][:1]
            return out

        monkeypatch.setattr(prov, "_column", rotated)
        assert not same_rows(ops, wire, [], log_path)


# -- op rows through the recorder's hook and through the spine -------------
#: Each op kind's spine kind, and the event carrying its fields.
_SPINE_KINDS = {
    "export": spine.EXPORT,
    "import_begin": spine.IMPORT_REQUEST,
    "import_wait": spine.IMPORT_WAIT,
    "compute": spine.COMPUTE,
    "compute_elements": spine.COMPUTE_ELEMENTS,
}


def _event(program, rank, kind, fields):
    """The announcement the provenance fold turns into this op row."""
    region = ts = request = None
    values: tuple = ()
    if kind == "export":
        region, ts, dtype = fields
        values = (dtype,)
    elif kind in ("import_begin", "import_wait"):
        region, request = fields
    else:
        values = tuple(fields)
    return spine.new_event((
        _SPINE_KINDS[kind], f"{program}.p{rank}", 0.0, None, request, program, rank,
        region, ts, None, values, None,
    ))


def _ops_lines(path, ops, through):
    """The ``ops`` lines of a log whose op rows went *through* ``on_op``
    or the spine's provenance fold."""
    rec = ProvenanceRecorder(path)
    rec.set_header(HEADER)
    fold = spine.ProvenanceFold(rec, "sorted").handlers()
    for program, rank, kind, fields in ops:
        if through == "on_op":
            rec.on_op(program, rank, kind, *fields)
        else:
            ev = _event(program, rank, kind, fields)
            fold[ev.kind](ev)
    rec.close()
    return [line for line in path.read_text().splitlines() if '"t": "ops"' in line]


processes = st.lists(st.tuples(names, ranks), min_size=1, max_size=4, unique=True)


@st.composite
def interleaved_ops(draw):
    """Op rows of 1-4 ``(program, rank)`` pairs, interleaved, every kind possible."""
    pairs = draw(processes)
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        program, rank = draw(st.sampled_from(pairs))
        kind = draw(st.sampled_from(sorted(OP_FIELDS)))
        fields = draw(op_fields[kind])
        rows.append((program, rank, kind, fields))
    return rows


class TestOpRowsPerProcess:
    """Rows kept per process: whichever way they arrive — the recorder's
    ``on_op`` or the spine's provenance fold — the ``ops`` lines are the
    same, and read back they are the reference writer's rows."""

    @settings(max_examples=100)
    @given(rows=interleaved_ops())
    def test_on_op_and_the_fold_write_the_reference_rows(self, log_path, rows):
        by_hook = _ops_lines(log_path, rows, "on_op")
        by_fold = _ops_lines(log_path, rows, "fold")
        assert by_fold == by_hook
        assert len(by_hook) == len({(program, rank) for program, rank, _, _ in rows})
        written = [row for block in read_log(log_path).ops.values() for row in block]
        assert json.dumps(written, sort_keys=True) == json.dumps(
            reference_rows(rows, [], []), sort_keys=True
        )

    def test_blocks_come_in_program_then_rank_order(self, log_path):
        rows = [
            ("U", 1, "compute", (1.0,)), ("F", 1, "compute", (2.0,)),
            ("U", 0, "compute", (3.0,)), ("F", 0, "compute", (4.0,)),
            ("F", 1, "compute", (5.0,)),
        ]
        lines = _ops_lines(log_path, rows, "fold")
        assert [(json.loads(line)["p"], json.loads(line)["r"]) for line in lines] == [
            ("F", 0), ("F", 1), ("U", 0), ("U", 1),
        ]
