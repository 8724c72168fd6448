"""Differential oracle for the provenance column encoder.

``ProvenanceRecorder.close`` writes op, wire and match rows one *kind*
at a time: a line template per key set and one encoded column per
varying key.  The writer it replaced — one ``json.dumps(row,
sort_keys=True)`` per row, from the dict each call site used to build —
lives on here as :func:`reference_lines`.  Both are fed the same
recorded tuples and must produce the same bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import prov
from repro.obs.prov import PROV_SCHEMA, ProvenanceRecorder
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


def written_lines(path, ops, wire, match):
    rec = ProvenanceRecorder(path)
    rec.set_header(HEADER)
    for program, rank, kind, fields in ops:
        rec.on_op(program, rank, kind, *fields)
    for row in wire:
        rec.on_wire(*row)
    for row in match:
        rec.on_match(*row)
    rec.close()
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.readlines()[1:-1]  # between the header and the end record


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
ops = st.one_of(
    st.tuples(st.just("compute"), st.tuples(clocks)),
    st.tuples(st.just("compute_elements"), st.tuples(st.integers(0, 10**9), times)),
    st.tuples(
        st.just("export"),
        st.tuples(names, times, st.sampled_from([None, "float64", "int32"])),
    ),
    st.tuples(st.sampled_from(["import_begin", "import_wait"]), st.tuples(names, times)),
)
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
    def test_bytes_equal_the_per_row_writer(self, log_path, ops, wire, match):
        assert written_lines(log_path, ops, wire, match) == reference_lines(
            ops, wire, match
        )

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
        lines = written_lines(log_path, ops, [], [])
        assert lines == reference_lines(ops, [], [])
        assert [json.loads(line)["op"] for line in lines] == [
            "export", "compute", "export", "compute_elements", "compute",
            "import_begin", "import_wait",
        ]

    def test_a_column_holding_the_item_separator_is_still_exact(self, log_path):
        # ``ts`` is a number in every run; a value whose encoding holds
        # ", " must not shift its neighbours' cells.
        ops = [("F", 0, "import_begin", ("d", "1, 2")), ("F", 0, "import_begin", ("d", 3))]
        assert written_lines(log_path, ops, [], []) == reference_lines(ops, [], [])

    def test_seeded_mutation_is_caught(self, log_path, monkeypatch):
        """Keys written in another order than ``sort_keys`` gives: caught."""
        ops = [("F", 0, "export", ("d", 1.6, None)), ("F", 0, "compute", (0.001,))]
        wire = [(0.5, 1, ("cpl", "F", 0), ("rep", "F"), "ProcResponse", "ctl", 64, None)]
        monkeypatch.setattr(
            prov, "sorted", lambda it, **kw: sorted(it, reverse=True, **kw), raising=False
        )
        assert written_lines(log_path, ops, wire, []) != reference_lines(ops, wire, [])
