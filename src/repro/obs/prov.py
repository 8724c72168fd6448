"""Provenance-grade run recording: the ``repro.prov/v2`` log.

Opt-in via ``RunOptions(provenance="run.prov")``, a
:class:`ProvenanceRecorder` captures *everything* a coupled run does
into one compact, versioned, append-only JSONL+binary log:

* a **header** — enough frozen context (configuration text, JSON-safe
  run options, cost-model preset, fault plan, region declarations) to
  rebuild the run with no scenario code at all;
* every **operation** each process issues against its context
  (``export`` / ``import_begin`` / ``import_wait`` / ``compute`` /
  ``compute_elements``), the ground truth :mod:`repro.obs.replay`
  re-drives through the real runtime;
* every **wire message** on both planes (virtual send time, sequence
  number, src/dst address, payload type, plane, size, trace context);
* every **match-engine resolution** (backend-tagged, with the
  request's timestamp and the deciding export watermark);
* every **RNG draw** from both :class:`~repro.util.rng.RngRegistry`
  registries (the coupler's and the network world's).

While the run is going every row is a plain tuple; nothing is encoded
until :meth:`ProvenanceRecorder.close`, which writes columns: one
``ops`` block line per ``(program, rank)``, one ``wire`` and one
``match`` block line, and the RNG draws.  :func:`read_log` decodes
each block once (a ``repro.prov/v1`` log's per-row lines into the same
blocks) and skips the ``sched`` line of logs written while the kernel's
heap placements were recorded: a replay rebuilds the run from the
operations and the header, and the digests prove it.  What a recorded
run costs end to end is the ``prov_record`` workload of
``perf/run.py``.

The final record carries SHA-256 digests of the run's
``repro.report/v1`` payload and of its causal DAG (the span,
resolution and buddy-skip columns as blocks, :func:`causal_digest`),
making every log self-verifying: a replay is *bit-exact* exactly when
it reproduces those digests (see :func:`repro.obs.replay.verify_replay`).

Paths ending in ``.gz`` are written/read gzip-compressed.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import gzip
import hashlib
import json
import struct
import zlib
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.obs.export import REPORT_SCHEMA, report_run

__all__ = [
    "Block",
    "PROV_SCHEMA",
    "ProvenanceError",
    "ProvenanceLog",
    "ProvenanceRecorder",
    "build_header",
    "causal_digest",
    "causal_payload",
    "open_text",
    "payload_digest",
    "read_log",
    "report_payload",
    "validate_provenance_log",
]

#: Version tag of the provenance log format, and of the per-row format
#: before blocks, which :func:`read_log` still reads.
PROV_SCHEMA = "repro.prov/v2"
PROV_SCHEMA_V1 = "repro.prov/v1"

#: Operation kinds a process context records (and replay re-drives) and
#: the fields each carries, in ``on_op`` argument order.  The writer and
#: :func:`validate_provenance_log` both read row shapes from here.
OP_FIELDS: dict[str, tuple[str, ...]] = {
    "compute": ("seconds",),
    "compute_elements": ("elements", "scale"),
    "export": ("region", "ts", "dtype"),
    "import_begin": ("region", "ts"),
    "import_wait": ("region", "ts"),
}

#: The fields of a wire and of a match row, in ``on_wire``/``on_match``
#: argument order.
_FIELDS: dict[str, tuple[str, ...]] = {
    "wire": ("now", "seq", "src", "dst", "msg", "plane", "nbytes", "trace"),
    "match": ("now", "cid", "rank", "request_ts", "kind", "latest", "backend"),
}

#: RunOptions fields serialized into the header verbatim (all
#: JSON-safe scalars).  With ``_UNRECORDED_OPTION_FIELDS`` it partitions
#: every field (``tests/api/test_options.py`` checks), so a new option
#: cannot silently escape the header.
_OPTION_FIELDS = (
    "runtime",
    "buddy_help",
    "seed",
    "buffer_capacity_bytes",
    "buffer_policy",
    "record_operations",
    "sanitize",
    "retransmit_timeout",
    "max_retransmits",
    "time_scale",
    "default_timeout",
    "causal_trace",
    "match_backend",
)

#: The fields the header deliberately leaves out: the unserializable
#: ones, ``provenance`` itself — replays re-derive those — and
#: ``telemetry_interval``, which no run's result depends on.
_UNRECORDED_OPTION_FIELDS = (
    "preset",
    "tracer",
    "fault_plan",
    "telemetry_sinks",
    "telemetry_interval",
    "race_monitor",
    "provenance",
)


class ProvenanceError(Exception):
    """A malformed, truncated, or unreplayable provenance log."""


def open_text(path: str | Path, mode: str) -> IO[str]:
    """Open *path* for text I/O, gzip-compressed when it ends ``.gz``.

    *mode* is a binary-style mode (``"a"``, ``"w"``, ``"r"``); the text
    layer (UTF-8) is added here.  Shared with
    :class:`repro.obs.stream.JsonlSink`.
    """
    p = str(path)
    if p.endswith(".gz"):
        return gzip.open(p, mode + "t", encoding="utf-8")
    return open(p, mode, encoding="utf-8")


def payload_digest(payload: dict[str, Any]) -> str:
    """Canonical SHA-256 of a JSON payload (sorted keys, compact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _b64(data: np.ndarray | bytes) -> str:
    """Base64 text of *data*'s bytes: a C-contiguous array's buffer, or bytes."""
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def _unb64(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text.encode("ascii")), dtype=dtype)


# -- shared payload builders ----------------------------------------------
# Record and replay must build the compared payloads through the SAME
# code path, else formatting drift would read as nondeterminism.


def report_payload(result: Any) -> dict[str, Any]:
    """The canonical ``repro.report/v1`` payload of *result*."""
    return {
        "schema": REPORT_SCHEMA,
        "runs": [report_run("recorded", result, backend_sample=False)],
    }


def causal_payload(result: Any) -> dict[str, Any]:
    """The canonical ``repro.causal/v1`` payload of *result*."""
    out: dict[str, Any] = result.causal.as_dict()
    return out


# -- header ----------------------------------------------------------------


def _render_config(config: Any) -> str:
    """Re-render a parsed configuration as Figure-2 text.

    Round-trips through :func:`repro.core.config.parse_config`: program
    lines from the :class:`ProgramSpec` fields, a ``#`` separator, then
    ``str(connection)`` per connection line.
    """
    lines = []
    for spec in config.programs.values():
        line = f"{spec.name} {spec.cluster} {spec.executable} {spec.nprocs}"
        if spec.extra:
            line += " " + " ".join(spec.extra)
        lines.append(line)
    lines.append("#")
    lines.extend(str(c) for c in config.connections)
    return "\n".join(lines) + "\n"


def _decomp_to_dict(decomp: Any) -> dict[str, Any]:
    from repro.data.decomposition import BlockCyclicDecomposition, BlockDecomposition

    if isinstance(decomp, BlockDecomposition):
        return {
            "kind": "block",
            "global_shape": list(decomp.global_shape),
            "grid": list(decomp.grid),
        }
    if isinstance(decomp, BlockCyclicDecomposition):
        return {
            "kind": "block_cyclic",
            "global_shape": list(decomp.global_shape),
            "nprocs": decomp.nprocs,
            "block_size": decomp.block_size,
            "axis": decomp.axis,
        }
    raise ProvenanceError(
        f"cannot record decomposition type {type(decomp).__name__}"
    )


def decomp_from_dict(d: dict[str, Any]) -> Any:
    """Inverse of the header's decomposition serialization."""
    from repro.data.decomposition import BlockCyclicDecomposition, BlockDecomposition

    kind = d.get("kind")
    if kind == "block":
        return BlockDecomposition(
            tuple(d["global_shape"]), tuple(d["grid"])
        )
    if kind == "block_cyclic":
        return BlockCyclicDecomposition(
            tuple(d["global_shape"]),
            int(d["nprocs"]),
            int(d["block_size"]),
            axis=int(d["axis"]),
        )
    raise ProvenanceError(f"unknown decomposition kind {kind!r}")


def _region_to_dict(rdef: Any) -> dict[str, Any]:
    section = rdef.section
    return {
        "decomp": _decomp_to_dict(rdef.decomp),
        "dtype": np.dtype(rdef.dtype).name,
        "section": None
        if section is None
        else [list(section.lo), list(section.hi)],
    }


def options_to_dict(options: Any) -> dict[str, Any]:
    """The JSON-safe scalar fields of a :class:`RunOptions`."""
    return {name: getattr(options, name) for name in _OPTION_FIELDS}


def options_from_dict(
    d: dict[str, Any],
    *,
    preset: Any = None,
    fault_plan: Any = None,
) -> Any:
    """Rebuild a :class:`RunOptions` from header data.

    Unknown keys are ignored so newer logs stay readable by the fields
    this version knows about.
    """
    from repro.api.options import RunOptions
    from repro.costs import FAST_TEST

    kwargs = {k: d[k] for k in _OPTION_FIELDS if k in d}
    return RunOptions(
        preset=preset if preset is not None else FAST_TEST,
        fault_plan=fault_plan,
        **kwargs,
    )


def preset_from_dict(d: dict[str, Any]) -> Any:
    """Rebuild a :class:`ClusterPreset` from its ``asdict`` form."""
    from repro.costs import ClusterPreset
    from repro.costs.models import (
        ComputeCostModel,
        MemoryCostModel,
        NetworkCostModel,
    )

    return ClusterPreset(
        name=str(d["name"]),
        memory=MemoryCostModel(**d["memory"]),
        network=NetworkCostModel(**d["network"]),
        compute=ComputeCostModel(**d["compute"]),
    )


def build_header(sim: Any, runtime: str) -> dict[str, Any]:
    """The header record of a run's provenance log.

    Called at the end of runtime finalization, when every program and
    region has been registered.  Captures everything a replay needs to
    rebuild the run from the log alone.
    """
    options = sim.options
    # Only the DES prices its time by a preset; a live header records none.
    preset = sim.preset if runtime == "des" else None
    programs: dict[str, Any] = {}
    for name, prog in sim._programs.items():
        programs[name] = {
            "nprocs": prog.nprocs,
            "has_main": prog.main is not None,
            "regions": {
                rname: _region_to_dict(rdef)
                for rname, rdef in prog.regions.items()
            },
        }
    opts = options_to_dict(options)
    # Provenance always forces causal tracing on (the causal payload is
    # part of the log's self-verification), so record the effective
    # value: a replay must run with the same instrumentation.
    opts["causal_trace"] = True
    return {
        "schema": PROV_SCHEMA,
        "t": "header",
        "version": 2,
        "runtime": runtime,
        "seed": options.seed,
        "match_backend": options.match_backend,
        "config": _render_config(sim.config),
        "options": opts,
        "preset": None if preset is None else asdict(preset),
        "fault_plan": None
        if options.fault_plan is None
        else options.fault_plan.describe(),
        "programs": programs,
    }


# -- block columns -------------------------------------------------------------
# A block line holds n rows as one encoded column per field: numbers as
# base64 float64/int64 (like ``rng`` values), anything else (names,
# addresses, trace contexts, mixed) as its distinct values, each written
# once, plus a base64 column of indices into them.


_F8 = struct.Struct("<d")


def _key(value: Any) -> Any:
    """*value*'s type with, for a float, its IEEE-754 bytes and, for a
    tuple, its items' keys: equal only for values written alike, so
    1, 1.0 and True, 0.0 and -0.0, and tuples of them stay apart."""
    if isinstance(value, float):
        return type(value), _F8.pack(value)
    if isinstance(value, tuple):
        return type(value), tuple(map(_key, value))
    return type(value), value


def _flat(values: Sequence[Any]) -> bool:
    """True when every tuple in *values* holds only names and ints."""
    tuples = compress(values, map(isinstance, values, repeat(tuple)))
    return set(map(type, chain.from_iterable(tuples))) <= {str, int, type(None)}


def _column(values: Sequence[Any]) -> list[Any]:
    """``[code, base64]``, plus the distinct values when *code* indexes them."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return ["f8", _b64(np.array(values, dtype=np.float64))]
    if kinds == {int}:
        with contextlib.suppress(OverflowError):
            return ["i8", _b64(np.array(values, dtype=np.int64))]
    # A value is its own key when equal values are written alike: names,
    # ``None`` and tuples of one class holding only names and ints (the
    # wire's addresses and trace contexts).  Any other column is keyed
    # by type too, so 1 and 1.0 stay apart, and a float by its IEEE-754
    # bits, so 0.0 and -0.0 do, inside a tuple too: a call per value,
    # paid only by a column holding a float or a tuple of more than
    # names and ints, which ``(type, value)`` keys exactly.
    others = kinds - {str, type(None)}
    if not others or (
        len(others) == 1 and issubclass(next(iter(others)), tuple) and _flat(values)
    ):
        keys: Sequence[Any] = values
    elif any(issubclass(kind, float) for kind in kinds) or not _flat(values):
        keys = list(map(_key, values))
    else:
        keys = list(zip(map(type, values), values))
    table = dict(zip(keys, values))
    index = dict(zip(table, range(len(table))))
    if len(index) <= 1 << 8:  # one byte per code, written as bytes
        return ["u1", _b64(bytes(map(index.__getitem__, keys))), list(table.values())]
    code = "u2" if len(index) <= 1 << 16 else "u4"
    codes = np.array(list(map(index.__getitem__, keys)), dtype=code)
    return [code, _b64(codes), list(table.values())]


def _values(column: Any) -> list[Any]:
    """The decoded values of one :func:`_column`."""
    code, data, *table = column
    if code not in ("f8", "i8", "u1", "u2", "u4") or len(table) > 1:
        raise ValueError(f"bad column {code!r}")
    values = _unb64(data, code).tolist()
    return list(map(table[0].__getitem__, values)) if table else values


def _block(t: str, n: int, columns: Mapping[str, Sequence[Any]], **head: Any) -> str:
    """The log line of *n* rows held as *columns*."""
    cols = {name: _column(values) for name, values in columns.items()}
    return json.dumps({"t": t, "n": n, "cols": cols, **head}, sort_keys=True) + "\n"


#: The ``causal_digest`` of end records whose ``causal_sha256`` is
#: :func:`causal_digest`; an end record without the key (every log
#: written before it) holds ``payload_digest(causal_payload(result))``.
CAUSAL_DIGEST = "blocks"

#: The digested fields of a resolution and of a buddy skip, in order.
_RESOLUTION = ("trace_id", "connection_id", "request_ts", "who", "issued_at",
               "resolved_at", "latency", "answer_kind", "case", "retransmits")
_SKIP = ("who", "connection_id", "request_ts", "export_ts", "lead")


def _sparse(t: str, columns: Mapping[str, Mapping[int, Any]]) -> Iterator[str]:
    """One block per key of *columns* (key → row → value), keys sorted."""
    for key, rows in sorted(columns.items()):
        yield _block(t, len(rows), {"rows": list(rows), "values": list(rows.values())}, key=key)


def _fields(t: str, items: Sequence[Any], fields: tuple[str, ...], **cols: Any) -> str:
    """The block of *items*' *fields* (plus *cols*), one column each."""
    columns = zip(fields, zip(*map(attrgetter(*fields), items)))
    return _block(t, len(items), {**dict(columns), **cols})


def causal_digest(report: Any) -> str:
    """SHA-256 of a :class:`~repro.obs.trace.CausalReport` as blocks in
    the log rows' column codec: the span columns, one block per attr key
    (its rows and values: an absent key is not a ``None``), the
    resolutions (one block per stage) and the buddy skips."""
    log, res = report.log, report.resolutions
    stages: defaultdict[str, dict[int, float]] = defaultdict(dict)
    for i, r in enumerate(res):
        for stage, seconds in r.stages.items():
            stages[stage][i] = seconds
    parents = log.parents
    blocks = [
        _block("spans", len(log), {
            "trace": log.trace_ids, "name": log.names, "who": log.whos, "time": log.times,
            "parents.n": list(map(len, parents)), "parents": list(chain.from_iterable(parents)),
        }),
        *_sparse("attr", log.attrs),
        _fields("resolutions", res, _RESOLUTION,
                **{"path.n": [len(r.path) for r in res], "path": [p for r in res for p in r.path],
                   "chain.n": [len(r.chain) for r in res], "chain": [c for r in res for c in r.chain]}),
        *_sparse("stage", stages),
        _fields("buddy_skips", report.buddy_skips, _SKIP),
    ]
    return hashlib.sha256("".join(blocks).encode("utf-8")).hexdigest()


# -- recorder ---------------------------------------------------------------


def _op_columns() -> tuple[list[str], dict[str, list[Any]]]:
    """One process's operation rows as columns: each row's kind, in
    issue order, and per kind its rows' ``OP_FIELDS`` values, back to
    back (row *i* of a kind of *w* fields is ``values[i * w:(i + 1) * w]``)."""
    return [], {kind: [] for kind in OP_FIELDS}


class ProvenanceRecorder:
    """Buffered writer of one run's ``repro.prov/v2`` log.

    Hot-path hooks are designed to be as close to free as recording
    allows, and keep no object per row (each would be one more for
    every cyclic-GC pass of the run to walk): a wire or match row's
    fields go on one flat list, row after row, and RNG draws go through
    one bound-method call.  Operation rows are kept as columns, in
    their own process's entry of :attr:`op_columns`: the row's kind on
    the process's kind list and its ``OP_FIELDS`` values, back to back,
    on that kind's value list.  The event spine's provenance fold
    appends to them directly; ``on_op`` is the same appends as a call.
    Everything except the header is encoded and written once, at
    :meth:`close`, each column one slice of its list: op rows as one
    ``ops`` block per ``(program, rank)``, wire and match rows as one
    block each, RNG draws as base64 binary columns.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._fh: IO[str] | None = None
        self._header: dict[str, Any] | None = None
        #: The wire and the match rows' ``_FIELDS`` values, row after row
        #: (no object kept per row; a field's column is one slice).
        self._wire: list[Any] = []
        self._match: list[Any] = []
        #: ``(program, rank)`` → that process's operation rows as
        #: :func:`_op_columns`, made on its first row.
        self.op_columns: defaultdict[
            tuple[str, int], tuple[list[str], dict[str, list[Any]]]
        ] = defaultdict(_op_columns)
        #: Per stream, the method and the value of each draw in order;
        #: methods are coded at :meth:`close`, not per draw.
        self._rng: dict[str, tuple[list[str], list[float]]] = {}
        self._end: dict[str, Any] | None = None
        self.closed = False

    # -- hot-path hooks ----------------------------------------------------
    def on_wire(
        self,
        now: float,
        seq: int,
        src: Any,
        dst: Any,
        msg: str,
        plane: str,
        nbytes: int,
        trace: Any = None,
    ) -> None:
        """One control- or data-plane message send."""
        self._wire.extend((now, seq, src, dst, msg, plane, nbytes, trace))

    def on_match(
        self,
        now: float,
        cid: str,
        rank: int,
        request_ts: float,
        kind: str,
        latest_export_ts: float,
        backend: str,
    ) -> None:
        """One match-engine resolution leaving an exporter process."""
        self._match.extend((now, cid, rank, request_ts, kind, latest_export_ts, backend))

    def on_op(self, program: str, rank: int, kind: str, *fields: Any) -> None:
        """One process-context operation (the replay ground truth).

        *fields* are the values of ``OP_FIELDS[kind]``, in that order.
        """
        if len(fields) != len(OP_FIELDS[kind]):  # would shift the kind's later rows
            raise ValueError(f"{kind} takes {OP_FIELDS[kind]}, got {fields!r}")
        kinds, values = self.op_columns[program, rank]
        kinds.append(kind)
        values[kind].extend(fields)

    def on_rng(self, stream: str, method: str, value: float) -> None:
        """One scalar draw from a named RNG stream."""
        draws = self._rng.get(stream)
        if draws is None:
            draws = self._rng[stream] = ([], [])
        draws[0].append(method)
        draws[1].append(value)

    # -- lifecycle ---------------------------------------------------------
    def set_header(self, header: dict[str, Any]) -> None:
        """Write the header line immediately (append-only from here)."""
        if self._header is not None:
            return
        self._header = header
        self._fh = open_text(self.path, "w")
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")
        self._fh.flush()

    def finalize(self, result: Any) -> dict[str, Any]:
        """Compute the end record (payload digests) from a clean run."""
        report = report_payload(result)
        end: dict[str, Any] = {
            "t": "end",
            "aborted": False,
            "error": None,
            "sim_time": result.sim_time,
            "counters": dict(result.counters),
            "report_sha256": payload_digest(report),
            "causal_sha256": causal_digest(result.causal),
            "causal_digest": CAUSAL_DIGEST,
        }
        self._end = end
        return end

    def abort(self, reason: BaseException | str) -> None:
        """Mark the log as coming from a run that did not complete:
        *reason* says why, or is the error the run raised."""
        if isinstance(reason, BaseException):
            reason = f"{type(reason).__name__}: {reason}"
        self._end = {
            "t": "end",
            "aborted": True,
            "error": reason,
            "sim_time": None,
            "counters": {},
            "report_sha256": None,
            "causal_sha256": None,
        }

    def close(self) -> None:
        """Encode and append every buffered record; idempotent."""
        if self.closed:
            return
        self.closed = True
        if self._fh is None:
            # Header never written (run died before finalize_setup):
            # still produce a well-formed, clearly-aborted log.
            self._header = {"schema": PROV_SCHEMA, "t": "header", "version": 2}
            self._fh = open_text(self.path, "w")
            self._fh.write(json.dumps(self._header, sort_keys=True) + "\n")
        fh = self._fh
        write = fh.write
        # One ops block per (program, rank), in that order, rows in issue
        # order: a field's column is one slice of its kind's values.
        for (program, rank), (kinds, by_kind) in sorted(self.op_columns.items()):
            cols: dict[str, Sequence[Any]] = {"op": kinds}
            for kind in dict.fromkeys(kinds):
                fields = OP_FIELDS[kind]
                for i, f in enumerate(fields):
                    cols[f"{kind}.{f}"] = by_kind[kind][i::len(fields)]
            write(_block("ops", len(kinds), cols, p=program, r=rank))
        for t, flat in (("wire", self._wire), ("match", self._match)):
            if flat:
                fields = _FIELDS[t]
                columns = {f: flat[i::len(fields)] for i, f in enumerate(fields)}
                write(_block(t, len(flat) // len(fields), columns))
        for stream, (drawn, values) in sorted(self._rng.items()):
            methods = list(dict.fromkeys(drawn))  # in first-drawn order
            code = {method: i for i, method in enumerate(methods)}
            codes = [code[method] for method in drawn]
            write(
                json.dumps(
                    {
                        "t": "rng",
                        "stream": stream,
                        "n": len(codes),
                        "methods": methods,
                        "codes": _b64(np.array(codes, dtype=np.uint16)),
                        "values": _b64(np.array(values, dtype=np.float64)),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        end = self._end or {
            "t": "end",
            "aborted": True,
            "error": "run never finalized",
            "sim_time": None,
            "counters": {},
            "report_sha256": None,
            "causal_sha256": None,
        }
        write(json.dumps(end, sort_keys=True) + "\n")
        fh.close()
        self._fh = None


# -- reader -----------------------------------------------------------------


@dataclass
class RngTrace:
    """Decoded draws of one named RNG stream."""

    stream: str
    methods: tuple[str, ...]
    codes: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.codes.size)


class Block(Sequence[dict[str, Any]]):
    """The *n* rows of one ``ops``, ``wire`` or ``match`` block, as columns.

    ``cols`` maps a field to its values; in an ops block the ``op``
    column is the kind sequence and ``"<kind>.<field>"`` holds a field of
    that kind's rows.  Item ``i`` is the row dict a v1 log stored on one
    line; :attr:`rows` builds them all on first access, and replay, which
    reads the columns through :meth:`items`, builds none.
    """

    def __init__(self, head: dict[str, Any], n: int, cols: dict[str, list[Any]]) -> None:
        self.head, self.n, self.cols = head, n, cols

    def items(self) -> Iterator[tuple[str, tuple[Any, ...]]]:
        """``(kind, field values)`` per row, zipped from the columns."""
        kinds = self.cols.get("op")
        if kinds is None:
            t = self.head["t"]
            return zip(repeat(t), zip(*[self.cols[f] for f in _FIELDS[t]]))
        rows = {
            kind: zip(*[self.cols[f"{kind}.{f}"] for f in OP_FIELDS[kind]])
            for kind in dict.fromkeys(kinds)
        }
        return zip(kinds, map(next, map(rows.__getitem__, kinds)))

    @cached_property
    def rows(self) -> list[dict[str, Any]]:
        """Every row as the dict a v1 line held (keys sorted, as parsed)."""
        op = "op" in self.cols
        fields = {**_FIELDS, **OP_FIELDS}
        return [
            dict(sorted({**self.head, **dict(zip(fields[kind], values)),
                         **({"op": kind} if op else {})}.items()))
            for kind, values in self.items()
        ]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: Any) -> Any:
        return self.rows[i]

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class ProvenanceLog:
    """A parsed provenance log."""

    path: str
    header: dict[str, Any]
    #: ``(program, rank)`` → its operation rows.
    ops: dict[tuple[str, int], Block]
    wire: Block
    matches: Block
    rng: dict[str, RngTrace] = field(default_factory=dict)
    end: dict[str, Any] | None = None

    @property
    def runtime(self) -> str:
        """The runtime that produced the log (``des`` or ``live``)."""
        return str(self.header.get("runtime", "des"))

    @property
    def aborted(self) -> bool:
        """Whether the recorded run raised (or never finished)."""
        return self.end is None or bool(self.end.get("aborted"))

    def ops_for(self, program: str) -> dict[int, Block]:
        """Rank → operation rows of one program."""
        return {rank: rows for (prog, rank), rows in self.ops.items() if prog == program}


def _decoded(row: dict[str, Any], head: dict[str, Any]) -> Block:
    cols = {name: _values(column) for name, column in row["cols"].items()}
    return Block(head, int(row["n"]), cols)


def _append_v1(ops: dict[Any, Block], flat: dict[str, Block], t: str, row: Any) -> None:
    """Append one v1 row to its block; a field the row lacks leaves its
    column short, which :func:`validate_provenance_log` reports."""
    if t == "op":
        p, r = str(row["p"]), int(row["r"])
        block = ops.setdefault((p, r), Block({"t": "op", "p": p, "r": r}, 0, {"op": []}))
        kind = row.get("op")
        fields, prefix = OP_FIELDS.get(kind, ()), f"{kind}."
        block.cols["op"].append(kind)
    else:
        block, fields, prefix = flat[t], _FIELDS[t], ""
    block.n += 1
    for f in fields:
        if f in row:
            block.cols.setdefault(prefix + f, []).append(row[f])


def read_log(path: str | Path) -> ProvenanceLog:
    """Parse a provenance log file (gzip-aware via the ``.gz`` suffix).

    A v2 block line is parsed and decoded once; a v1 log's ``op``,
    ``wire`` and ``match`` rows are appended to the same blocks.
    """
    header: dict[str, Any] | None = None
    v1 = False
    ops: dict[tuple[str, int], Block] = {}
    flat = {t: Block({"t": t}, 0, {f: [] for f in fs}) for t, fs in _FIELDS.items()}
    rng: dict[str, RngTrace] = {}
    end: dict[str, Any] | None = None
    try:
        with open_text(path, "r") as fh:
            text = fh.read()
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise ProvenanceError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProvenanceError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise ProvenanceError(f"{path}:{lineno}: not an object")
        t = row.get("t")
        try:
            if t == "header":
                if row.get("schema") not in (PROV_SCHEMA, PROV_SCHEMA_V1):
                    raise ProvenanceError(
                        f"{path}: schema must be {PROV_SCHEMA!r}, "
                        f"got {row.get('schema')!r}"
                    )
                header, v1 = row, row["schema"] == PROV_SCHEMA_V1
            elif v1 and t in ("op", "wire", "match"):
                _append_v1(ops, flat, t, row)
            elif t == "ops":
                p, r = str(row["p"]), int(row["r"])
                ops[p, r] = _decoded(row, {"t": "op", "p": p, "r": r})
            elif t in flat:
                flat[t] = _decoded(row, {"t": t})
            elif t == "sched":
                pass  # heap placements, written by older logs and not read
            elif t == "rng":
                rng[str(row["stream"])] = RngTrace(
                    stream=str(row["stream"]),
                    methods=tuple(row["methods"]),
                    codes=_unb64(row["codes"], "uint16"),
                    values=_unb64(row["values"], "float64"),
                )
            elif t == "end":
                end = row
            else:
                raise ProvenanceError(
                    f"{path}:{lineno}: unknown record type {t!r}"
                )
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            # A missing key or column, a non-integer rank, damaged
            # base64 (``binascii.Error`` is a ``ValueError``), a
            # table index out of range.
            raise ProvenanceError(
                f"{path}:{lineno}: malformed {t} record: {exc!r}"
            ) from exc
    if header is None:
        raise ProvenanceError(f"{path}: no header record")
    return ProvenanceLog(
        path=str(path),
        header=header,
        ops=ops,
        wire=flat["wire"],
        matches=flat["match"],
        rng=rng,
        end=end,
    )


def validate_provenance_log(log: ProvenanceLog) -> list[str]:
    """Structural problems with *log*; empty when it conforms."""
    problems: list[str] = []
    header = log.header
    if header.get("schema") not in (PROV_SCHEMA, PROV_SCHEMA_V1):
        problems.append(
            f"header schema must be {PROV_SCHEMA!r}, got {header.get('schema')!r}"
        )
    if header.get("runtime") not in ("des", "live"):
        problems.append(f"unknown runtime {header.get('runtime')!r}")
    programs = header.get("programs")
    if not isinstance(programs, dict):
        problems.append("header.programs must be an object")
        programs = {}
    if not isinstance(header.get("config"), str):
        problems.append("header.config must be the configuration text")
    if not isinstance(header.get("options"), dict):
        problems.append("header.options must be an object")
    #: (name, block, column → the length it must have)
    needs = [(t, b, dict.fromkeys(_FIELDS[t], b.n))
             for t, b in zip(_FIELDS, (log.wire, log.matches))]
    for (prog, rank), block in log.ops.items():
        if prog not in programs:
            problems.append(f"op rows for undeclared program {prog!r}")
            continue
        nprocs = int(programs[prog].get("nprocs", 0))
        if not (0 <= rank < nprocs):
            problems.append(f"op rows for out-of-range rank {prog}.{rank}")
        name, need = f"ops[{prog}.{rank}]", {"op": block.n}
        for kind, count in Counter(map(str, block.cols.get("op", ()))).items():
            if kind not in OP_FIELDS:
                problems.append(f"{name}: unknown op {kind!r}")
            need.update((f"{kind}.{f}", count) for f in OP_FIELDS.get(kind, ()))
        needs.append((name, block, need))
    for name, block, need in needs:
        for column, n in need.items():
            have = block.cols.get(column)
            if have is None and n:
                problems.append(f"{name}: no {column} column")
            elif have is not None and len(have) != n:
                problems.append(f"{name}: {column} column has {len(have)} values, not {n}")
    planes = [p for p in log.wire.cols.get("plane", ()) if p not in ("ctl", "data", None)]
    if planes:
        problems.append(f"wire: bad plane {planes[0]!r}")
    if log.end is None:
        problems.append("no end record (truncated log)")
    elif log.end.get("causal_digest", CAUSAL_DIGEST) != CAUSAL_DIGEST:
        problems.append(f"end.causal_digest must be {CAUSAL_DIGEST!r}, "
                        f"got {log.end['causal_digest']!r}")
    elif not log.end.get("aborted"):
        if not isinstance(log.end.get("report_sha256"), str):
            problems.append("end.report_sha256 missing on a clean run")
    return problems
