"""Provenance-grade run recording: the ``repro.prov/v1`` log.

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
* every **DES scheduling decision** that touches the kernel heap and
  every **RNG draw** from both :class:`~repro.util.rng.RngRegistry`
  registries (the coupler's and the network world's) — batch-encoded
  as base64 binary columns at close, off the dispatch path.

While the run is going every row is a plain tuple; nothing is encoded
until :meth:`ProvenanceRecorder.close`, which writes op, wire and match
rows a *kind* at a time — one line template per key set, one ``json``
call per numeric column (see the column encoder below).  The bytes are
those of one ``json.dumps(row, sort_keys=True)`` per row, which
``tests/obs/test_prov_encoder.py`` keeps as the reference.  What a
recorded run costs end to end is the ``prov_record`` workload of
``perf/run.py``.

The final record carries SHA-256 digests of the run's
``repro.report/v1`` and ``repro.causal/v1`` payloads, making every log
self-verifying: a replay is *bit-exact* exactly when it reproduces
those digests (see :func:`repro.obs.replay.verify_replay`).

Paths ending in ``.gz`` are written/read gzip-compressed.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, Callable, Sequence

import numpy as np

from repro.obs.export import REPORT_SCHEMA, report_run

__all__ = [
    "PROV_SCHEMA",
    "ProvenanceError",
    "ProvenanceLog",
    "ProvenanceRecorder",
    "build_header",
    "causal_payload",
    "open_text",
    "payload_digest",
    "read_log",
    "report_payload",
    "validate_provenance_log",
]

#: Version tag of the provenance log format.
PROV_SCHEMA = "repro.prov/v1"

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

_WIRE_FIELDS = ("now", "seq", "src", "dst", "msg", "plane", "nbytes", "trace")
_MATCH_FIELDS = ("now", "cid", "rank", "request_ts", "kind", "latest", "backend")

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
    "telemetry_interval",
    "match_backend",
)

#: The fields the header deliberately leaves out: the unserializable
#: ones and ``provenance`` itself — replays re-derive those.
_UNRECORDED_OPTION_FIELDS = (
    "preset",
    "tracer",
    "fault_plan",
    "fault_injector",
    "telemetry_sinks",
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


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(arr.tobytes()).decode("ascii")


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
    """The JSON-safe scalar fields of a :class:`RunOptions`.

    ``telemetry_active`` records whether any telemetry sink was
    attached (the sinks themselves are unserializable): the periodic
    sampler is a real DES process whose timers consume event sequence
    numbers and can extend ``sim_time`` past the last user main, so a
    bit-exact replay must re-create it (with a null sink) whenever the
    recorded run had one.
    """
    d = {name: getattr(options, name) for name in _OPTION_FIELDS}
    d["telemetry_active"] = bool(getattr(options, "telemetry_sinks", ()))
    return d


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
    preset = getattr(sim, "preset", None)
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
        "version": 1,
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


# -- column encoder ---------------------------------------------------------
# Rows of one kind share a key set, so a kind is written as one line
# template plus one encoded column per varying key.  Every value still
# goes through ``json``: byte-for-byte what
# ``json.dumps(row, sort_keys=True)`` writes per row, without a call
# per row.

_encode = json.JSONEncoder(sort_keys=True).encode


def _scalars(column: Sequence[Any]) -> list[str]:
    """Encode *column* with one ``json`` call and split it back.

    Numbers and ``None`` never contain the item separator; a column
    that does (a count mismatch shows it) is encoded value by value.
    """
    cells = _encode(column)[1:-1].split(", ")
    return cells if len(cells) == len(column) else [_encode(v) for v in column]


def _distinct(column: Sequence[Any]) -> list[str]:
    """Encode each distinct value of a name/address *column* once."""
    cache: dict[Any, str] = dict.fromkeys(column, "")
    for value in cache:
        cache[value] = _encode(value)
    return [cache[value] for value in column]


def _traces(column: Sequence[Any]) -> list[str]:
    """``null`` or ``[trace_id, span_id]`` per trace context."""
    live = [tr for tr in column if tr is not None]
    pairs = zip(
        _scalars([tr.trace_id for tr in live]),
        _scalars([tr.span_id for tr in live]),
    )
    return ["null" if tr is None else "[%s, %s]" % next(pairs) for tr in column]


#: Columns not encoded by :func:`_scalars`: names repeat (a handful of
#: distinct values per run), addresses are ``str`` or tuples of ``str``
#: and ``int``.
_COLUMN_ENCODERS: dict[str, Callable[[Sequence[Any]], list[str]]] = {
    **dict.fromkeys(
        ("p", "op", "region", "dtype", "src", "dst", "msg", "plane", "cid",
         "kind", "backend"),
        _distinct,
    ),
    "trace": _traces,
}


def _encode_rows(
    t: str, names: tuple[str, ...], rows: list[tuple[Any, ...]]
) -> list[str]:
    """The log lines of the ``"t": t`` *rows*, ``names[i]`` being ``row[i]``."""
    if not rows:
        return []
    columns = dict(zip(names, zip(*rows, strict=True), strict=True))
    cells = []
    parts = []
    for key in sorted(("t", *names)):
        if key == "t":
            parts.append(f'"t": {_encode(t)}')
        else:
            parts.append(f"{_encode(key)}: %s")
            cells.append(_COLUMN_ENCODERS.get(key, _scalars)(columns[key]))
    template = "{" + ", ".join(parts) + "}\n"
    return [template % row for row in zip(*cells)]


# -- recorder ---------------------------------------------------------------


class ProvenanceRecorder:
    """Buffered writer of one run's ``repro.prov/v1`` log.

    Hot-path hooks are designed to be as close to free as recording
    allows: wire/match/op events append one small tuple to a Python
    list (``on_op`` takes the op's kind and its ``OP_FIELDS`` values,
    not a dict), the DES scheduling hook *is* ``list.append`` (installed
    as ``sim._sched_hook``), and RNG draws go through one bound-method
    call.  Everything except the header is encoded and written once, at
    :meth:`close`: op, wire and match rows per kind through
    :func:`_encode_rows`, scheduling decisions and RNG draws as base64
    binary columns.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._fh: IO[str] | None = None
        self._header: dict[str, Any] | None = None
        self._wire: list[
            tuple[float, int, Any, Any, str, str, int, Any]
        ] = []
        self._match: list[tuple[float, str, int, float, str, float, str]] = []
        self._ops: list[tuple[Any, ...]] = []
        #: ``(fire_time, priority, seq)`` per heap insertion; the DES
        #: kernel's ``_sched_hook`` is bound to ``self.sched.append``.
        self.sched: list[tuple[float, int, int]] = []
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
        self._wire.append((now, seq, src, dst, msg, plane, nbytes, trace))

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
        self._match.append(
            (now, cid, rank, request_ts, kind, latest_export_ts, backend)
        )

    def on_op(self, program: str, rank: int, kind: str, *fields: Any) -> None:
        """One process-context operation (the replay ground truth).

        *fields* are the values of ``OP_FIELDS[kind]``, in that order.
        """
        self._ops.append((program, rank, kind, *fields))

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
            "causal_sha256": None,
        }
        try:
            end["causal_sha256"] = payload_digest(causal_payload(result))
        except Exception:  # noqa: BLE001 - live runs have no causal DAG
            end["causal_sha256"] = None
        self._end = end
        return end

    def abort(self, exc: BaseException) -> None:
        """Mark the log as coming from a run that raised."""
        self._end = {
            "t": "end",
            "aborted": True,
            "error": f"{type(exc).__name__}: {exc}",
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
            self._header = {"schema": PROV_SCHEMA, "t": "header", "version": 1}
            self._fh = open_text(self.path, "w")
            self._fh.write(json.dumps(self._header, sort_keys=True) + "\n")
        fh = self._fh
        write = fh.write
        # Ops go out grouped by (program, rank), each group in recorded
        # order (the sort is stable).  They are encoded per kind, then
        # drawn back out: the k-th row is the next line of its kind.
        rows = sorted(self._ops, key=itemgetter(0, 1))
        lines = {
            kind: iter(
                _encode_rows(
                    "op",
                    ("p", "r", "op") + fields,
                    [row for row in rows if row[2] == kind],
                )
            )
            for kind, fields in OP_FIELDS.items()
        }
        fh.writelines(map(next, map(lines.__getitem__, [row[2] for row in rows])))
        fh.writelines(_encode_rows("wire", _WIRE_FIELDS, self._wire))
        fh.writelines(_encode_rows("match", _MATCH_FIELDS, self._match))
        if self.sched:
            times = np.array([s[0] for s in self.sched], dtype=np.float64)
            prios = np.array([s[1] for s in self.sched], dtype=np.uint8)
            seqs = np.array([s[2] for s in self.sched], dtype=np.uint64)
            write(
                json.dumps(
                    {
                        "t": "sched",
                        "n": len(self.sched),
                        "times": _b64(times),
                        "prios": _b64(prios),
                        "seqs": _b64(seqs),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
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


@dataclass
class ProvenanceLog:
    """A parsed ``repro.prov/v1`` log."""

    path: str
    header: dict[str, Any]
    #: ``(program, rank)`` → ordered operation rows.
    ops: dict[tuple[str, int], list[dict[str, Any]]]
    wire: list[dict[str, Any]]
    matches: list[dict[str, Any]]
    #: ``(times, prios, seqs)`` arrays, or ``None`` when no heap
    #: scheduling happened (or the log predates the batch).
    sched: tuple[np.ndarray, np.ndarray, np.ndarray] | None
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

    def ops_for(self, program: str) -> dict[int, list[dict[str, Any]]]:
        """Rank → operation rows of one program."""
        return {
            rank: rows
            for (prog, rank), rows in self.ops.items()
            if prog == program
        }


def read_log(path: str | Path) -> ProvenanceLog:
    """Parse a provenance log file (gzip-aware via the ``.gz`` suffix)."""
    header: dict[str, Any] | None = None
    ops: dict[tuple[str, int], list[dict[str, Any]]] = {}
    wire: list[dict[str, Any]] = []
    matches: list[dict[str, Any]] = []
    sched: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    rng: dict[str, RngTrace] = {}
    end: dict[str, Any] | None = None
    try:
        fh = open_text(path, "r")
    except OSError as exc:
        raise ProvenanceError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProvenanceError(
                    f"{path}:{lineno}: not JSON: {exc}"
                ) from exc
            if not isinstance(row, dict):
                raise ProvenanceError(f"{path}:{lineno}: not an object")
            t = row.get("t")
            try:
                if t == "header":
                    if row.get("schema") != PROV_SCHEMA:
                        raise ProvenanceError(
                            f"{path}: schema must be {PROV_SCHEMA!r}, "
                            f"got {row.get('schema')!r}"
                        )
                    header = row
                elif t == "op":
                    key = (str(row["p"]), int(row["r"]))
                    ops.setdefault(key, []).append(row)
                elif t == "wire":
                    wire.append(row)
                elif t == "match":
                    matches.append(row)
                elif t == "sched":
                    sched = (
                        _unb64(row["times"], "float64"),
                        _unb64(row["prios"], "uint8"),
                        _unb64(row["seqs"], "uint64"),
                    )
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
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                # A missing key, a non-integer rank, damaged base64
                # (``binascii.Error`` is a ``ValueError``).
                raise ProvenanceError(
                    f"{path}:{lineno}: malformed {t} record: {exc!r}"
                ) from exc
    if header is None:
        raise ProvenanceError(f"{path}: no header record")
    return ProvenanceLog(
        path=str(path),
        header=header,
        ops=ops,
        wire=wire,
        matches=matches,
        sched=sched,
        rng=rng,
        end=end,
    )


def validate_provenance_log(log: ProvenanceLog) -> list[str]:
    """Structural problems with *log*; empty when it conforms."""
    problems: list[str] = []
    header = log.header
    if header.get("schema") != PROV_SCHEMA:
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
    required = {kind: frozenset(fields) for kind, fields in OP_FIELDS.items()}
    for (prog, rank), rows in log.ops.items():
        if prog not in programs:
            problems.append(f"op rows for undeclared program {prog!r}")
            continue
        nprocs = int(programs[prog].get("nprocs", 0))
        if not (0 <= rank < nprocs):
            problems.append(f"op rows for out-of-range rank {prog}.{rank}")
        for i, row in enumerate(rows):
            op = row.get("op")
            need = required.get(op) if isinstance(op, str) else None
            if need is None:
                problems.append(f"ops[{prog}.{rank}][{i}]: unknown op {op!r}")
            elif not row.keys() >= need:
                missing = ", ".join(f for f in OP_FIELDS[op] if f not in row)
                problems.append(f"ops[{prog}.{rank}][{i}]: {op} missing {missing}")
    for i, row in enumerate(log.wire):
        for key in ("now", "seq", "msg", "plane", "nbytes"):
            if key not in row:
                problems.append(f"wire[{i}]: missing {key}")
        if row.get("plane") not in ("ctl", "data", None):
            problems.append(f"wire[{i}]: bad plane {row.get('plane')!r}")
    for i, row in enumerate(log.matches):
        for key in ("now", "cid", "rank", "request_ts", "kind", "backend"):
            if key not in row:
                problems.append(f"match[{i}]: missing {key}")
    if log.sched is not None:
        times, prios, seqs = log.sched
        if not (times.size == prios.size == seqs.size):
            problems.append("sched: column lengths differ")
    if log.end is None:
        problems.append("no end record (truncated log)")
    elif not log.end.get("aborted"):
        if not isinstance(log.end.get("report_sha256"), str):
            problems.append("end.report_sha256 missing on a clean run")
    return problems
